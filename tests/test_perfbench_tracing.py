"""The benchmark's traced path keeps finding its entry points.

``perfbench/tracing.py`` times each layer by patching the program's
entry points by name (``vars(owner)[attr]``), and some of its hooks read
call arguments positionally.  Moving or renaming one of them breaks the
traced benchmark run while every other test still passes, so this test
installs the tracer, drives a tiny fleet and a tiny decision service
through the wrapped entry points, and checks that uninstalling restores
every original attribute.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.serve import replay_in_process
from repro.sim import FleetSpec, SimulationParameters, record_fleet_trace
from repro.sim import fleet as sim_fleet

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def test_tracer_wraps_and_restores_every_entry_point(tracing):
    tracer = tracing.Tracer()
    try:
        tracer.install()
        saved = list(tracer._saved)
        for owner, attr, raw in saved:
            assert vars(owner)[attr] is not raw, f"{owner}.{attr}"

        params = SimulationParameters(
            shadow_sigma_db=6.0, measurement_spacing_km=0.2
        )
        spec = FleetSpec(n_ues=3, n_walks=2, base_seed=7, params=params)
        sim_fleet.run_fleet(spec)
        replay_in_process(record_fleet_trace(spec))
    finally:
        tracer.uninstall()

    assert saved
    for owner, attr, raw in saved:
        assert vars(owner)[attr] is raw, f"{owner}.{attr} not restored"
    assert not tracer._saved
    calls, counts = tracer.calls, tracer.counts
    for span in ("sim.batch", "sim.metrics.accumulate", "serve.engine",
                 "core.decide", "sim.fleet"):
        assert calls[span] > 0, span
    assert counts["sim.batch.tiles"] > 0
    assert counts["serve.engine.reports"] > 0
    assert counts["core.flc_samples"] > 0
