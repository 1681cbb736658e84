"""Stream-vs-batch byte-identity — the keystone property of the
streaming service.

Replaying a recorded fleet trace through the service (in process or
over the JSON wire) must produce **exactly** the metrics the
offline ``BatchSimulator`` computes from the same arrays: identical
scalar summary, identical per-UE arrays, identical handover command
sequence.  Not approximately — byte-identical.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest

from repro.core import FuzzyHandoverSystem
from repro.sim import (
    BatchSimulator,
    FleetMetrics,
    FleetSpec,
    offline_reference_metrics,
    run_fleet,
)
from repro.serve import (
    DecisionService,
    ServeServer,
    identity_report,
    metrics_identical,
    replay_in_process,
    replay_to_server,
    service_for_trace,
)

pytestmark = pytest.mark.serve

_PER_UE_FIELDS = (
    "handovers_per_ue",
    "ping_pongs_per_ue",
    "necessary_per_ue",
    "epochs_per_ue",
    "wrong_epochs_per_ue",
    "outage_epochs_per_ue",
    "dwell_epochs_per_ue",
    "dwell_count_per_ue",
    "output_sum_per_ue",
    "output_count_per_ue",
    "output_max_per_ue",
)


def assert_identical(streamed, reference) -> None:
    problems = identity_report(streamed, reference)
    assert not problems, "\n".join(problems)
    # belt and braces: re-check the array fields directly, since
    # FleetMetrics.__eq__ ignores them
    for name in _PER_UE_FIELDS:
        np.testing.assert_array_equal(
            getattr(streamed, name), getattr(reference, name), err_msg=name
        )
    assert streamed.as_dict() == reference.as_dict()


@pytest.fixture(params=["n1", "n7", "n32", "mixed_policy", "population_mix"])
def trace(request, trace_n1, trace_n7, trace_n32, trace_mixed_policy,
          trace_population_mix):
    return {
        "n1": trace_n1,
        "n7": trace_n7,
        "n32": trace_n32,
        "mixed_policy": trace_mixed_policy,
        "population_mix": trace_population_mix,
    }[request.param]


def test_in_process_identity(trace):
    reference = offline_reference_metrics(trace)
    _service, streamed = replay_in_process(trace)
    assert_identical(streamed, reference)
    assert metrics_identical(streamed, reference)


def test_in_process_replay_is_deterministic(trace_n7):
    _s1, m1 = replay_in_process(trace_n7)
    _s2, m2 = replay_in_process(trace_n7)
    assert_identical(m1, m2)


def test_commands_match_offline_events(trace_n7):
    """The emitted handover commands are exactly the offline engine's
    event log — same UEs, same steps, same source/target cells, same
    FLC outputs."""
    trace = trace_n7
    service = service_for_trace(trace)
    listener = service.attach_listener(capacity=trace.max_epochs + 1)
    replay_in_process(trace, service)

    commands = [
        cmd
        for batch in listener.pop_all()
        for cmd in batch.commands
    ]
    assert listener.dropped == 0
    streamed_events = sorted(
        (c.ue, c.local_epoch, c.source, c.target, c.output)
        for c in commands
    )

    system = FuzzyHandoverSystem(
        cell_radius_km=trace.params.cell_radius_km,
        flc_backend=trace.params.flc_backend,
    )
    result = BatchSimulator(system, speed_kmh=trace.speeds_kmh).run(
        trace.series()
    )
    offline_events = sorted(
        zip(
            result.event_ue.tolist(),
            result.event_step.tolist(),
            result.event_source.tolist(),
            result.event_target.tolist(),
            result.event_output.tolist(),
        )
    )
    assert streamed_events == offline_events
    # in lockstep replay the service epoch IS the local epoch
    assert all(c.epoch == c.local_epoch for c in commands)
    # command cells carry the layout's real grid coordinates
    layout = trace.params.make_layout()
    for c in commands:
        assert c.source_cell == tuple(layout.cells[c.source])
        assert c.target_cell == tuple(layout.cells[c.target])


def test_tcp_identity(trace_n7):
    """The full wire path — subscribe/report frames in, metrics out —
    preserves identity down to the per-UE arrays (JSON round-trips
    IEEE-754 doubles exactly via repr)."""
    trace = trace_n7
    reference = offline_reference_metrics(trace)

    async def run():
        service = DecisionService(trace.params)
        server = ServeServer(service)
        host, port = await server.start()
        try:
            return await replay_to_server(trace, host, port)
        finally:
            await server.stop()

    stats, metrics = asyncio.run(run())
    assert stats["reports_accepted"] == int(np.sum(trace.lengths))
    assert stats["epochs_closed"] == trace.max_epochs
    assert_identical(metrics, reference)


def test_tcp_identity_mixed_policy(trace_mixed_policy):
    """Policies travel the wire as field dicts and reconstruct the
    same per-cohort pipelines."""
    trace = trace_mixed_policy
    reference = offline_reference_metrics(trace)

    async def run():
        service = DecisionService(trace.params)
        server = ServeServer(service)
        host, port = await server.start()
        try:
            return await replay_to_server(trace, host, port)
        finally:
            await server.stop()

    _stats, metrics = asyncio.run(run())
    assert_identical(metrics, reference)
    assert metrics.cohort_names == reference.cohort_names


@pytest.mark.parametrize(
    "fleet", ["mixed_policy", "unlabelled", "never_evaluated"]
)
def test_metrics_payload_round_trips_through_json(
    fleet, trace_mixed_policy, trace_n7
):
    """The ``metrics`` reply's JSON rebuilds the exact metrics: cohort
    labels, unlabelled metrics, and the -inf maximum of a UE that never
    reached the FLC."""
    if fleet == "mixed_policy":
        metrics = offline_reference_metrics(trace_mixed_policy)
        assert len(metrics.cohort_names) == 2
    elif fleet == "unlabelled":
        system = FuzzyHandoverSystem(
            cell_radius_km=trace_n7.params.cell_radius_km,
            flc_backend=trace_n7.params.flc_backend,
        )
        metrics = BatchSimulator(
            system, speed_kmh=trace_n7.speeds_kmh
        ).run_metrics(trace_n7.series())
        assert metrics.cohort_names is None
    else:
        metrics = run_fleet(FleetSpec(n_ues=6, n_walks=1))
        assert np.isneginf(metrics.output_max_per_ue).any()
    text = json.dumps(metrics.to_payload())
    assert ("-Infinity" in text) == (fleet == "never_evaluated")
    assert_identical(FleetMetrics.from_payload(json.loads(text)), metrics)


def test_offline_reference_matches_run_metrics(trace_n7):
    """The oracle itself equals a direct BatchSimulator.run_metrics on
    the recorded series, labelled with the trace's cohorts."""
    trace = trace_n7
    system = FuzzyHandoverSystem(
        cell_radius_km=trace.params.cell_radius_km,
        flc_backend=trace.params.flc_backend,
    )
    direct = BatchSimulator(system, speed_kmh=trace.speeds_kmh).run_metrics(
        trace.series()
    )
    assert trace.cohort_names == ("default",)
    direct = direct.with_cohorts(trace.cohort_ids, trace.cohort_names)
    assert_identical(offline_reference_metrics(trace), direct)


def test_trace_save_load_roundtrip(tmp_path, trace_n1):
    from repro.sim import FleetTrace

    path = trace_n1.save(tmp_path / "trace.pkl")
    loaded = FleetTrace.load(path)
    np.testing.assert_array_equal(loaded.power_dbw, trace_n1.power_dbw)
    np.testing.assert_array_equal(loaded.lengths, trace_n1.lengths)
    assert loaded.params == trace_n1.params
    _svc, streamed = replay_in_process(loaded)
    assert_identical(streamed, offline_reference_metrics(trace_n1))
