"""Per-UE handover policies against each policy's UEs run alone.

A population may give every cohort its own :class:`~repro.sim.
population.PolicyConfig` (threshold, POTLC gate, PRTLC switch, CSSP
lag).  Whatever way the fleet engines run such a mix, each UE must
decide exactly as it would in a fleet where every UE shares its policy.
The oracle here is the plainest such fleet: for each distinct policy, a
:class:`~repro.sim.batch.BatchSimulator` on that policy's own pipeline
over the sub-series built by indexing ``population.measure()``'s arrays
with that policy's UEs.  ``run_fleet`` (sharded, split into UE blocks
on threads),
:func:`~repro.sim.tracefile.offline_reference_metrics` and an
in-process service replay must all reproduce its per-UE arrays and the
population's cohort labels.

Draws mix cohorts whose thresholds differ (so the ``lut`` guard band
has to follow each UE's own threshold) and whose CSSP lags differ (so
UEs with a short window share state with longer ones).
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import fanout
from repro.mobility import ManhattanGrid, RandomWalk
from repro.serve import replay_in_process
from repro.sim import (
    BatchMeasurementSeries,
    BatchSimulator,
    FleetSpec,
    PolicyConfig,
    PopulationSpec,
    SimulationParameters,
    UECohort,
    offline_reference_metrics,
    record_fleet_trace,
    run_fleet,
)
from repro.sim import population as sim_population

pytestmark = pytest.mark.population

MODELS = (
    RandomWalk(n_walks=4, mean_step_km=0.6, step_sigma_km=0.2),
    ManhattanGrid(n_legs=6, block_km=0.35, max_blocks=2),
)

policies = st.one_of(
    st.none(),
    st.builds(
        PolicyConfig,
        threshold=st.sampled_from((0.5, 0.6, 0.75)),
        potlc_gate_dbw=st.sampled_from((-85.0, -80.0)),
        prtlc_enabled=st.booleans(),
        cssp_lag=st.integers(1, 3),
    ),
)


@st.composite
def populations(draw) -> PopulationSpec:
    n_cohorts = draw(st.integers(2, 4))
    cohorts = tuple(
        UECohort(
            name=f"c{j}",
            model=draw(st.sampled_from(MODELS)),
            count=draw(st.integers(2, 5)),
            speeds_kmh=draw(st.sampled_from(((0.0,), (5.0, 40.0), (60.0,)))),
            shadow_sigma_db=draw(st.sampled_from((0.0, 4.0))),
            policy=draw(policies),
        )
        for j in range(n_cohorts)
    )
    return PopulationSpec(
        n_ues=sum(c.count for c in cohorts),
        cohorts=cohorts,
        params=SimulationParameters(
            measurement_spacing_km=0.2,
            flc_backend=draw(st.sampled_from(("lut", "reference"))),
        ),
        base_seed=draw(st.integers(0, 10_000)),
    )


def alone(population: PopulationSpec) -> dict[str, np.ndarray]:
    """The per-UE metric arrays with every policy's UEs run as their own
    fleet on that policy's pipeline, scattered back into UE order."""
    series = population.measure()
    speeds = population.ue_speeds()
    members: dict = {}
    for cohort, lo, hi in population.cohort_slices():
        members.setdefault(cohort.policy, []).extend(range(lo, hi))
    out: dict[str, np.ndarray] = {}
    for policy, ues in members.items():
        idx = np.asarray(ues, dtype=np.intp)
        sub = BatchMeasurementSeries(
            positions_km=series.positions_km[idx],
            distance_km=series.distance_km[idx],
            power_dbw=series.power_dbw[idx],
            lengths=series.lengths[idx],
            layout=series.layout,
        )
        metrics = BatchSimulator(
            population.make_system(policy), speed_kmh=speeds[idx]
        ).run_metrics(sub)
        for key, array in metrics.per_ue().items():
            out.setdefault(key, np.zeros(population.n_ues, array.dtype))
            out[key][idx] = array
    return out


def assert_matches(metrics, want: dict, population: PopulationSpec, path):
    for key, array in metrics.per_ue().items():
        np.testing.assert_array_equal(
            array, want[key], err_msg=f"{path}: {key}"
        )
    assert metrics.cohort_names == population.cohort_names, path
    np.testing.assert_array_equal(
        metrics.cohort_ids_per_ue, population.cohort_ids(), err_msg=path
    )


@settings(derandomize=True, max_examples=18, deadline=None)
@given(
    population=populations(),
    n_shards=st.sampled_from((1, 3)),
    blocks=st.sampled_from((1, 2, 3)),
)
def test_mixed_policies_match_each_policy_run_alone(
    population, n_shards, blocks
):
    want = alone(population)
    # each shard's range runs as `blocks` UE blocks on threads
    with mock.patch.object(sim_population, "MIN_BLOCK_UES", 1), \
            mock.patch.object(fanout, "usable_cpus", lambda: blocks):
        fleet = run_fleet(
            FleetSpec.from_population(population),
            n_shards=n_shards,
            max_workers=1,
        )
    assert_matches(fleet, want, population, f"run_fleet, {blocks} blocks")
    trace = record_fleet_trace(population)
    assert_matches(
        offline_reference_metrics(trace), want, population, "offline"
    )
    _service, replayed = replay_in_process(trace)
    assert_matches(replayed, want, population, "replay")
