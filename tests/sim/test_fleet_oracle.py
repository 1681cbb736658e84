"""A homogeneous :class:`~repro.sim.fleet.FleetSpec` against the scalar
engine.

The spec documents its seeding: UE ``i`` walks
``params.make_walk(n_walks).generate_seeded(base_seed + i)`` at speed
``speeds_kmh[i % len(speeds_kmh)]`` and, when ``params`` fades, owns the
shadowing process ``params.make_fading(rng=fading_base_seed + i)``.
These tests rebuild every UE that way, one at a time, and run it
through the scalar :class:`~repro.sim.engine.Simulator` on a
:class:`~repro.sim.measurement.MeasurementSampler` — an oracle that
shares nothing with the fleet layer but the physics — then require the
sharded fleet to reproduce it exactly.
"""

import numpy as np
import pytest

from repro.core import FuzzyHandoverSystem
from repro.sim import (
    FleetSpec,
    MeasurementSampler,
    SimulationParameters,
    Simulator,
    compute_metrics,
    partition_fleet,
    run_fleet,
)

SPEEDS = (0.0, 20.0, 50.0)


def make_spec(shadow_sigma_db: float) -> FleetSpec:
    return FleetSpec(
        n_ues=7,
        n_walks=3,
        base_seed=4242,
        speeds_kmh=SPEEDS,
        params=SimulationParameters(
            measurement_spacing_km=0.2, shadow_sigma_db=shadow_sigma_db
        ),
        fading_base_seed=777,
    )


def scalar_run(spec: FleetSpec, i: int):
    """UE ``i`` of ``spec`` rebuilt from the documented seeding alone."""
    params = spec.params
    trace = params.make_walk(spec.n_walks).generate_seeded(spec.base_seed + i)
    fading = (
        params.make_fading(rng=spec.fading_base_seed + i)
        if params.shadow_sigma_db > 0.0
        else None
    )
    sampler = MeasurementSampler(
        params.make_layout(),
        params.make_propagation(),
        spacing_km=params.measurement_spacing_km,
        fading=fading,
    )
    system = FuzzyHandoverSystem(cell_radius_km=params.cell_radius_km)
    speed = spec.speeds_kmh[i % len(spec.speeds_kmh)]
    return Simulator(system, speed_kmh=speed).run(sampler.measure(trace))


@pytest.mark.parametrize("sigma", [0.0, 6.0])
@pytest.mark.parametrize("n_shards", [1, 3])
def test_shard_logs_match_the_scalar_engine(sigma, n_shards):
    spec = make_spec(sigma)
    pop = spec.population
    for lo, hi in partition_fleet(spec.n_ues, n_shards):
        result = pop.simulator(lo, hi).run(pop.measure(lo, hi))
        for j in range(hi - lo):
            want = scalar_run(spec, lo + j)
            got = result.ue_result(j)
            assert got.serving_history == want.serving_history
            np.testing.assert_array_equal(got.outputs, want.outputs)
            assert [e.step for e in got.events] == [
                e.step for e in want.events
            ]
            assert [e.source for e in got.events] == [
                e.source for e in want.events
            ]
            assert [e.target for e in got.events] == [
                e.target for e in want.events
            ]


@pytest.mark.parametrize("sigma", [0.0, 6.0])
@pytest.mark.parametrize("n_shards", [1, 3])
def test_fleet_counts_match_the_scalar_engine(sigma, n_shards):
    spec = make_spec(sigma)
    fleet = run_fleet(spec, n_shards=n_shards)
    for i in range(spec.n_ues):
        want = compute_metrics(scalar_run(spec, i))
        assert int(fleet.handovers_per_ue[i]) == want.n_handovers, i
        assert int(fleet.ping_pongs_per_ue[i]) == want.n_ping_pongs, i
