"""The shared epoch kernel: speed validation, state snapshots, and
stepping UEs in any grouping."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import FuzzyHandoverSystem
from repro.serve import identity_report
from repro.sim import BatchSimulator, FleetSpec, SimulationParameters
from repro.sim.kernel import EpochState, speed_penalties, step

PARAMS = SimulationParameters(shadow_sigma_db=6.0, measurement_spacing_km=0.2)


@pytest.fixture(scope="module")
def series():
    spec = FleetSpec(n_ues=7, n_walks=3, base_seed=4242, params=PARAMS)
    return spec.population.measure()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0])
def test_batch_simulator_rejects_a_bad_speed(bad):
    with pytest.raises(ValueError, match="finite and >= 0"):
        BatchSimulator(speed_kmh=bad)
    with pytest.raises(ValueError, match="finite and >= 0"):
        BatchSimulator(speed_kmh=np.array([3.0, bad]))


def test_speed_penalties_of_good_speeds():
    np.testing.assert_array_equal(
        speed_penalties([0.0, 30.0]), speed_penalties(np.array([0.0, 30.0]))
    )
    assert speed_penalties(0.0).shape == (1,)


def test_add_grows_and_snapshots_round_trip():
    state = EpochState(FuzzyHandoverSystem(), PARAMS.make_layout())
    rows = [state.add(float(v)) for v in range(20)]
    assert rows == list(range(20)) and state.n == 20
    state.serving[:20] = 3
    snapshot = state.state_dict()
    state.serving[:20] = 5
    state.load_state_dict(snapshot)
    assert (state.serving[:20] == 3).all()
    with pytest.raises(ValueError, match="finite"):
        state.add(float("nan"))
    assert state.n == 20


def test_load_state_dict_checks_every_shape():
    layout = PARAMS.make_layout()
    small = EpochState(FuzzyHandoverSystem(), layout, np.zeros(3))
    big = EpochState(FuzzyHandoverSystem(), layout, np.zeros(4))
    with pytest.raises(ValueError, match="has shape"):
        big.load_state_dict(small.state_dict())
    lagged = EpochState(FuzzyHandoverSystem(cssp_lag=2), layout, np.zeros(3))
    with pytest.raises(ValueError, match="state array hist"):
        lagged.load_state_dict(small.state_dict())
    partial = small.state_dict()
    del partial["epochs"]
    with pytest.raises(ValueError, match="lacks"):
        small.load_state_dict(partial)


def test_stepping_one_ue_at_a_time_matches_the_batch_engine(series):
    """Any interleaving of single-UE steps that keeps each UE's own
    epoch order reproduces the lockstep batch run bit-for-bit."""
    system = FuzzyHandoverSystem(cell_radius_km=PARAMS.cell_radius_km)
    speeds = np.linspace(0.0, 60.0, series.n_ues)
    reference = BatchSimulator(system, speed_kmh=speeds).run_metrics(series)

    state = EpochState(system, series.layout, speed_penalties(speeds))
    order = np.concatenate(
        [np.full(int(t), i) for i, t in enumerate(series.lengths)]
    )
    np.random.default_rng(3).shuffle(order)
    for ue in order:
        k = state.epochs[ue]
        step(
            state,
            np.array([ue]),
            series.power_dbw[ue : ue + 1, k],
            series.positions_km[ue : ue + 1, k],
            series.distance_km[ue : ue + 1, k],
        )
    assert not identity_report(state.metrics.finalize(), reference)
