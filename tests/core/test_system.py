"""Pipeline tests for FuzzyHandoverSystem: POTLC gating, FLC decision,
PRTLC cancellation, state management — driven with crafted observations."""

import numpy as np
import pytest

from repro.core import (
    Decision,
    FuzzyHandoverSystem,
    HandoverPolicy,
    Observation,
    Stage,
)
from repro.mobility import RandomWalk
from repro.sim import SimulationParameters, run_trace


def obs(
    serving=-95.0,
    neighbor=-90.0,
    distance=1.0,
    speed=0.0,
    cell=(0, 0),
    step=0,
) -> Observation:
    return Observation(
        position_km=np.array([distance, 0.0]),
        serving_cell=cell,
        serving_power_dbw=serving,
        neighbor_cells=((2, -1),),
        neighbor_powers_dbw=np.array([neighbor]),
        distance_to_serving_km=distance,
        speed_kmh=speed,
        step_index=step,
    )


class TestObservationValidation:
    def test_shape_checks(self):
        with pytest.raises(ValueError, match=r"\(2,\)"):
            Observation(
                position_km=np.zeros(3),
                serving_cell=(0, 0),
                serving_power_dbw=-90.0,
                neighbor_cells=(),
                neighbor_powers_dbw=np.array([]),
                distance_to_serving_km=0.0,
            )

    def test_neighbor_count_mismatch(self):
        with pytest.raises(ValueError, match="neighbour"):
            Observation(
                position_km=np.zeros(2),
                serving_cell=(0, 0),
                serving_power_dbw=-90.0,
                neighbor_cells=((2, -1),),
                neighbor_powers_dbw=np.array([-90.0, -95.0]),
                distance_to_serving_km=0.0,
            )

    def test_nonfinite_serving_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            obs(serving=float("nan"))

    def test_negative_distance_and_speed_rejected(self):
        with pytest.raises(ValueError):
            obs(distance=-1.0)
        with pytest.raises(ValueError):
            obs(speed=-1.0)

    def test_best_neighbor(self):
        o = Observation(
            position_km=np.zeros(2),
            serving_cell=(0, 0),
            serving_power_dbw=-90.0,
            neighbor_cells=((2, -1), (1, 1)),
            neighbor_powers_dbw=np.array([-95.0, -85.0]),
            distance_to_serving_km=0.0,
        )
        cell, power = o.best_neighbor()
        assert cell == (1, 1)
        assert power == -85.0


class TestDecisionValidation:
    def test_handover_needs_target(self):
        with pytest.raises(ValueError, match="target"):
            Decision(handover=True)

    def test_stay_needs_no_target(self):
        d = Decision(handover=False)
        assert d.target is None


class TestPipelineStages:
    def test_first_epoch_is_warmup(self):
        sys_ = FuzzyHandoverSystem()
        d = sys_.decide(obs())
        assert d.stage == Stage.WARMUP
        assert not d.handover

    def test_potlc_gates_strong_serving(self):
        sys_ = FuzzyHandoverSystem(potlc_gate_dbw=-85.0)
        sys_.decide(obs(serving=-80.0))
        d = sys_.decide(obs(serving=-82.0, step=1))
        assert d.stage == Stage.POTLC_PASS
        assert d.output is None  # FLC never ran

    def test_flc_reject_when_output_low(self):
        sys_ = FuzzyHandoverSystem()
        sys_.decide(obs(serving=-95.0, neighbor=-115.0, distance=0.3))
        d = sys_.decide(
            obs(serving=-95.5, neighbor=-115.0, distance=0.3, step=1)
        )
        assert d.stage == Stage.FLC_REJECT
        assert d.output is not None and d.output <= sys_.threshold
        assert d.inputs is not None

    def test_handover_executes_on_strong_case(self):
        sys_ = FuzzyHandoverSystem()
        sys_.decide(obs(serving=-95.0, neighbor=-85.0, distance=1.2))
        d = sys_.decide(
            obs(serving=-101.0, neighbor=-85.0, distance=1.3, step=1)
        )
        assert d.stage == Stage.HANDOVER
        assert d.handover and d.target == (2, -1)
        assert d.output > sys_.threshold

    def test_prtlc_cancels_recovering_signal(self):
        sys_ = FuzzyHandoverSystem()
        # strong FLC case, but serving power *rose* since last epoch
        sys_.decide(obs(serving=-105.0, neighbor=-85.0, distance=1.2))
        d = sys_.decide(
            obs(serving=-104.0, neighbor=-85.0, distance=1.3, step=1)
        )
        assert d.stage == Stage.PRTLC_REJECT
        assert not d.handover
        assert d.output > sys_.threshold  # the FLC did want a handover

    def test_prtlc_disabled_executes_anyway(self):
        sys_ = FuzzyHandoverSystem(prtlc_enabled=False)
        sys_.decide(obs(serving=-105.0, neighbor=-85.0, distance=1.2))
        d = sys_.decide(
            obs(serving=-104.0, neighbor=-85.0, distance=1.3, step=1)
        )
        assert d.stage == Stage.HANDOVER

    def test_no_neighbor_stage(self):
        sys_ = FuzzyHandoverSystem()
        o1 = Observation(
            position_km=np.zeros(2),
            serving_cell=(0, 0),
            serving_power_dbw=-95.0,
            neighbor_cells=(),
            neighbor_powers_dbw=np.array([]),
            distance_to_serving_km=1.0,
        )
        sys_.decide(o1)
        d = sys_.decide(o1)
        assert d.stage == Stage.NO_NEIGHBOR


class TestStateManagement:
    def test_history_resets_after_handover(self):
        sys_ = FuzzyHandoverSystem()
        sys_.decide(obs(serving=-95.0, neighbor=-85.0, distance=1.2))
        d = sys_.decide(obs(serving=-101.0, neighbor=-85.0, distance=1.3, step=1))
        assert d.handover
        # next epoch on the new cell is a warm-up again
        d2 = sys_.decide(obs(serving=-88.0, cell=(2, -1), step=2))
        assert d2.stage == Stage.WARMUP

    def test_serving_cell_change_resets_history(self):
        sys_ = FuzzyHandoverSystem()
        sys_.decide(obs(serving=-95.0))
        d = sys_.decide(obs(serving=-95.0, cell=(2, -1), step=1))
        assert d.stage == Stage.WARMUP

    def test_reset_clears_history(self):
        sys_ = FuzzyHandoverSystem()
        sys_.decide(obs())
        sys_.reset()
        d = sys_.decide(obs(step=1))
        assert d.stage == Stage.WARMUP

    def test_cssp_lag_window(self):
        sys_ = FuzzyHandoverSystem(cssp_lag=3)
        # feed a slow decay; CSSP should difference over 3 epochs
        powers = [-90.0, -91.0, -92.0, -93.0, -94.0]
        last = None
        for k, p in enumerate(powers):
            last = sys_.decide(obs(serving=p, neighbor=-100.0, step=k))
        assert last.inputs is not None
        # history holds lag+1=4 samples: cssp = -94 - (-91) = -3
        assert last.inputs.cssp_db == pytest.approx(-3.0)

    def test_cssp_lag_one_uses_previous_epoch(self):
        sys_ = FuzzyHandoverSystem(cssp_lag=1)
        sys_.decide(obs(serving=-90.0, neighbor=-100.0))
        sys_.decide(obs(serving=-92.0, neighbor=-100.0, step=1))
        d = sys_.decide(obs(serving=-93.0, neighbor=-100.0, step=2))
        assert d.inputs.cssp_db == pytest.approx(-1.0)


class TestConfiguration:
    def test_protocol_conformance(self):
        assert isinstance(FuzzyHandoverSystem(), HandoverPolicy)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"threshold": 0.0},
            {"threshold": 1.0},
            {"potlc_gate_dbw": float("inf")},
            {"cell_radius_km": 0.0},
            {"cssp_lag": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FuzzyHandoverSystem(**kwargs)

    def test_custom_threshold_respected(self):
        eager = FuzzyHandoverSystem(threshold=0.4)
        eager.decide(obs(serving=-95.0, neighbor=-93.0, distance=0.8))
        d = eager.decide(obs(serving=-96.5, neighbor=-93.0, distance=0.85, step=1))
        assert d.handover  # 0.4 threshold fires where 0.7 would not

    def test_decision_outputs_batch_matches_scalar(self):
        sys_ = FuzzyHandoverSystem()
        cssp = np.array([-6.0, 0.0, 3.0])
        ssn = np.array([-85.0, -100.0, -115.0])
        dmb = np.array([1.0, 0.5, 0.2])
        batch = sys_.decision_outputs_batch(cssp, ssn, dmb)
        for k in range(3):
            assert batch[k] == pytest.approx(
                sys_.flc.evaluate(CSSP=cssp[k], SSN=ssn[k], DMB=dmb[k])
            )

    def test_scalar_only_controller_is_refused(self):
        """A controller with only ``evaluate`` is refused at
        construction, naming ``flc``; the pipeline calls nothing but
        ``evaluate_batch(inputs, backend=None)``."""
        real = FuzzyHandoverSystem()

        class Shim:
            def evaluate(self, CSSP, SSN, DMB):
                return real.flc.evaluate(CSSP=CSSP, SSN=SSN, DMB=DMB)

        with pytest.raises(TypeError, match="flc"):
            FuzzyHandoverSystem(flc=Shim())
        with pytest.raises(TypeError, match="flc"):
            FuzzyHandoverSystem(flc=object())

    def test_flc_backend_validation(self):
        with pytest.raises(ValueError, match="flc_backend"):
            FuzzyHandoverSystem(flc_backend="")
        assert "lut" in repr(FuzzyHandoverSystem(flc_backend="lut"))


class BatchOnly:
    """A controller with nothing but the pipeline's one call, the shape
    of ``examples/custom_controller.py``'s shim: it forwards the inputs
    and the backend to the controller it wraps."""

    def __init__(self, inner):
        self.inner = inner

    def evaluate_batch(self, inputs, backend=None):
        return self.inner.evaluate_batch(
            {name: inputs[name] for name in ("CSSP", "SSN", "DMB")},
            backend=backend,
        )


@pytest.mark.parametrize("backend", ["reference", "lut"])
class TestSingleControllerContract:
    """A controller that only has ``evaluate_batch(inputs, backend=None)``
    decides as the controller it wraps, on every backend."""

    def systems(self, backend):
        real = FuzzyHandoverSystem(flc_backend=backend)
        wrapped = FuzzyHandoverSystem(
            flc=BatchOnly(real.flc), flc_backend=backend
        )
        return real, wrapped

    def test_decision_outputs_batch(self, backend):
        real, wrapped = self.systems(backend)
        rng = np.random.default_rng(30)
        cssp = rng.uniform(-10.0, 10.0, 4000)
        ssn = rng.uniform(-120.0, -80.0, 4000)
        dmb = rng.uniform(0.0, 1.5, 4000)
        got = wrapped.decision_outputs_batch(cssp, ssn, dmb)
        want = real.decision_outputs_batch(cssp, ssn, dmb)
        np.testing.assert_array_equal(
            got > real.threshold, want > real.threshold
        )
        if backend == "reference":
            assert got.tobytes() == want.tobytes()

    def test_decide(self, backend):
        real, wrapped = self.systems(backend)
        params = SimulationParameters()
        walk = RandomWalk(n_walks=10)
        n_decided = 0
        for seed in range(6):
            trace = walk.generate_seeded(seed)
            got, _ = run_trace(params, wrapped, trace)
            want, _ = run_trace(params, real, trace)
            assert got.serving_history == want.serving_history
            for a, b in zip(got.decisions, want.decisions, strict=True):
                assert (a.handover, a.stage, a.target) == (
                    b.handover, b.stage, b.target
                )
            n_decided += int(np.isfinite(want.outputs).sum())
            if backend == "reference":
                assert got.outputs.tobytes() == want.outputs.tobytes()
        assert n_decided > 0  # the FLC ran, not only the POTLC gate
