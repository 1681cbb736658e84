"""The vectorised multi-UE batch simulation engine.

:class:`BatchSimulator` advances N UEs in lockstep over a
:class:`~repro.sim.measurement.BatchMeasurementSeries`: per epoch it
runs the kernel's :func:`~repro.sim.kernel.step` over every UE still
walking — the full POTLC → FLC → PRTLC pipeline of
:class:`~repro.core.system.FuzzyHandoverSystem` *across the whole
fleet*, with masked NumPy stage gates, one batched FLC call for every
UE that reaches the controller and vectorised serving-cell bookkeeping.

The per-UE semantics are exactly the scalar
:class:`~repro.sim.engine.Simulator` driving a fresh
``FuzzyHandoverSystem`` under the UE's own policy: same stage sequence,
same FLC outputs (the controller's batch path is elementwise, so subset
evaluation is bit-identical to one-sample evaluation), same tie-breaking
on the target-cell argmax, same CSSP-lag history window.  The
equivalence test suite pins this step-for-step; it is what lets the
fleet path replace N scalar runs wholesale.

Results come back as a :class:`BatchSimulationResult` holding the
fleet's logs as arrays; :meth:`BatchSimulationResult.ue_result`
materialises any single UE as a scalar-compatible
:class:`~repro.sim.engine.SimulationResult` on demand.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union

import numpy as np

from ..core.inputs import HandoverInputs
from ..core.system import Decision, FuzzyHandoverSystem, Stage
from .engine import HandoverEvent, SimulationResult
from .kernel import EpochState, speed_penalties, step
from .metrics import DEFAULT_OUTAGE_DBW, DEFAULT_WINDOW_KM
from .measurement import BatchMeasurementSeries, TiledBatchMeasurement

__all__ = ["BatchSimulator", "BatchSimulationResult"]

#: A measurement source the epoch loop can drive: the fully materialised
#: series, or the epoch-tiled stream (constant-memory large-N path).
MeasurementSource = Union[BatchMeasurementSeries, TiledBatchMeasurement]

Cell = tuple[int, int]

# Stage codes of the (n_ues, n_epochs) stage log; -1 marks padded epochs.
_STAGE_CODES: tuple[str, ...] = (
    Stage.WARMUP,
    Stage.NO_NEIGHBOR,
    Stage.POTLC_PASS,
    Stage.FLC_REJECT,
    Stage.PRTLC_REJECT,
    Stage.HANDOVER,
)
_WARMUP, _NO_NEIGHBOR, _POTLC_PASS, _FLC_REJECT, _PRTLC_REJECT, _HANDOVER = (
    range(6)
)


@dataclass(frozen=True)
class BatchSimulationResult:
    """Fleet-wide simulation log in array form.

    Attributes
    ----------
    series:
        The batch measurement series that was simulated.
    speeds_kmh:
        ``(n_ues,)`` per-UE speed.
    serving_history:
        ``(n_ues, n_epochs)`` serving-BS index per epoch (after that
        epoch's decision); ``-1`` on padded epochs.
    stages:
        ``(n_ues, n_epochs)`` pipeline-stage code per epoch (see
        :data:`Stage`); ``-1`` on padded epochs.
    outputs:
        ``(n_ues, n_epochs)`` FLC output (NaN where the FLC did not run).
    cssp_db, ssn_db, dmb:
        ``(n_ues, n_epochs)`` crisp FLC inputs (NaN where the FLC did
        not run).
    event_ue, event_step, event_source, event_target, event_output:
        Flat, step-ordered arrays of every executed handover across the
        fleet (``event_ue[k]`` names the UE).
    """

    series: BatchMeasurementSeries
    speeds_kmh: np.ndarray
    serving_history: np.ndarray
    stages: np.ndarray
    outputs: np.ndarray
    cssp_db: np.ndarray
    ssn_db: np.ndarray
    dmb: np.ndarray
    event_ue: np.ndarray
    event_step: np.ndarray
    event_source: np.ndarray
    event_target: np.ndarray
    event_output: np.ndarray

    # ------------------------------------------------------------------
    @property
    def n_ues(self) -> int:
        return self.serving_history.shape[0]

    @property
    def lengths(self) -> np.ndarray:
        return self.series.lengths

    @property
    def n_handovers(self) -> int:
        """Total executed handovers across the fleet."""
        return int(self.event_ue.shape[0])

    def handovers_per_ue(self) -> np.ndarray:
        """``(n_ues,)`` executed-handover count per UE."""
        return np.bincount(self.event_ue, minlength=self.n_ues)

    # ------------------------------------------------------------------
    def ue_result(self, i: int) -> SimulationResult:
        """UE ``i``'s log as a scalar-compatible
        :class:`SimulationResult` (decision objects, events, serving
        history — field-for-field what the scalar simulator returns)."""
        if not (0 <= i < self.n_ues):
            raise IndexError(f"UE index {i} out of range [0, {self.n_ues})")
        layout = self.series.layout
        t = int(self.lengths[i])
        mine = self.event_ue == i
        by_step: dict[int, tuple[int, float]] = {
            int(s): (int(tgt), float(out))
            for s, tgt, out in zip(
                self.event_step[mine],
                self.event_target[mine],
                self.event_output[mine],
            )
        }
        decisions: list[Decision] = []
        events: list[HandoverEvent] = []
        for k in range(t):
            code = int(self.stages[i, k])
            if code in (_FLC_REJECT, _PRTLC_REJECT, _HANDOVER):
                output: Optional[float] = float(self.outputs[i, k])
                inputs: Optional[HandoverInputs] = HandoverInputs(
                    cssp_db=float(self.cssp_db[i, k]),
                    ssn_db=float(self.ssn_db[i, k]),
                    dmb=float(self.dmb[i, k]),
                )
            else:
                output = None
                inputs = None
            if code == _HANDOVER:
                target_idx, _ = by_step[k]
                # the first epoch is always warm-up, so a handover can
                # never occur at k == 0
                assert k > 0, "handover at the warm-up epoch"
                source = layout.cells[int(self.serving_history[i, k - 1])]
                target = layout.cells[target_idx]
                decisions.append(
                    Decision(
                        handover=True,
                        target=target,
                        output=output,
                        stage=Stage.HANDOVER,
                        inputs=inputs,
                    )
                )
                events.append(
                    HandoverEvent(
                        step=k,
                        source=source,
                        target=target,
                        position_km=self.series.positions_km[i, k].copy(),
                        distance_km=float(self.series.distance_km[i, k]),
                        output=output,
                        stage=Stage.HANDOVER,
                    )
                )
            else:
                decisions.append(
                    Decision(
                        handover=False,
                        output=output,
                        stage=_STAGE_CODES[code],
                        inputs=inputs,
                    )
                )
        return SimulationResult(
            serving_history=tuple(
                layout.cells[int(c)] for c in self.serving_history[i, :t]
            ),
            decisions=tuple(decisions),
            events=tuple(events),
            outputs=self.outputs[i, :t].copy(),
            series=self.series.ue_series(i),
            speed_kmh=float(self.speeds_kmh[i]),
        )

    def ue_results(self) -> Iterator[SimulationResult]:
        """Every UE's scalar-compatible result, in UE order."""
        for i in range(self.n_ues):
            yield self.ue_result(i)


class _FleetLogRecorder:
    """The full-log observer behind :meth:`BatchSimulator.run`:
    materialises every ``(n_ues, n_epochs)`` array of a
    :class:`BatchSimulationResult`.

    It receives the kernel's per-epoch callbacks alongside the state's
    :class:`~repro.sim.metrics.FleetMetricsAccumulator` (same
    signatures: ``k`` the stepped UEs' local epochs, index arrays state
    rows).  The arrays handed to the callbacks are the step's own
    temporaries: consume them during the call, never retain them.
    """

    def __init__(self, source: BatchMeasurementSeries, speeds: np.ndarray):
        n, t_max = source.n_ues, source.max_epochs
        self._series = source
        self._speeds = speeds
        self._serving_hist = np.full((n, t_max), -1, dtype=np.intp)
        self._stages = np.full((n, t_max), -1, dtype=np.int8)
        self._outputs = np.full((n, t_max), np.nan)
        self._cssp = np.full((n, t_max), np.nan)
        self._ssn = np.full((n, t_max), np.nan)
        self._dmb = np.full((n, t_max), np.nan)
        self._ev_ue: list[np.ndarray] = []
        self._ev_step: list[np.ndarray] = []
        self._ev_src: list[np.ndarray] = []
        self._ev_tgt: list[np.ndarray] = []
        self._ev_out: list[np.ndarray] = []

    def on_stage_masks(
        self,
        k: np.ndarray,
        rows: np.ndarray,
        warm: np.ndarray,
        no_nbr: np.ndarray,
        gated: np.ndarray,
    ) -> None:
        self._stages[rows[warm], k[warm]] = _WARMUP
        self._stages[rows[no_nbr], k[no_nbr]] = _NO_NEIGHBOR
        self._stages[rows[gated], k[gated]] = _POTLC_PASS

    def on_flc(
        self,
        k: np.ndarray,
        ues: np.ndarray,
        cssp: np.ndarray,
        ssn: np.ndarray,
        dmb: np.ndarray,
        out: np.ndarray,
        rej_flc: np.ndarray,
        rej_prtlc: np.ndarray,
    ) -> None:
        self._outputs[ues, k] = out
        self._cssp[ues, k] = cssp
        self._ssn[ues, k] = ssn
        self._dmb[ues, k] = dmb
        self._stages[ues[rej_flc], k[rej_flc]] = _FLC_REJECT
        self._stages[ues[rej_prtlc], k[rej_prtlc]] = _PRTLC_REJECT

    def on_handover(
        self,
        k: np.ndarray,
        ues: np.ndarray,
        sources: np.ndarray,
        targets: np.ndarray,
        outputs: np.ndarray,
        distances: np.ndarray,
    ) -> None:
        self._stages[ues, k] = _HANDOVER
        self._ev_ue.append(ues)
        self._ev_step.append(k)
        self._ev_src.append(sources)
        self._ev_tgt.append(targets)
        self._ev_out.append(outputs)

    def end_epoch(
        self,
        k: np.ndarray,
        rows: np.ndarray,
        serving: np.ndarray,
        power: np.ndarray,
    ) -> None:
        self._serving_hist[rows, k] = serving

    def finalize(self) -> BatchSimulationResult:
        def _cat(parts: list[np.ndarray], dtype) -> np.ndarray:
            if parts:
                return np.concatenate(parts)
            return np.zeros(0, dtype=dtype)

        return BatchSimulationResult(
            series=self._series,
            speeds_kmh=self._speeds,
            serving_history=self._serving_hist,
            stages=self._stages,
            outputs=self._outputs,
            cssp_db=self._cssp,
            ssn_db=self._ssn,
            dmb=self._dmb,
            event_ue=_cat(self._ev_ue, np.intp),
            event_step=_cat(self._ev_step, np.intp),
            event_source=_cat(self._ev_src, np.intp),
            event_target=_cat(self._ev_tgt, np.intp),
            event_output=_cat(self._ev_out, float),
        )


class BatchSimulator:
    """Drives the fuzzy handover pipeline over a whole fleet at once.

    Parameters
    ----------
    system:
        The fuzzy handover system whose configuration (threshold, POTLC
        gate, PRTLC switch, CSSP lag, cell radius) and FLC are applied
        per UE; defaults to the paper configuration.  The system object
        itself is never mutated — all per-UE state lives in the batch.
        (Baselines and measurement-filter wrappers are scalar-only; use
        :class:`~repro.sim.engine.Simulator` for those.)
    speed_kmh:
        MS speed — a scalar for a homogeneous fleet or an ``(n_ues,)``
        array for mixed-speed scenarios.
    initial_cell:
        Serving cell of every UE at its first epoch; defaults to the
        per-UE strongest BS at the starting position.
    policies:
        Optional per-UE :class:`~repro.sim.population.PolicyConfig`
        overrides of the system's threshold, POTLC gate, PRTLC switch
        and CSSP lag (``None`` entries keep the system's).
    """

    def __init__(
        self,
        system: Optional[FuzzyHandoverSystem] = None,
        speed_kmh: Union[float, np.ndarray] = 0.0,
        initial_cell: Optional[Cell] = None,
        policies=None,
    ) -> None:
        self.system = system if system is not None else FuzzyHandoverSystem()
        # the speed penalty is a pure function of the speeds, which are
        # fixed for the simulator's lifetime — derive it once here so
        # repeated run() calls (grid sweeps, shard loops) skip it
        self._penalty = speed_penalties(speed_kmh)
        self._speeds = np.atleast_1d(np.asarray(speed_kmh, dtype=float))
        self.initial_cell = tuple(initial_cell) if initial_cell else None
        self.policies = None if policies is None else tuple(policies)

    # ------------------------------------------------------------------
    def run(self, series: BatchMeasurementSeries) -> BatchSimulationResult:
        """Simulate the whole fleet, one vectorised epoch at a time."""
        if isinstance(series, TiledBatchMeasurement):
            raise TypeError(
                "run() materialises the full fleet log and requires a "
                "BatchMeasurementSeries (MeasurementSampler."
                "measure_batch); drive a tile stream through run_metrics()"
            )
        recorder = _FleetLogRecorder(
            series, self._per_ue(self._speeds, series.n_ues)
        )
        self.drive(series, observer=recorder)
        return recorder.finalize()

    def run_metrics(
        self,
        series: MeasurementSource,
        window_km: Optional[float] = None,
        outage_dbw: Optional[float] = None,
    ):
        """Simulate the fleet and return only its
        :class:`~repro.sim.metrics.FleetMetrics` — streaming per-epoch
        counters, O(n_ues) memory, no ``(n_ues, n_epochs)`` histories.

        Accepts the materialised series or an epoch-tiled
        :class:`~repro.sim.measurement.TiledBatchMeasurement` (the
        constant-memory large-N path); both produce bit-identical
        metrics, equal to ``compute_fleet_metrics(self.run(series))``.
        This is the path shard workers take, so a sharded fleet merges
        to exactly the unsharded metrics.  ``outage_dbw`` sets the
        serving-power sensitivity below which an epoch counts as outage
        (default :data:`~repro.sim.metrics.DEFAULT_OUTAGE_DBW`).
        """
        return self.drive(
            series,
            window_km=DEFAULT_WINDOW_KM if window_km is None else window_km,
            outage_dbw=(
                DEFAULT_OUTAGE_DBW if outage_dbw is None else outage_dbw
            ),
        ).metrics.finalize()

    def _per_ue(self, values: np.ndarray, n: int) -> np.ndarray:
        """A per-UE speed-derived array, broadcast from one speed."""
        if values.shape[0] == 1:
            return np.full(n, values[0])
        if values.shape[0] == n:
            return values
        raise ValueError(f"{n} UEs but {self._speeds.shape[0]} speeds")

    def drive(
        self,
        source: MeasurementSource,
        *,
        window_km: float = DEFAULT_WINDOW_KM,
        outage_dbw: float = DEFAULT_OUTAGE_DBW,
        observer=None,
    ) -> EpochState:
        """The tile loop: one kernel :func:`~repro.sim.kernel.step` per
        epoch over the UEs whose walk is still running (``k <
        lengths``); returns the final :class:`~repro.sim.kernel.
        EpochState`, whose ``metrics`` reduce the run.

        The loop walks the source's measurement tiles (a materialised
        series is one full-width tile), so the per-UE state flows across
        tile boundaries and the streamed path is bit-identical to the
        materialised one.  ``observer`` receives the kernel's callbacks
        alongside the state's accumulator.
        """
        n = source.n_ues
        if source.max_epochs == 0:
            raise ValueError("cannot simulate an empty measurement series")
        layout = source.layout
        state = EpochState(
            self.system,
            layout,
            self._per_ue(self._penalty, n),
            self.policies,
            window_km=window_km,
            outage_dbw=outage_dbw,
        )
        if self.initial_cell is not None:
            state.serving[:] = layout.index_of(self.initial_cell)

        lengths = source.lengths
        for tile in source.tiles():
            for j in range(tile.n_epochs):
                rows = np.flatnonzero(tile.start + j < lengths)
                # every UE active: step on views of the tile, no gather
                sel = slice(None) if rows.shape[0] == n else rows
                step(
                    state,
                    rows,
                    tile.power_dbw[sel, j],
                    tile.positions_km[sel, j],
                    tile.distance_km[sel, j],
                    observer,
                )
        return state

    def __repr__(self) -> str:
        return (
            f"BatchSimulator(system={self.system!r}, "
            f"initial_cell={self.initial_cell})"
        )
