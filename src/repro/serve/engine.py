"""The streaming fleet decision engine.

:class:`StreamingFleetEngine` is the online counterpart of
:class:`~repro.sim.batch.BatchSimulator`: instead of sweeping a
materialised measurement series epoch by epoch, it consumes one batch
of per-UE :class:`~repro.serve.protocol.Report` objects per closed
service epoch and advances the reporting UEs through the same kernel
:func:`~repro.sim.kernel.step` on the same
:class:`~repro.sim.kernel.EpochState` — serving cell, CSSP history
window, local epoch, streaming metric counters.  Why that reproduces
the offline engine bit-for-bit, whatever the service epochs a UE's
reports land in, is argued in :mod:`repro.sim.kernel`.

One ``EpochState`` holds every UE, whatever its policy: a UE's
:class:`~repro.sim.population.PolicyConfig` fills its row of the
state's policy columns, so a closed epoch's reports run as one
``step`` (one ``decision_outputs_batch`` call), gathered in one
columnar pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..core.system import FuzzyHandoverSystem
from ..geometry.layout import CellLayout
from ..sim.kernel import EpochState, step
from ..sim.metrics import (
    DEFAULT_OUTAGE_DBW,
    DEFAULT_WINDOW_KM,
    FleetMetrics,
)
from ..sim.population import PolicyConfig
from .protocol import Report

__all__ = ["MAX_CSSP_LAG", "HandoverCommand", "StreamingFleetEngine"]

#: The longest CSSP lag a UE may be registered with, in epochs.  The
#: state keeps every UE's CSSP history as wide as the longest lag so
#: far, so one registration sizes every UE's row and every close's
#: gather; the bound holds a row to 512 bytes.  The paper's lag is 1,
#: and the history restarts at each handover: at the default 50 m
#: spacing, 64 epochs is 3.2 km of travel, more than the widest
#: crossing of a 1 km-radius cell (2 km).
MAX_CSSP_LAG = 64


@dataclass(frozen=True)
class HandoverCommand:
    """One handover decision emitted by the decision loop.

    ``epoch`` is the service epoch the decision was made in;
    ``local_epoch`` the UE's own epoch index (its count of earlier
    reports; equal to ``epoch`` in a lockstep replay); ``source``/
    ``target`` are BS indices in the layout, with the axial cell
    coordinates alongside.
    """

    ue: int
    epoch: int
    local_epoch: int
    source: int
    target: int
    source_cell: tuple[int, int]
    target_cell: tuple[int, int]
    output: float

    def to_payload(self) -> dict:
        """JSON-safe ``commands`` list entry."""
        return {
            "ue": self.ue,
            "epoch": self.epoch,
            "local_epoch": self.local_epoch,
            "source": self.source,
            "target": self.target,
            "source_cell": list(self.source_cell),
            "target_cell": list(self.target_cell),
            "output": self.output,
        }


class StreamingFleetEngine:
    """Per-epoch batched FLC decisions over an online fleet."""

    def __init__(
        self,
        layout: CellLayout,
        system: Optional[FuzzyHandoverSystem] = None,
        *,
        window_km: float = DEFAULT_WINDOW_KM,
        outage_dbw: float = DEFAULT_OUTAGE_DBW,
    ) -> None:
        self.layout = layout
        # the state's accumulator validates window and outage
        self._state = EpochState(
            system if system is not None else FuzzyHandoverSystem(),
            layout,
            window_km=window_km,
            outage_dbw=outage_dbw,
        )
        # ue -> state row; rows follow registration order, and row r's
        # cohort label is _cohorts[r]
        self._rows: dict[int, int] = {}
        self._cohorts: list[Optional[str]] = []
        self.epochs_processed = 0

    # ------------------------------------------------------------------
    @property
    def n_ues(self) -> int:
        return len(self._rows)

    def knows(self, ue: int) -> bool:
        return ue in self._rows

    def add_ue(
        self,
        ue: int,
        speed_kmh: float = 0.0,
        policy: Optional[PolicyConfig] = None,
        cohort: Optional[str] = None,
    ) -> None:
        """Register a UE under ``policy`` (``None``: the engine system's
        own).  Its first processed report initialises the serving cell
        by strongest-BS argmax — exactly the offline engine's
        first-epoch initialisation.

        ``cohort`` is ``None`` or a string label, and ``policy``'s CSSP
        lag at most :data:`MAX_CSSP_LAG`; anything else is refused with
        a :class:`ValueError` naming the field, before anything is
        registered or allocated."""
        ue = int(ue)
        if ue in self._rows:
            raise ValueError(f"UE {ue} is already registered")
        if cohort is not None and not isinstance(cohort, str):
            raise ValueError(
                f"cohort must be a string or None, got {type(cohort).__name__}"
            )
        if policy is not None and policy.cssp_lag > MAX_CSSP_LAG:
            raise ValueError(
                f"cssp_lag must be <= {MAX_CSSP_LAG} epochs, "
                f"got {policy.cssp_lag}"
            )
        self._rows[ue] = self._state.add(speed_kmh, policy)
        self._cohorts.append(cohort)

    # ------------------------------------------------------------------
    def step_epoch(
        self, reports: Sequence[Report], epoch: Optional[int] = None
    ) -> list[HandoverCommand]:
        """Run one batched decision sweep over a closed epoch's reports.

        Each report advances its UE by one local epoch through the full
        POTLC → FLC → PRTLC pipeline and the streaming metric counters.
        UEs without a report this epoch are untouched.  Returns the
        executed handovers, ordered by position in ``reports``.

        The sweep is one columnar pass.  Each report's UE maps to its
        state row through one dict, the batch is checked whole (every
        UE registered, none twice, every power vector as long as the
        layout has cells), and the power and position columns are one
        concatenation each, copied out of the reports, so a report
        whose arrays are views of a wire run's block pins nothing.  A
        batch that fails a check raises the error of its first
        offending report and changes nothing.
        """
        service_epoch = self.epochs_processed if epoch is None else int(epoch)
        commands: list[HandoverCommand] = []
        if reports:
            m, n_cells = len(reports), self.layout.n_cells
            ues = [r.ue for r in reports]
            powers = [r.power_dbw for r in reports]
            rows = list(map(self._rows.get, ues))
            if (
                None in rows
                or len(set(ues)) < m
                or set(map(len, powers)) != {n_cells}
            ):
                self._refuse(reports)
            # the kernel returns handovers in report (stepped-row) order
            handed = step(
                self._state,
                np.array(rows, dtype=np.intp),
                np.concatenate(powers).reshape(m, n_cells),
                np.concatenate([r.position_km for r in reports]).reshape(m, 2),
                np.array([r.distance_km for r in reports]),
            )
            cells = self.layout.cells
            # one tolist() per column: Python ints and floats, not NumPy
            # scalars; fields in HandoverCommand order
            commands = [
                HandoverCommand(
                    ues[i], service_epoch, k, s, t, cells[s], cells[t], o
                )
                for i, s, t, o, k in zip(*(c.tolist() for c in handed))
            ]
        self.epochs_processed += 1
        return commands

    def _refuse(self, reports: Sequence[Report]) -> None:
        """Raise the error of the first report, in batch order, that
        :meth:`step_epoch`'s whole-batch checks refuse."""
        n_cells = self.layout.n_cells
        seen: set[int] = set()
        for report in reports:
            if report.ue not in self._rows:
                raise ValueError(f"report from unregistered UE {report.ue}")
            if report.ue in seen:
                raise ValueError(
                    f"UE {report.ue} has two reports in one epoch batch"
                )
            seen.add(report.ue)
            if report.power_dbw.shape[0] != n_cells:
                raise ValueError(
                    f"UE {report.ue} reported {report.power_dbw.shape[0]} "
                    f"cells, layout has {n_cells}"
                )

    # ------------------------------------------------------------------
    # crash-recovery snapshots (the supervisor's restore unit)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """A deep snapshot of the :meth:`EpochState.state_dict` and the
        UE registry.

        The system and the UEs' policies are configuration, not state,
        and stay with the live engine; :meth:`load_state_dict` restores
        into the same engine instance (same UEs), which is exactly the
        supervisor's restart-from-last-epoch-boundary path.
        """
        return {
            "epochs_processed": self.epochs_processed,
            "rows": dict(self._rows),
            "cohorts": list(self._cohorts),
            "state": self._state.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place.

        The engine must hold the UEs the snapshot was taken over (it
        always does on the supervisor's restart path — the supervisor
        snapshots before every sweep that follows a registration)."""
        self._state.load_state_dict(state["state"])
        self._rows = dict(state["rows"])
        self._cohorts = list(state["cohorts"])
        self.epochs_processed = int(state["epochs_processed"])

    # ------------------------------------------------------------------
    def metrics(self) -> FleetMetrics:
        """The fleet's quality metrics so far, in UE subscription order.

        Non-destructive (the dwell-tail close-out happens on copies), so
        it can be sampled mid-stream; after a full trace replay it is
        byte-identical to ``BatchSimulator.run_metrics`` over the same
        measurements.
        """
        if not self._rows:
            raise ValueError("no UEs registered")
        if not self._state.epochs[: self._state.n].any():
            raise ValueError("no epochs processed yet")
        metrics = self._state.metrics.finalize()
        labels = self._cohorts
        if all(label is not None for label in labels):
            names = tuple(sorted(set(labels)))
            ids = np.array(
                [names.index(label) for label in labels], dtype=np.intp
            )
            metrics = metrics.with_cohorts(ids, names)
        return metrics
