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

Heterogeneous policies follow the population layer's policy-group
scheme: each distinct :class:`~repro.core.system.FuzzyHandoverSystem`
configuration owns one ``EpochState``, and a closed epoch's reports are
partitioned per group — one ``step`` (one ``decision_outputs_batch``
call) per group per epoch.
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
from ..sim.population import _reassemble
from .protocol import Report

__all__ = ["HandoverCommand", "StreamingFleetEngine"]


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
        self.window_km = float(window_km)
        self.outage_dbw = float(outage_dbw)
        self._groups: list[EpochState] = []
        # the default group's accumulator validates window and outage
        self.add_policy(
            system if system is not None else FuzzyHandoverSystem()
        )
        # ue -> (group, row, cohort), in subscription order
        self._ues: dict[int, tuple[int, int, Optional[str]]] = {}
        self.epochs_processed = 0

    # ------------------------------------------------------------------
    @property
    def n_ues(self) -> int:
        return len(self._ues)

    def knows(self, ue: int) -> bool:
        return ue in self._ues

    def add_policy(self, system: FuzzyHandoverSystem) -> int:
        """Register a policy group; returns its group id (0 is the
        default system's group)."""
        self._groups.append(
            EpochState(
                system,
                self.layout,
                window_km=self.window_km,
                outage_dbw=self.outage_dbw,
            )
        )
        return len(self._groups) - 1

    def add_ue(
        self,
        ue: int,
        speed_kmh: float = 0.0,
        group: int = 0,
        cohort: Optional[str] = None,
    ) -> None:
        """Register a UE under a policy group.  Its first processed
        report initialises the serving cell by strongest-BS argmax —
        exactly the offline engine's first-epoch initialisation."""
        ue = int(ue)
        if ue in self._ues:
            raise ValueError(f"UE {ue} is already registered")
        if not (0 <= group < len(self._groups)):
            raise ValueError(
                f"unknown policy group {group} "
                f"(have {len(self._groups)})"
            )
        self._ues[ue] = (group, self._groups[group].add(speed_kmh), cohort)

    # ------------------------------------------------------------------
    def step_epoch(
        self, reports: Sequence[Report], epoch: Optional[int] = None
    ) -> list[HandoverCommand]:
        """Run one batched decision sweep over a closed epoch's reports.

        Each report advances its UE by one local epoch through the full
        POTLC → FLC → PRTLC pipeline and the streaming metric counters.
        UEs without a report this epoch are untouched.  Returns the
        executed handovers, ordered by position in ``reports``.
        """
        service_epoch = self.epochs_processed if epoch is None else int(epoch)
        n_cells = self.layout.n_cells
        by_group: dict[int, tuple[list[int], list[Report], list[int]]] = {}
        seen: set[int] = set()
        for pos, report in enumerate(reports):
            entry = self._ues.get(report.ue)
            if entry is None:
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
            g, row, _ = entry
            rows, reps, positions = by_group.setdefault(g, ([], [], []))
            rows.append(row)
            reps.append(report)
            positions.append(pos)

        cells = self.layout.cells
        ordered: list[tuple[int, HandoverCommand]] = []
        for g, (rows, reps, positions) in by_group.items():
            handed = step(
                self._groups[g],
                np.asarray(rows, dtype=np.intp),
                np.stack([r.power_dbw for r in reps]),
                np.stack([r.position_km for r in reps]),
                np.array([r.distance_km for r in reps]),
            )
            for i, s, t, o, k in zip(*handed):
                ordered.append(
                    (
                        positions[i],
                        HandoverCommand(
                            ue=reps[i].ue,
                            epoch=service_epoch,
                            local_epoch=int(k),
                            source=int(s),
                            target=int(t),
                            source_cell=tuple(cells[s]),
                            target_cell=tuple(cells[t]),
                            output=float(o),
                        ),
                    )
                )
        self.epochs_processed += 1
        ordered.sort(key=lambda item: item[0])
        return [cmd for _, cmd in ordered]

    # ------------------------------------------------------------------
    # crash-recovery snapshots (the supervisor's restore unit)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """A deep snapshot of every policy group's
        :meth:`EpochState.state_dict` and the UE registry.

        Policy-group *systems* are configuration, not state, and stay
        attached to the live engine; :meth:`load_state_dict` restores
        into the same engine instance (same groups and UEs), which is
        exactly the supervisor's restart-from-last-epoch-boundary path.
        """
        return {
            "epochs_processed": self.epochs_processed,
            "ues": dict(self._ues),
            "groups": [group.state_dict() for group in self._groups],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot in place.

        The engine must hold the policy groups and UEs the snapshot was
        taken over (it always does on the supervisor's restart path —
        the supervisor re-snapshots after every registration)."""
        groups = state["groups"]
        if len(groups) != len(self._groups):
            raise ValueError(
                f"snapshot has {len(groups)} policy groups, "
                f"engine has {len(self._groups)}"
            )
        for group, snap in zip(self._groups, groups):
            group.load_state_dict(snap)
        self._ues = dict(state["ues"])
        self.epochs_processed = int(state["epochs_processed"])

    # ------------------------------------------------------------------
    def metrics(self) -> FleetMetrics:
        """The fleet's quality metrics so far, in UE subscription order.

        Non-destructive (the dwell-tail close-out happens on copies), so
        it can be sampled mid-stream; after a full trace replay it is
        byte-identical to ``BatchSimulator.run_metrics`` over the same
        measurements.
        """
        if not self._ues:
            raise ValueError("no UEs registered")
        parts = [group.metrics.per_ue() for group in self._groups]
        if not any(part["epochs"].any() for part in parts):
            raise ValueError("no epochs processed yet")
        dests = [np.empty(group.n, dtype=np.intp) for group in self._groups]
        for pos, (g, row, _) in enumerate(self._ues.values()):
            dests[g][row] = pos
        metrics = _reassemble(
            parts, dests, len(self._ues), self.window_km, self.outage_dbw
        )
        labels = [cohort for _, _, cohort in self._ues.values()]
        if all(label is not None for label in labels):
            names = tuple(sorted(set(labels)))
            ids = np.array(
                [names.index(label) for label in labels], dtype=np.intp
            )
            metrics = metrics.with_cohorts(ids, names)
        return metrics
