"""Handover quality metrics.

Quantifies what the paper argues qualitatively: the fuzzy system avoids
the *ping-pong effect* (rapid handover back to the cell just left) while
still executing the handovers that are genuinely necessary.

Definitions used here (standard in the handover literature):

* **ping-pong**: a handover whose target equals the source of the
  previous handover, with at most ``window_km`` of *walked distance*
  between them (a distance window is robust to the measurement-epoch
  spacing; a time/epoch window would change meaning whenever the
  sampling rate does).
* **necessary handovers**: the number of *distinct serving-cell changes*
  in the geometric (strongest-BS / containing-cell) assignment — the
  ground truth a clairvoyant algorithm would execute.
* **wrong-cell fraction**: epochs spent camped on a BS that is not the
  geometrically best one (the price of being too reluctant to hand
  over — the metric that punishes "never hand over" as a ping-pong
  'solution').
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

from .engine import HandoverEvent, SimulationResult

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids an import cycle)
    from .batch import BatchSimulationResult

__all__ = [
    "count_ping_pongs",
    "ping_pong_events",
    "necessary_handovers",
    "wrong_cell_fraction",
    "mean_dwell_epochs",
    "HandoverMetrics",
    "compute_metrics",
    "CohortMetrics",
    "FleetMetrics",
    "FleetMetricsAccumulator",
    "compute_fleet_metrics",
    "merge_fleet_metrics",
    "DEFAULT_OUTAGE_DBW",
]

Cell = tuple[int, int]

#: Default ping-pong window, in km of walked distance.  Real boundary
#: oscillation bounces back within a few measurement epochs (tens of
#: metres); a deliberate return trip re-crosses only after a substantial
#: walk inside the neighbour cell.  Half a (1 km) cell radius separates
#: the two regimes cleanly on every workload in this repository.
DEFAULT_WINDOW_KM = 0.5

#: Default outage threshold, dBW — epochs whose *serving* power sits
#: below it count as outage.  Matches the session layer's receiver
#: sensitivity (:data:`repro.sim.session.DEFAULT_SENSITIVITY_DBW`, which
#: imports from this module and therefore cannot be imported here).
DEFAULT_OUTAGE_DBW = -115.0


def ping_pong_events(
    events: Sequence[HandoverEvent], window_km: float = DEFAULT_WINDOW_KM
) -> list[HandoverEvent]:
    """The handovers that bounce straight back (A→B then B→A within
    ``window_km`` of walking).  Returns the *second* event of each
    pair."""
    if window_km <= 0:
        raise ValueError(f"window_km must be positive, got {window_km}")
    out: list[HandoverEvent] = []
    for prev, cur in zip(events, events[1:]):
        if (
            cur.target == prev.source
            and cur.source == prev.target
            and (cur.distance_km - prev.distance_km) <= window_km
        ):
            out.append(cur)
    return out


def count_ping_pongs(
    events: Sequence[HandoverEvent], window_km: float = DEFAULT_WINDOW_KM
) -> int:
    """Number of ping-pong handovers (see :func:`ping_pong_events`)."""
    return len(ping_pong_events(events, window_km))


def necessary_handovers(result: SimulationResult) -> int:
    """Ground-truth handover count: changes of the geometrically
    strongest BS along the walk (ignoring fading noise would require
    the noise-free powers; we use the measured argmax, which equals the
    geometric assignment when fading is disabled)."""
    strongest = result.series.strongest_cell_indices()
    return int(np.count_nonzero(np.diff(strongest) != 0))


def wrong_cell_fraction(result: SimulationResult) -> float:
    """Fraction of epochs camped on a non-optimal BS."""
    layout = result.series.layout
    strongest = result.series.strongest_cell_indices()
    serving_idx = np.array(
        [layout.index_of(c) for c in result.serving_history], dtype=np.intp
    )
    return float(np.mean(serving_idx != strongest))


def mean_dwell_epochs(result: SimulationResult) -> float:
    """Mean number of epochs between consecutive handovers.

    With no handovers the whole trace is one dwell.
    """
    n = result.n_epochs
    if not result.events:
        return float(n)
    steps = [e.step for e in result.events]
    dwells = np.diff([0, *steps, n])
    dwells = dwells[dwells > 0]
    if dwells.size == 0:
        return float(n)
    return float(dwells.mean())


@dataclass(frozen=True)
class HandoverMetrics:
    """Aggregate quality metrics of one simulation run."""

    n_handovers: int
    n_ping_pongs: int
    n_necessary: int
    wrong_cell_fraction: float
    mean_dwell_epochs: float
    mean_output: float
    max_output: float

    @property
    def ping_pong_rate(self) -> float:
        """Ping-pongs per executed handover (0 if no handovers)."""
        if self.n_handovers == 0:
            return 0.0
        return self.n_ping_pongs / self.n_handovers

    @property
    def excess_handovers(self) -> int:
        """Handovers beyond the geometric necessity (can be negative if
        the policy under-serves)."""
        return self.n_handovers - self.n_necessary

    def as_dict(self) -> dict[str, float]:
        return {
            "n_handovers": self.n_handovers,
            "n_ping_pongs": self.n_ping_pongs,
            "n_necessary": self.n_necessary,
            "ping_pong_rate": self.ping_pong_rate,
            "wrong_cell_fraction": self.wrong_cell_fraction,
            "mean_dwell_epochs": self.mean_dwell_epochs,
            "mean_output": self.mean_output,
            "max_output": self.max_output,
        }


def compute_metrics(
    result: SimulationResult, window_km: float = DEFAULT_WINDOW_KM
) -> HandoverMetrics:
    """All quality metrics of one run."""
    finite = result.outputs[np.isfinite(result.outputs)]
    return HandoverMetrics(
        n_handovers=result.n_handovers,
        n_ping_pongs=count_ping_pongs(result.events, window_km),
        n_necessary=necessary_handovers(result),
        wrong_cell_fraction=wrong_cell_fraction(result),
        mean_dwell_epochs=mean_dwell_epochs(result),
        mean_output=float(finite.mean()) if finite.size else float("nan"),
        max_output=float(finite.max()) if finite.size else float("nan"),
    )


# ----------------------------------------------------------------------
# fleet-level metrics (batch simulation engine)
# ----------------------------------------------------------------------
#: :meth:`FleetMetrics.from_per_ue` argument -> the attribute holding it
_PER_UE = {
    "epochs": "epochs_per_ue",
    "handovers": "handovers_per_ue",
    "ping_pongs": "ping_pongs_per_ue",
    "necessary": "necessary_per_ue",
    "wrong_epochs": "wrong_epochs_per_ue",
    "outage_epochs": "outage_epochs_per_ue",
    "dwell_epochs": "dwell_epochs_per_ue",
    "dwell_counts": "dwell_count_per_ue",
    "output_sums": "output_sum_per_ue",
    "output_counts": "output_count_per_ue",
    "output_maxes": "output_max_per_ue",
}


@dataclass(frozen=True)
class FleetMetrics:
    """Aggregate quality metrics of one fleet simulation.

    The scalar definitions apply per UE (a ping-pong is a bounce within
    one UE's event stream, never across UEs); the fleet numbers are the
    per-UE counts summed, with :attr:`wrong_cell_fraction` weighted by
    epochs so every measurement counts once regardless of which UE it
    belongs to.

    A ``FleetMetrics`` is *mergeable*: every aggregate derives from the
    per-UE reduction arrays it carries, so disjoint shards of one fleet
    combine via :func:`merge_fleet_metrics` into exactly the metrics the
    unsharded fleet would produce.  The float aggregates are defined so
    the merge is associative bit-for-bit: integer numerators where possible
    (wrong-cell, dwell), an exact ``math.fsum`` over per-UE output sums,
    and a max-of-maxes.  Build instances through :meth:`from_per_ue`.
    """

    n_ues: int
    n_epochs_total: int
    n_handovers: int
    n_ping_pongs: int
    n_necessary: int
    wrong_cell_fraction: float
    outage_fraction: float
    mean_dwell_epochs: float
    mean_output: float
    max_output: float
    #: the ping-pong window / outage threshold these metrics were
    #: computed with; recorded so :func:`merge_fleet_metrics` can refuse
    #: to mix definitions
    window_km: float
    outage_dbw: float
    # compare=False: ndarray equality is elementwise and would make the
    # dataclass __eq__ raise; the scalar fields above already determine
    # equality of the aggregates
    handovers_per_ue: np.ndarray = field(repr=False, compare=False)
    ping_pongs_per_ue: np.ndarray = field(repr=False, compare=False)
    necessary_per_ue: np.ndarray = field(repr=False, compare=False)
    # per-UE reductions that make the aggregates re-derivable (and the
    # merge exact): epoch counts, wrong-BS epoch counts, outage epoch
    # counts, dwell segment sums/counts, FLC-output sums/counts/maxima
    epochs_per_ue: np.ndarray = field(repr=False, compare=False)
    wrong_epochs_per_ue: np.ndarray = field(repr=False, compare=False)
    outage_epochs_per_ue: np.ndarray = field(repr=False, compare=False)
    dwell_epochs_per_ue: np.ndarray = field(repr=False, compare=False)
    dwell_count_per_ue: np.ndarray = field(repr=False, compare=False)
    output_sum_per_ue: np.ndarray = field(repr=False, compare=False)
    output_count_per_ue: np.ndarray = field(repr=False, compare=False)
    output_max_per_ue: np.ndarray = field(repr=False, compare=False)
    # optional cohort labelling (population layer): names in expansion
    # order plus one id per UE.  compare=False — labels are metadata,
    # equality means "same physics"
    cohort_names: Optional[tuple[str, ...]] = field(
        default=None, compare=False
    )
    cohort_ids_per_ue: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    @classmethod
    def from_per_ue(
        cls,
        *,
        window_km: float,
        epochs: np.ndarray,
        handovers: np.ndarray,
        ping_pongs: np.ndarray,
        necessary: np.ndarray,
        wrong_epochs: np.ndarray,
        dwell_epochs: np.ndarray,
        dwell_counts: np.ndarray,
        output_sums: np.ndarray,
        output_counts: np.ndarray,
        output_maxes: np.ndarray,
        outage_epochs: Optional[np.ndarray] = None,
        outage_dbw: float = DEFAULT_OUTAGE_DBW,
    ) -> "FleetMetrics":
        """Derive every aggregate from per-UE reductions.

        This is the single construction path; because each aggregate is
        a deterministic function of the per-UE arrays (integer sums, one
        exact ``fsum``, one max), any partition of the arrays merges
        back to identical aggregates.
        """
        epochs = np.asarray(epochs, dtype=np.intp)
        n = epochs.shape[0]
        if n == 0:
            raise ValueError("FleetMetrics needs at least one UE")
        if outage_epochs is None:
            outage_epochs = np.zeros(n, dtype=np.intp)
        n_epochs_total = int(epochs.sum())
        dwell_count = int(np.asarray(dwell_counts).sum())
        n_outputs = int(np.asarray(output_counts).sum())
        evaluated = np.asarray(output_counts) > 0
        return cls(
            n_ues=n,
            n_epochs_total=n_epochs_total,
            n_handovers=int(np.asarray(handovers).sum()),
            n_ping_pongs=int(np.asarray(ping_pongs).sum()),
            n_necessary=int(np.asarray(necessary).sum()),
            wrong_cell_fraction=int(np.asarray(wrong_epochs).sum())
            / n_epochs_total,
            outage_fraction=int(np.asarray(outage_epochs).sum())
            / n_epochs_total,
            mean_dwell_epochs=(
                int(np.asarray(dwell_epochs).sum()) / dwell_count
                if dwell_count
                else float("nan")
            ),
            mean_output=(
                math.fsum(np.asarray(output_sums)[evaluated]) / n_outputs
                if n_outputs
                else float("nan")
            ),
            max_output=(
                float(np.asarray(output_maxes)[evaluated].max())
                if n_outputs
                else float("nan")
            ),
            window_km=float(window_km),
            outage_dbw=float(outage_dbw),
            handovers_per_ue=np.asarray(handovers),
            ping_pongs_per_ue=np.asarray(ping_pongs),
            necessary_per_ue=np.asarray(necessary),
            epochs_per_ue=epochs,
            wrong_epochs_per_ue=np.asarray(wrong_epochs),
            outage_epochs_per_ue=np.asarray(outage_epochs, dtype=np.intp),
            dwell_epochs_per_ue=np.asarray(dwell_epochs),
            dwell_count_per_ue=np.asarray(dwell_counts),
            output_sum_per_ue=np.asarray(output_sums, dtype=float),
            output_count_per_ue=np.asarray(output_counts),
            output_max_per_ue=np.asarray(output_maxes, dtype=float),
        )

    def per_ue(self) -> dict[str, np.ndarray]:
        """The per-UE reduction arrays, keyed as :meth:`from_per_ue`
        takes them."""
        return {key: getattr(self, attr) for key, attr in _PER_UE.items()}

    # -- JSON schema ---------------------------------------------------
    def to_payload(self) -> dict:
        """JSON-safe dict form: the :meth:`per_ue` arrays as lists, the
        ping-pong window, the outage threshold and the cohort labels.

        JSON writes floats by ``repr`` (and ``-inf``, the maximum of a UE
        that never reached the FLC, as ``-Infinity``), so
        :meth:`from_payload` rebuilds exactly these metrics.
        """
        return {
            "per_ue": {key: a.tolist() for key, a in self.per_ue().items()},
            "window_km": self.window_km,
            "outage_dbw": self.outage_dbw,
            "cohort_names": self.cohort_names,
            "cohort_ids": (
                None
                if self.cohort_ids_per_ue is None
                else self.cohort_ids_per_ue.tolist()
            ),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "FleetMetrics":
        """Rebuild the metrics of :meth:`to_payload`."""
        metrics = cls.from_per_ue(
            window_km=payload["window_km"],
            outage_dbw=payload["outage_dbw"],
            **{key: np.asarray(payload["per_ue"][key]) for key in _PER_UE},
        )
        if payload["cohort_names"] is None:
            return metrics
        return metrics.with_cohorts(
            payload["cohort_ids"], payload["cohort_names"]
        )

    @property
    def ping_pong_rate(self) -> float:
        """Fleet ping-pongs per executed handover (0 if none)."""
        if self.n_handovers == 0:
            return 0.0
        return self.n_ping_pongs / self.n_handovers

    @property
    def excess_handovers(self) -> int:
        """Fleet handovers beyond the geometric necessity."""
        return self.n_handovers - self.n_necessary

    @property
    def mean_handovers_per_ue(self) -> float:
        return self.n_handovers / self.n_ues

    def as_dict(self) -> dict[str, float]:
        return {
            "n_ues": float(self.n_ues),
            "n_epochs_total": float(self.n_epochs_total),
            "n_handovers": float(self.n_handovers),
            "n_ping_pongs": float(self.n_ping_pongs),
            "n_necessary": float(self.n_necessary),
            "ping_pong_rate": self.ping_pong_rate,
            "wrong_cell_fraction": self.wrong_cell_fraction,
            "outage_fraction": self.outage_fraction,
            "mean_dwell_epochs": self.mean_dwell_epochs,
            "mean_handovers_per_ue": self.mean_handovers_per_ue,
            "mean_output": self.mean_output,
            "max_output": self.max_output,
        }

    # ------------------------------------------------------------------
    # cohort slicing (population layer)
    # ------------------------------------------------------------------
    def with_cohorts(
        self, cohort_ids: np.ndarray, cohort_names: Sequence[str]
    ) -> "FleetMetrics":
        """A copy labelled with per-UE cohort membership.

        ``cohort_ids[i]`` indexes ``cohort_names`` for UE ``i``; the
        labels ride along through :func:`merge_fleet_metrics` (all parts
        must agree on the name space) without touching any aggregate.
        """
        ids = np.asarray(cohort_ids, dtype=np.intp)
        names = tuple(cohort_names)
        if ids.shape != (self.n_ues,):
            raise ValueError(
                f"cohort_ids must be ({self.n_ues},), got {ids.shape}"
            )
        if ids.size and not (0 <= ids.min() and ids.max() < len(names)):
            raise ValueError(
                f"cohort ids must index {len(names)} names, "
                f"got range [{ids.min()}, {ids.max()}]"
            )
        return replace(self, cohort_names=names, cohort_ids_per_ue=ids)

    def per_cohort(self) -> tuple["CohortMetrics", ...]:
        """Per-cohort aggregates, one entry per :attr:`cohort_names`
        name (in that order), derived from the per-UE reductions.

        Requires cohort labels (see :meth:`with_cohorts`); populations
        attach them automatically.
        """
        if self.cohort_names is None or self.cohort_ids_per_ue is None:
            raise ValueError(
                "metrics carry no cohort labels; run through the "
                "population layer or call with_cohorts() first"
            )
        out = []
        for cid, name in enumerate(self.cohort_names):
            mask = self.cohort_ids_per_ue == cid
            epochs = int(self.epochs_per_ue[mask].sum())
            out.append(
                CohortMetrics(
                    name=name,
                    n_ues=int(mask.sum()),
                    n_epochs_total=epochs,
                    n_handovers=int(self.handovers_per_ue[mask].sum()),
                    n_ping_pongs=int(self.ping_pongs_per_ue[mask].sum()),
                    n_necessary=int(self.necessary_per_ue[mask].sum()),
                    wrong_cell_fraction=(
                        int(self.wrong_epochs_per_ue[mask].sum()) / epochs
                        if epochs
                        else float("nan")
                    ),
                    outage_fraction=(
                        int(self.outage_epochs_per_ue[mask].sum()) / epochs
                        if epochs
                        else float("nan")
                    ),
                )
            )
        return tuple(out)


@dataclass(frozen=True)
class CohortMetrics:
    """One cohort's slice of a fleet's quality metrics (the per-cohort
    QoS frontier: signalling load vs ping-pong vs outage)."""

    name: str
    n_ues: int
    n_epochs_total: int
    n_handovers: int
    n_ping_pongs: int
    n_necessary: int
    wrong_cell_fraction: float
    outage_fraction: float

    @property
    def ping_pong_rate(self) -> float:
        """Cohort ping-pongs per executed handover (0 if none)."""
        if self.n_handovers == 0:
            return 0.0
        return self.n_ping_pongs / self.n_handovers

    @property
    def mean_handovers_per_ue(self) -> float:
        if self.n_ues == 0:
            return float("nan")
        return self.n_handovers / self.n_ues

    def as_dict(self) -> dict[str, float]:
        return {
            "n_ues": float(self.n_ues),
            "n_epochs_total": float(self.n_epochs_total),
            "n_handovers": float(self.n_handovers),
            "n_ping_pongs": float(self.n_ping_pongs),
            "n_necessary": float(self.n_necessary),
            "ping_pong_rate": self.ping_pong_rate,
            "mean_handovers_per_ue": self.mean_handovers_per_ue,
            "wrong_cell_fraction": self.wrong_cell_fraction,
            "outage_fraction": self.outage_fraction,
        }

    def describe(self, name_width: int = 0) -> str:
        """One QoS-frontier row (the shared format of the CLI cohort
        breakdown, the X15 bench and the examples)."""
        return (
            f"{self.name:<{name_width}}  {self.n_ues:5d} UEs  "
            f"{self.mean_handovers_per_ue:5.2f} HO/UE  "
            f"ping-pong {self.ping_pong_rate:.3f}  "
            f"outage {self.outage_fraction:.4f}  "
            f"wrong-BS {self.wrong_cell_fraction:.4f}"
        )


def merge_fleet_metrics(parts: Iterable[FleetMetrics]) -> FleetMetrics:
    """Fold shard metrics into one fleet, in shard (UE) order.

    All parts must share one ping-pong window — mixing windows would
    merge counts with two different definitions.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("no fleet metrics to merge")
    windows = {p.window_km for p in parts}
    if len(windows) > 1:
        raise ValueError(
            f"cannot merge fleet metrics computed with different "
            f"ping-pong windows: {sorted(windows)}"
        )
    thresholds = {p.outage_dbw for p in parts}
    if len(thresholds) > 1:
        raise ValueError(
            f"cannot merge fleet metrics computed with different "
            f"outage thresholds: {sorted(thresholds)}"
        )
    labelled = [p.cohort_names is not None for p in parts]
    if any(labelled) and not all(labelled):
        raise ValueError(
            "cannot merge cohort-labelled metrics with unlabelled ones"
        )
    if all(labelled):
        name_spaces = {p.cohort_names for p in parts}
        if len(name_spaces) > 1:
            raise ValueError(
                f"cannot merge metrics over different cohort name "
                f"spaces: {sorted(name_spaces)}"
            )
    if len(parts) == 1:
        return parts[0]

    fields = [p.per_ue() for p in parts]
    merged = FleetMetrics.from_per_ue(
        window_km=parts[0].window_km,
        outage_dbw=parts[0].outage_dbw,
        **{key: np.concatenate([f[key] for f in fields]) for key in _PER_UE},
    )
    if all(labelled):
        merged = merged.with_cohorts(
            np.concatenate([p.cohort_ids_per_ue for p in parts]),
            parts[0].cohort_names,
        )
    return merged


class FleetMetricsAccumulator:
    """Incremental fleet metrics — per-epoch counters, O(n_ues) memory.

    The metrics half of :class:`~repro.sim.kernel.EpochState`: the
    kernel's :func:`~repro.sim.kernel.step` feeds it every epoch's
    stage/FLC/handover slices through the callbacks below, and it folds
    them into the state's per-UE counter arrays, so long simulations
    never materialise full histories.  ``k`` is always the stepped UEs'
    local epochs and every index array addresses state rows.
    :meth:`finalize` returns a :class:`FleetMetrics` bit-identical to
    the post-hoc :func:`compute_fleet_metrics` over the full log (the
    per-UE float accumulation happens in the same epoch order).
    """

    def __init__(
        self,
        window_km: float = DEFAULT_WINDOW_KM,
        outage_dbw: float = DEFAULT_OUTAGE_DBW,
    ) -> None:
        if window_km <= 0:
            raise ValueError(f"window_km must be positive, got {window_km}")
        if not math.isfinite(outage_dbw):
            raise ValueError(f"outage_dbw must be finite, got {outage_dbw}")
        self.window_km = float(window_km)
        self.outage_dbw = float(outage_dbw)

    # -- the kernel's callbacks ---------------------------------------
    def begin(self, state) -> None:
        """Bind to the :class:`~repro.sim.kernel.EpochState` whose
        counter arrays the callbacks update (read through the state on
        every call, so the state may grow)."""
        self._state = state

    def on_stage_masks(
        self,
        k: np.ndarray,
        rows: np.ndarray,
        warm: np.ndarray,
        no_nbr: np.ndarray,
        gated: np.ndarray,
    ) -> None:
        pass  # stage occupancy is not part of the fleet aggregates

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
        s = self._state
        finite = np.isfinite(out)
        s.output_sums[ues] += np.where(finite, out, 0.0)
        s.output_counts[ues] += finite
        s.output_maxes[ues] = np.maximum(
            s.output_maxes[ues], np.where(finite, out, -np.inf)
        )

    def on_handover(
        self,
        k: np.ndarray,
        ues: np.ndarray,
        sources: np.ndarray,
        targets: np.ndarray,
        outputs: np.ndarray,
        distances: np.ndarray,
    ) -> None:
        s = self._state
        s.handovers[ues] += 1
        # a bounce straight back: A->B then B->A within the window
        # (prev_tgt == -1 rows can never match a real source index)
        bounce = (
            (s.prev_tgt[ues] == sources)
            & (s.prev_src[ues] == targets)
            & (distances - s.prev_dist[ues] <= self.window_km)
        )
        s.ping_pongs[ues] += bounce
        s.prev_src[ues] = sources
        s.prev_tgt[ues] = targets
        s.prev_dist[ues] = distances
        gap = k - s.last_event[ues]
        positive = gap > 0
        s.dwell_sum[ues] += np.where(positive, gap, 0)
        s.dwell_count[ues] += positive
        s.last_event[ues] = k

    def end_epoch(
        self,
        k: np.ndarray,
        rows: np.ndarray,
        serving: np.ndarray,
        power: np.ndarray,
    ) -> None:
        # on the post-handover serving assignment
        s = self._state
        strongest = power.argmax(axis=1)
        s.wrong_epochs[rows] += serving != strongest
        s.outage_epochs[rows] += (
            power[np.arange(rows.shape[0]), serving] < self.outage_dbw
        )
        prev = s.prev_strongest[rows]
        s.necessary[rows] += (strongest != prev) & (prev >= 0)
        s.prev_strongest[rows] = strongest

    def finalize(self) -> FleetMetrics:
        return FleetMetrics.from_per_ue(
            window_km=self.window_km,
            outage_dbw=self.outage_dbw,
            **self.per_ue(),
        )

    # ------------------------------------------------------------------
    def per_ue(self) -> dict[str, np.ndarray]:
        """The :meth:`FleetMetrics.from_per_ue` arrays so far, each UE's
        open dwell segment closed on copies — non-destructive, so the
        serve engine can sample it mid-stream."""
        s = self._state
        n = s.n
        # the state's counters carry from_per_ue's names, except dwell
        fields = {
            key: getattr(s, key)[:n].copy()
            for key in _PER_UE
            if not key.startswith("dwell")
        }
        tail = fields["epochs"] - s.last_event[:n]
        has_tail = tail > 0
        fields["dwell_epochs"] = s.dwell_sum[:n] + np.where(has_tail, tail, 0)
        fields["dwell_counts"] = s.dwell_count[:n] + has_tail
        return fields


def compute_fleet_metrics(
    result: "BatchSimulationResult",
    window_km: float = DEFAULT_WINDOW_KM,
    outage_dbw: float = DEFAULT_OUTAGE_DBW,
) -> FleetMetrics:
    """All quality metrics of one fleet run, computed from the batch
    arrays (no per-UE materialisation).

    Per UE the numbers equal :func:`compute_metrics` over
    :meth:`~repro.sim.batch.BatchSimulationResult.ue_result` — the
    equivalence tests pin this.  The result is bit-identical to the
    streaming :class:`FleetMetricsAccumulator` over the same run, and
    any contiguous sharding of the fleet merges back to it exactly (see
    :func:`merge_fleet_metrics`).
    """
    if window_km <= 0:
        raise ValueError(f"window_km must be positive, got {window_km}")
    n = result.n_ues
    lengths = result.lengths
    t_max = result.serving_history.shape[1]
    epoch_valid = np.arange(t_max)[None, :] < lengths[:, None]

    # per-UE event streams: the flat arrays are epoch-major, so a stable
    # sort by UE keeps each UE's events step-ordered
    order = np.argsort(result.event_ue, kind="stable")
    ue = result.event_ue[order]
    step = result.event_step[order]
    src = result.event_source[order]
    tgt = result.event_target[order]
    handovers_per_ue = np.bincount(ue, minlength=n)

    # ping-pongs: consecutive A->B, B->A pairs of the same UE within the
    # walked-distance window (pairs never straddle UEs)
    if ue.shape[0] >= 2:
        dist = result.series.distance_km[ue, step]
        pair = (
            (ue[1:] == ue[:-1])
            & (tgt[1:] == src[:-1])
            & (src[1:] == tgt[:-1])
            & ((dist[1:] - dist[:-1]) <= window_km)
        )
        ping_pongs_per_ue = np.bincount(ue[1:][pair], minlength=n)
    else:
        ping_pongs_per_ue = np.zeros(n, dtype=np.intp)

    # necessary handovers: strongest-BS changes within each UE's valid
    # epochs
    strongest = result.series.strongest_cell_indices()
    changes = strongest[:, 1:] != strongest[:, :-1]
    necessary_per_ue = (changes & epoch_valid[:, 1:]).sum(axis=1)

    # wrong-cell epochs per UE (the fleet fraction is epoch-weighted)
    wrong = (result.serving_history != strongest) & epoch_valid
    wrong_epochs_per_ue = wrong.sum(axis=1)

    # outage epochs per UE: serving power below the sensitivity (padded
    # epochs carry serving == -1; clamp the gather, then mask them out)
    p_serv = np.take_along_axis(
        result.series.power_dbw,
        np.maximum(result.serving_history, 0)[:, :, None],
        axis=2,
    )[:, :, 0]
    outage_epochs_per_ue = ((p_serv < outage_dbw) & epoch_valid).sum(axis=1)

    # dwell segments: every gap between consecutive events of one UE,
    # plus the head segment [0, first event) and the tail (last, t_i]
    bounds = np.searchsorted(ue, np.arange(n + 1))
    dwell_epochs_per_ue = np.zeros(n, dtype=np.intp)
    dwell_count_per_ue = np.zeros(n, dtype=np.intp)
    for i in range(n):
        steps_i = step[bounds[i] : bounds[i + 1]]
        dwells = np.diff([0, *steps_i, int(lengths[i])])
        dwells = dwells[dwells > 0]
        if dwells.size == 0:
            dwell_epochs_per_ue[i] = int(lengths[i])
            dwell_count_per_ue[i] = 1
        else:
            dwell_epochs_per_ue[i] = int(dwells.sum())
            dwell_count_per_ue[i] = int(dwells.size)

    # FLC-output reductions per UE; cumsum accumulates each row in epoch
    # order, the same float-addition sequence the streaming accumulator
    # performs, so the two paths agree bit-for-bit
    finite = np.isfinite(result.outputs)
    masked = np.where(finite, result.outputs, 0.0)
    output_sum_per_ue = masked.cumsum(axis=1)[:, -1]
    output_count_per_ue = finite.sum(axis=1)
    output_max_per_ue = np.where(finite, result.outputs, -np.inf).max(axis=1)

    return FleetMetrics.from_per_ue(
        window_km=window_km,
        outage_dbw=outage_dbw,
        epochs=lengths,
        handovers=handovers_per_ue,
        ping_pongs=ping_pongs_per_ue,
        necessary=necessary_per_ue,
        wrong_epochs=wrong_epochs_per_ue,
        outage_epochs=outage_epochs_per_ue,
        dwell_epochs=dwell_epochs_per_ue,
        dwell_counts=dwell_count_per_ue,
        output_sums=output_sum_per_ue,
        output_counts=output_count_per_ue,
        output_maxes=output_max_per_ue,
    )
