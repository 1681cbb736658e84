"""Recorded fleet traces — the batch ↔ stream bridge.

A :class:`FleetTrace` freezes everything a ``BatchSimulator`` run
consumes (per-UE positions, walked distances, power cube, lengths,
speeds, physics parameters, and — for heterogeneous populations — the
per-UE policy and cohort labels) into one picklable artefact.  The
streaming service (:mod:`repro.serve`) replays a trace as per-UE
measurement reports; :func:`offline_reference_metrics` runs the same
trace through the offline batch engine.  The two paths are
byte-identical by construction (every per-UE quantity — serving cell,
CSSP history, metric counters — depends only on that UE's own report
sequence and policy), and the ``serve`` test suite pins it.

Traces are recorded from a :class:`~repro.sim.fleet.FleetSpec` or a
:class:`~repro.sim.population.PopulationSpec` via :meth:`FleetTrace.
record` (the measurement pass is exactly ``PopulationSpec.measure()``, so a
recorded trace equals the arrays an offline run would see, and carries
the population's cohort labels — ``("default",)`` for a homogeneous
fleet), or wrapped around an existing
:class:`~repro.sim.measurement.BatchMeasurementSeries` via
:meth:`FleetTrace.from_series`.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .config import SimulationParameters
from .measurement import BatchMeasurementSeries
from .metrics import DEFAULT_OUTAGE_DBW, DEFAULT_WINDOW_KM, FleetMetrics
from .batch import BatchSimulator
from .population import PolicyConfig, PopulationSpec, policy_system

__all__ = [
    "FleetTrace",
    "record_fleet_trace",
    "offline_reference_metrics",
    "TRACE_FORMAT",
    "TRACE_VERSION",
]

#: Pickle-envelope markers so a stale or foreign file fails loudly.
TRACE_FORMAT = "repro-fleet-trace"
TRACE_VERSION = 1


@dataclass(frozen=True)
class FleetTrace:
    """A frozen fleet measurement run, replayable as a report stream.

    Attributes
    ----------
    positions_km / distance_km / power_dbw / lengths:
        The padded lockstep arrays of a
        :class:`~repro.sim.measurement.BatchMeasurementSeries` (UE ``i``
        is valid for epochs ``[0, lengths[i])``).
    speeds_kmh:
        ``(n_ues,)`` per-UE speed (the FLC's SSN penalty input).
    params:
        The physics the arrays were measured under; :meth:`series`
        rebuilds the layout from it.
    policies:
        Optional per-UE :class:`~repro.sim.population.PolicyConfig`
        (``None`` entries mean the paper default) — present when the
        trace was recorded from a population with per-cohort policies.
    cohort_names / cohort_ids:
        Optional cohort labelling in the population layer's sorted-name
        id space; rides into the replayed metrics via
        :meth:`FleetMetrics.with_cohorts`.
    """

    positions_km: np.ndarray
    distance_km: np.ndarray
    power_dbw: np.ndarray
    lengths: np.ndarray
    speeds_kmh: np.ndarray
    params: SimulationParameters = field(default_factory=SimulationParameters)
    policies: Optional[tuple[Optional[PolicyConfig], ...]] = None
    cohort_names: Optional[tuple[str, ...]] = None
    cohort_ids: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        n, t = self.positions_km.shape[:2]
        if self.positions_km.shape != (n, t, 2):
            raise ValueError(
                f"positions_km must be (n, t, 2), "
                f"got {self.positions_km.shape}"
            )
        if self.distance_km.shape != (n, t):
            raise ValueError(
                f"distance_km must be ({n}, {t}), "
                f"got {self.distance_km.shape}"
            )
        if self.power_dbw.ndim != 3 or self.power_dbw.shape[:2] != (n, t):
            raise ValueError(
                f"power_dbw must be ({n}, {t}, n_cells), "
                f"got {self.power_dbw.shape}"
            )
        if self.lengths.shape != (n,):
            raise ValueError(f"lengths must be ({n},), got {self.lengths.shape}")
        if self.speeds_kmh.shape != (n,):
            raise ValueError(
                f"speeds_kmh must be ({n},), got {self.speeds_kmh.shape}"
            )
        if self.policies is not None and len(self.policies) != n:
            raise ValueError(
                f"policies must have {n} entries, got {len(self.policies)}"
            )
        labelled = (self.cohort_names is None, self.cohort_ids is None)
        if labelled[0] != labelled[1]:
            raise ValueError(
                "cohort_names and cohort_ids must be given together"
            )
        if self.cohort_ids is not None and self.cohort_ids.shape != (n,):
            raise ValueError(
                f"cohort_ids must be ({n},), got {self.cohort_ids.shape}"
            )

    # ------------------------------------------------------------------
    @property
    def n_ues(self) -> int:
        return self.positions_km.shape[0]

    @property
    def max_epochs(self) -> int:
        return self.positions_km.shape[1]

    @property
    def n_cells(self) -> int:
        return self.power_dbw.shape[2]

    def series(self) -> BatchMeasurementSeries:
        """The trace as a batch measurement series (layout rebuilt from
        :attr:`params`) — the offline engine's input."""
        return BatchMeasurementSeries(
            positions_km=self.positions_km,
            distance_km=self.distance_km,
            power_dbw=self.power_dbw,
            lengths=self.lengths,
            layout=self.params.make_layout(),
        )

    def ue_policy(self, i: int) -> Optional[PolicyConfig]:
        """UE ``i``'s policy override (``None`` = paper default)."""
        if self.policies is None:
            return None
        return self.policies[i]

    def ue_cohort(self, i: int) -> Optional[str]:
        """UE ``i``'s cohort label, when the trace carries one."""
        if self.cohort_names is None or self.cohort_ids is None:
            return None
        return self.cohort_names[int(self.cohort_ids[i])]

    # ------------------------------------------------------------------
    @classmethod
    def from_series(
        cls,
        series: BatchMeasurementSeries,
        speeds_kmh: np.ndarray,
        params: SimulationParameters,
        *,
        policies: Optional[tuple[Optional[PolicyConfig], ...]] = None,
        cohort_names: Optional[tuple[str, ...]] = None,
        cohort_ids: Optional[np.ndarray] = None,
    ) -> "FleetTrace":
        """Wrap an already-measured batch series as a replayable trace
        (the export hook for any ``BatchSimulator`` input)."""
        speeds = np.atleast_1d(np.asarray(speeds_kmh, dtype=float))
        if speeds.shape[0] == 1:
            speeds = np.full(series.n_ues, speeds[0])
        return cls(
            positions_km=series.positions_km,
            distance_km=series.distance_km,
            power_dbw=series.power_dbw,
            lengths=series.lengths,
            speeds_kmh=speeds,
            params=params,
            policies=policies,
            cohort_names=cohort_names,
            cohort_ids=cohort_ids,
        )

    @classmethod
    def record(cls, spec) -> "FleetTrace":
        """Measure a fleet/population spec and freeze the result.

        Accepts a :class:`~repro.sim.fleet.FleetSpec` or a
        :class:`~repro.sim.population.PopulationSpec`.  The measurement
        pass is :meth:`PopulationSpec.measure
        <repro.sim.population.PopulationSpec.measure>`, the one every
        fleet shard runs, so the recorded arrays are byte-identical to
        what an offline ``run_fleet`` over the same spec consumes.
        """
        from .fleet import FleetSpec

        population = spec.population if isinstance(spec, FleetSpec) else spec
        if not isinstance(population, PopulationSpec):
            raise TypeError(
                f"record() takes a FleetSpec or PopulationSpec, "
                f"got {type(spec).__name__}"
            )
        return cls.from_series(
            population.measure(),
            population.ue_speeds(),
            population.params,
            policies=population.ue_policies(),
            cohort_names=population.cohort_names,
            cohort_ids=population.cohort_ids(),
        )

    # ------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> Path:
        """Pickle the trace (with a format/version envelope) to disk."""
        path = Path(path)
        envelope = {
            "format": TRACE_FORMAT,
            "version": TRACE_VERSION,
            "trace": self,
        }
        with path.open("wb") as fh:
            pickle.dump(envelope, fh, protocol=pickle.HIGHEST_PROTOCOL)
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "FleetTrace":
        """Load a trace written by :meth:`save`; foreign or
        incompatible files fail loudly instead of half-deserialising."""
        with Path(path).open("rb") as fh:
            envelope = pickle.load(fh)
        if (
            not isinstance(envelope, dict)
            or envelope.get("format") != TRACE_FORMAT
        ):
            raise ValueError(f"{path} is not a {TRACE_FORMAT} file")
        if envelope.get("version") != TRACE_VERSION:
            raise ValueError(
                f"{path} has trace version {envelope.get('version')}, "
                f"expected {TRACE_VERSION}"
            )
        trace = envelope.get("trace")
        if not isinstance(trace, cls):
            raise ValueError(f"{path} does not contain a FleetTrace")
        return trace


def record_fleet_trace(spec) -> FleetTrace:
    """Convenience alias for :meth:`FleetTrace.record`."""
    return FleetTrace.record(spec)


def offline_reference_metrics(
    trace: FleetTrace,
    window_km: float = DEFAULT_WINDOW_KM,
    outage_dbw: float = DEFAULT_OUTAGE_DBW,
) -> FleetMetrics:
    """The trace's metrics through the offline batch engine — the
    identity oracle the streaming service is pinned against.

    Runs :meth:`PopulationSpec.run_metrics`'s path: one
    :class:`~repro.sim.batch.BatchSimulator` pass over the whole trace,
    each UE under its recorded policy, with cohort labels attached when
    the trace carries them.
    """
    metrics = BatchSimulator(
        policy_system(None, trace.params),
        speed_kmh=trace.speeds_kmh,
        policies=trace.policies,
    ).run_metrics(trace.series(), window_km=window_km, outage_dbw=outage_dbw)
    if trace.cohort_names is not None and trace.cohort_ids is not None:
        metrics = metrics.with_cohorts(trace.cohort_ids, trace.cohort_names)
    return metrics
