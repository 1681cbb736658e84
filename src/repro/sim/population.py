"""Heterogeneous fleet populations — the cohort-based scenario layer.

The paper evaluates one UE archetype (a single random-walk speed profile
per run); at network scale a population mixes pedestrians, vehicles and
stationary users.  This module is the declarative layer that describes
such a mix and expands it into the per-UE vectors the batch/fleet
engines consume:

* :class:`UECohort` — one population segment: a mobility model, a speed
  profile (fixed cycle or a uniform range), an optional fading profile
  and an optional handover-policy configuration, sized by an absolute
  ``count`` or a ``fraction`` of the fleet;
* :class:`PopulationSpec` — a picklable composition of cohorts over
  ``n_ues`` UEs with **deterministic per-global-UE-index seeding**:
  every UE's walk seed, speed, fading stream and cohort membership is a
  pure function of its global index, so any sharding of the fleet (and
  any executor backend) reproduces the unsharded run bit-for-bit — the
  same invariant the sharded fleet layer (PR 2) pins for homogeneous
  fleets;
* :data:`POPULATION_MIXES` / :func:`named_population` — a small registry
  of named mixes (``pedestrian``, ``vehicular``, ``highway``,
  ``stationary_heavy``, ``urban_mix``) behind ``repro fleet
  --population``.

Cohort expansion is *order-free*: cohorts are laid out over contiguous
global-index ranges in sorted-name order, so permuting the ``cohorts``
tuple never changes any UE's assignment.  The paper's homogeneous fleet
is the single-cohort population :meth:`PopulationSpec.homogeneous`
(walk seeds ``base_seed + i``, the speed cycle indexed by global
position, fading streams ``fading_base_seed + i``); every
:class:`~repro.sim.fleet.FleetSpec` runs through this layer, and a
scalar-engine oracle in the test suite pins that seeding.

Trace generation is grouped per cohort model (one
``generate_batch_seeded`` call per cohort where the model provides it),
and measurement/simulation stay fully batched across the whole mixed
fleet: per-cohort handover policies ride into the batch engine as
per-UE columns (:meth:`PopulationSpec.ue_policies`), so a mixed-policy
range is one vectorised pass, like a homogeneous one.  A range of at
least twice :data:`MIN_BLOCK_UES` UEs runs as contiguous UE blocks, one
per thread of the process's fan-out budget, on threads
(:meth:`PopulationSpec.run_metrics`).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .. import fanout
from ..core.flc import HANDOVER_THRESHOLD
from ..core.system import FuzzyHandoverSystem
from ..fuzzy.compiled import flc_runs_own_threads
from ..mobility.base import TraceBatch
from ..mobility.gauss_markov import GaussMarkov
from ..mobility.manhattan import ManhattanGrid
from ..mobility.random_walk import RandomWalk
from ..radio.backends import runs_own_threads
from ..radio.fading import ShadowFading
from .batch import BatchSimulator
from .config import (
    DEFAULT_BASE_SEED,
    DEFAULT_FADING_BASE_SEED,
    SimulationParameters,
)
from .measurement import (
    BatchMeasurementSeries,
    MeasurementSampler,
    auto_tile_epochs,
)
from .metrics import (
    DEFAULT_OUTAGE_DBW,
    DEFAULT_WINDOW_KM,
    FleetMetrics,
    merge_fleet_metrics,
)

__all__ = [
    "PolicyConfig",
    "UECohort",
    "PopulationSpec",
    "POPULATION_MIXES",
    "named_population",
    "partition_fleet",
    "MIN_BLOCK_UES",
]

#: Fewest UEs per block when :meth:`PopulationSpec.run_metrics` splits a
#: range over threads, so with two usable CPUs a range splits from 4,000
#: UEs on.  Two blocks gain 1.1-1.4x, not 2x: per-UE seeding (walk
#: draws, fading streams) and the epoch loop's many small NumPy calls
#: hold the GIL, and the cheaper the FLC kernel, the larger their share.
#: One block against two on 2 vCPUs, seconds per ``run_fleet``, medians
#: of alternating pairs, one row per series (homogeneous fleets walk 10
#: legs; ``urban_mix`` fades at 6 dB on the reference FLC):
#:
#: ========================  =====  =====  =====  ========
#: range                     one    two    ratio  two wins
#: ========================  =====  =====  =====  ========
#: ``lut``, 2,000 UEs        0.187  0.233  0.80x  0/10
#: ``lut``, 4,000 UEs        0.339  0.372  0.91x  2/10
#: ``lut``, 4,000 UEs        0.341  0.368  0.93x  4/16
#: ``lut``, 4,000 UEs        0.317  0.319  0.99x  4/10
#: ``lut``, 4,000 UEs        0.313  0.302  1.04x  6/10
#: ``lut``, 6,000 UEs        0.516  0.549  0.94x  5/10
#: ``lut``, 8,000 UEs        0.685  0.590  1.16x  10/10
#: ``reference``, 4,000 UEs  0.739  0.612  1.21x  9/10
#: ``reference``, 4,000 UEs  0.711  0.550  1.29x  16/16
#: ``reference``, 4,000 UEs  0.570  0.416  1.37x  10/10
#: ``urban_mix``, 4,000 UEs  0.540  0.486  1.11x  14/16
#: ========================  =====  =====  =====  ========
#:
#: ``lut`` from 4,000 to 7,999 UEs reads 0.91-1.04x, a loss not
#: established, and no benchmark workload runs there (``fleet_paper`` is
#: 20,000 UEs on ``lut``), so one floor serves every FLC kernel.  Only
#: two blocks were measured: on 4 or more CPUs, 8,000 UEs run as four
#: blocks of 2,000, which is unverified.
#: ``benchmarks/bench_x13_sharded_fleet.py -k blocks`` re-runs the
#: 4,000-UE ``lut`` and ``reference`` rows.
MIN_BLOCK_UES = 2000


def partition_fleet(n_ues: int, n_shards: int) -> list[tuple[int, int]]:
    """Contiguous, balanced ``[lo, hi)`` UE ranges.

    Shard sizes differ by at most one (the remainder goes to the
    leading shards).  Degenerate inputs degrade gracefully instead of
    producing invalid ranges: more shards than UEs collapses to one UE
    per shard (surplus shards are dropped, never emitted empty), and an
    empty fleet partitions into no shards at all.  Concatenating the
    ranges in order reproduces ``range(0, n_ues)`` — the invariant the
    exact metrics merge relies on.
    """
    if n_ues < 0:
        raise ValueError(f"n_ues must be >= 0, got {n_ues}")
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if n_ues == 0:
        return []
    shards = min(n_shards, n_ues)
    base, rem = divmod(n_ues, shards)
    bounds: list[tuple[int, int]] = []
    lo = 0
    for s in range(shards):
        hi = lo + base + (1 if s < rem else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


#: The largest lag the engines' per-UE ``cssp_lag`` column holds: a
#: representability limit, not a policy bound.
_MAX_LAG = int(np.iinfo(np.intp).max)


@dataclass(frozen=True)
class PolicyConfig:
    """A picklable per-cohort handover-pipeline configuration.

    The knobs of :class:`~repro.core.system.FuzzyHandoverSystem` that a
    cohort may override (the FLC rule base itself stays the paper's),
    validated as the system validates them: the engines carry them as
    per-UE columns and never build a system per policy.
    """

    threshold: float = HANDOVER_THRESHOLD
    potlc_gate_dbw: float = -85.0
    prtlc_enabled: bool = True
    cssp_lag: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold < 1.0:
            raise ValueError(
                f"threshold must be in (0, 1), got {self.threshold!r}"
            )
        try:
            finite = math.isfinite(self.potlc_gate_dbw)
        except OverflowError:  # an int past the float range
            finite = False
        if not finite:
            raise ValueError(
                f"potlc_gate_dbw must be finite, got {self.potlc_gate_dbw!r}"
            )
        if not isinstance(self.prtlc_enabled, (bool, np.bool_)):
            raise ValueError(
                f"prtlc_enabled must be a bool, got {self.prtlc_enabled!r}"
            )
        lag = self.cssp_lag
        if isinstance(lag, bool) or not isinstance(lag, (int, np.integer)):
            raise ValueError(f"cssp_lag must be an integer, got {lag!r}")
        if lag < 1:
            raise ValueError(f"cssp_lag must be >= 1, got {lag}")
        if lag > _MAX_LAG:
            raise ValueError(
                f"cssp_lag must be <= {_MAX_LAG}, the largest its integer "
                f"column holds, got {lag}"
            )

    def make_system(
        self,
        cell_radius_km: float,
        flc_backend: Optional[str] = None,
    ) -> FuzzyHandoverSystem:
        """Build the cohort's pipeline under the spec's geometry.

        ``flc_backend`` is the population-level FLC inference-kernel
        pin (from ``params.flc_backend``) — decisions are identical on
        every backend, so it is execution configuration, not part of
        the cohort's policy identity.
        """
        return FuzzyHandoverSystem(
            threshold=self.threshold,
            potlc_gate_dbw=self.potlc_gate_dbw,
            prtlc_enabled=self.prtlc_enabled,
            cell_radius_km=cell_radius_km,
            cssp_lag=self.cssp_lag,
            flc_backend=flc_backend,
        )


@dataclass(frozen=True)
class UECohort:
    """One segment of a heterogeneous fleet.

    Parameters
    ----------
    name:
        Unique label within a population; expansion order is sorted by
        name, which is what makes cohort-tuple permutations harmless.
    model:
        Mobility model generating one trace per UE.  Any object with
        ``generate_seeded(seed)`` (all models in :mod:`repro.mobility`);
        models providing ``generate_batch_seeded`` (e.g.
        :class:`~repro.mobility.random_walk.RandomWalk`) are generated
        in one grouped call per cohort.
    count / fraction:
        Cohort size — exactly one of the two.  ``count`` is absolute;
        ``fraction`` cohorts share the UEs left over after all ``count``
        cohorts are placed, proportionally (largest-remainder rounding,
        deterministic name-order tie-break).
    speeds_kmh:
        Speed cycle, indexed by cohort-*local* position (a single-entry
        tuple is a fixed speed).  Ignored when ``speed_range_kmh`` is
        given.
    speed_range_kmh:
        Optional ``(low, high)`` uniform speed distribution; UE ``g``
        draws from ``default_rng(speed_base_seed + g)`` so the draw is a
        function of the global index alone.
    shadow_sigma_db / shadow_decorrelation_km:
        Optional per-cohort fading profile overriding the population's
        :class:`~repro.sim.config.SimulationParameters` values (``None``
        inherits; a 0 sigma disables fading for the cohort).
    policy:
        Optional handover-pipeline override; ``None`` uses the default
        paper configuration.
    """

    name: str
    model: object
    count: Optional[int] = None
    fraction: Optional[float] = None
    speeds_kmh: tuple[float, ...] = (0.0,)
    speed_range_kmh: Optional[tuple[float, float]] = None
    shadow_sigma_db: Optional[float] = None
    shadow_decorrelation_km: Optional[float] = None
    policy: Optional[PolicyConfig] = None

    def __post_init__(self) -> None:
        if not self.name or not isinstance(self.name, str):
            raise ValueError(f"cohort name must be a non-empty string, got {self.name!r}")
        if not (
            hasattr(self.model, "generate_seeded")
            or hasattr(self.model, "generate")
        ):
            raise ValueError(
                f"cohort {self.name!r} model must be a mobility model, "
                f"got {type(self.model).__name__}"
            )
        if (self.count is None) == (self.fraction is None):
            raise ValueError(
                f"cohort {self.name!r} must set exactly one of count/fraction"
            )
        if self.count is not None and self.count < 0:
            raise ValueError(
                f"cohort {self.name!r} count must be >= 0, got {self.count}"
            )
        if self.fraction is not None and not (
            0.0 < self.fraction and math.isfinite(self.fraction)
        ):
            raise ValueError(
                f"cohort {self.name!r} fraction must be positive and finite, "
                f"got {self.fraction}"
            )
        if self.speed_range_kmh is not None:
            lo, hi = self.speed_range_kmh
            if not (0.0 <= lo <= hi and math.isfinite(hi)):
                raise ValueError(
                    f"cohort {self.name!r} speed_range_kmh must satisfy "
                    f"0 <= low <= high, got {self.speed_range_kmh}"
                )
        elif not self.speeds_kmh:
            raise ValueError(f"cohort {self.name!r} speeds_kmh must be non-empty")
        if self.shadow_sigma_db is not None and not (
            self.shadow_sigma_db >= 0 and math.isfinite(self.shadow_sigma_db)
        ):
            raise ValueError(
                f"cohort {self.name!r} shadow_sigma_db must be finite and "
                f">= 0, got {self.shadow_sigma_db}"
            )
        if (
            self.shadow_decorrelation_km is not None
            and not self.shadow_decorrelation_km >= 0  # NaN fails too
        ):
            raise ValueError(
                f"cohort {self.name!r} shadow_decorrelation_km must be "
                f">= 0, got {self.shadow_decorrelation_km}"
            )


@dataclass(frozen=True)
class PopulationSpec:
    """A declarative, picklable heterogeneous fleet.

    Expansion lays the cohorts over contiguous global-UE-index ranges in
    sorted-name order; every per-UE attribute (walk seed, speed, fading
    stream, cohort id, policy) is then a pure function of the global
    index — the property that makes results byte-identical across shard
    counts, executor backends and cohort-tuple permutations.
    """

    n_ues: int
    cohorts: tuple[UECohort, ...]
    params: SimulationParameters = field(default_factory=SimulationParameters)
    base_seed: int = DEFAULT_BASE_SEED
    fading_base_seed: int = DEFAULT_FADING_BASE_SEED
    speed_base_seed: int = 515_151

    def __post_init__(self) -> None:
        if self.n_ues < 1:
            raise ValueError(f"n_ues must be >= 1, got {self.n_ues}")
        cohorts = tuple(self.cohorts)
        if not cohorts:
            raise ValueError("a population needs at least one cohort")
        names = [c.name for c in cohorts]
        if len(set(names)) != len(names):
            raise ValueError(f"cohort names must be unique, got {names}")
        object.__setattr__(self, "cohorts", cohorts)
        # expand once — validates the sizes at construction (not in a
        # worker) and caches the slices every per-UE vector call reads
        object.__setattr__(self, "_slices", self._expand())

    @classmethod
    def homogeneous(
        cls,
        n_ues: int,
        n_walks: int,
        speeds_kmh: Sequence[float],
        params: SimulationParameters,
        base_seed: int = DEFAULT_BASE_SEED,
        fading_base_seed: int = DEFAULT_FADING_BASE_SEED,
    ) -> "PopulationSpec":
        """The paper's one UE archetype as a single ``"default"``
        cohort: ``params.make_walk(n_walks)`` random walks cycling
        ``speeds_kmh`` by global index, fading under ``params``.  UE
        ``i`` walks seed ``base_seed + i`` and, when ``params`` fades,
        owns the stream ``fading_base_seed + i``.  Every fleet built
        from homogeneous fields is built here."""
        return cls(
            n_ues=n_ues,
            cohorts=(
                UECohort(
                    name="default",
                    model=params.make_walk(n_walks),
                    count=n_ues,
                    speeds_kmh=tuple(speeds_kmh),
                ),
            ),
            params=params,
            base_seed=base_seed,
            fading_base_seed=fading_base_seed,
        )

    # ------------------------------------------------------------------
    # expansion: cohorts -> contiguous global-index ranges
    # ------------------------------------------------------------------
    @property
    def cohort_names(self) -> tuple[str, ...]:
        """Cohort names in expansion (sorted) order — the id space of
        :meth:`cohort_ids` and :attr:`FleetMetrics.cohort_names`."""
        return tuple(sorted(c.name for c in self.cohorts))

    def _sorted_cohorts(self) -> list[UECohort]:
        return sorted(self.cohorts, key=lambda c: c.name)

    def cohort_counts(self) -> tuple[int, ...]:
        """Resolved UE count per cohort, in sorted-name order.

        Fixed ``count`` cohorts take their size verbatim; ``fraction``
        cohorts share the remaining UEs by largest-remainder rounding
        (deterministic, name-ordered tie-break).  The counts always sum
        to ``n_ues``.
        """
        return tuple(hi - lo for _, lo, hi in self.cohort_slices())

    def _resolve_counts(self) -> tuple[int, ...]:
        cohorts = self._sorted_cohorts()
        fixed = sum(c.count for c in cohorts if c.count is not None)
        if fixed > self.n_ues:
            raise ValueError(
                f"cohort counts sum to {fixed} > n_ues = {self.n_ues}"
            )
        remaining = self.n_ues - fixed
        fractional = [c for c in cohorts if c.fraction is not None]
        if not fractional:
            if remaining != 0:
                raise ValueError(
                    f"cohort counts sum to {fixed} != n_ues = {self.n_ues} "
                    "(add a fraction cohort to absorb the remainder)"
                )
            return tuple(c.count for c in cohorts)  # type: ignore[misc]
        total_frac = sum(c.fraction for c in fractional)  # type: ignore[misc]
        quotas = {
            c.name: remaining * c.fraction / total_frac  # type: ignore[operator]
            for c in fractional
        }
        counts = {c.name: int(math.floor(quotas[c.name])) for c in fractional}
        leftover = remaining - sum(counts.values())
        # largest fractional remainder first; ties resolve in name order
        by_remainder = sorted(
            fractional,
            key=lambda c: (-(quotas[c.name] - counts[c.name]), c.name),
        )
        for c in by_remainder[:leftover]:
            counts[c.name] += 1
        return tuple(
            c.count if c.count is not None else counts[c.name]
            for c in cohorts
        )

    def _expand(self) -> tuple[tuple[UECohort, int, int], ...]:
        counts = self._resolve_counts()
        out: list[tuple[UECohort, int, int]] = []
        lo = 0
        for cohort, count in zip(self._sorted_cohorts(), counts):
            out.append((cohort, lo, lo + count))
            lo += count
        return tuple(out)

    def cohort_slices(self) -> tuple[tuple[UECohort, int, int], ...]:
        """``(cohort, lo, hi)`` global-index ranges, contiguous in
        sorted-name order (``hi`` of one is ``lo`` of the next);
        expanded once at construction."""
        return self._slices

    def _overlaps(self, lo: int, hi: int):
        for cohort, c_lo, c_hi in self.cohort_slices():
            s_lo, s_hi = max(lo, c_lo), min(hi, c_hi)
            if s_lo < s_hi:
                yield cohort, c_lo, s_lo, s_hi

    def _range(self, lo: int, hi: Optional[int]) -> tuple[int, int]:
        hi = self.n_ues if hi is None else hi
        if not (0 <= lo <= hi <= self.n_ues):
            raise ValueError(
                f"range [{lo}, {hi}) out of bounds for {self.n_ues} UEs"
            )
        return lo, hi

    # ------------------------------------------------------------------
    # per-UE vectors (functions of the global index)
    # ------------------------------------------------------------------
    def walk_seeds(self, lo: int = 0, hi: Optional[int] = None) -> list[int]:
        """Walk seeds of UEs ``[lo, hi)`` — ``base_seed + global index``,
        exactly the homogeneous fleet's seeding."""
        lo, hi = self._range(lo, hi)
        return list(range(self.base_seed + lo, self.base_seed + hi))

    def ue_speeds(self, lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
        """``(hi - lo,)`` per-UE speeds from each cohort's profile."""
        lo, hi = self._range(lo, hi)
        out = np.zeros(hi - lo)
        for cohort, c_lo, s_lo, s_hi in self._overlaps(lo, hi):
            if cohort.speed_range_kmh is not None:
                low, high = cohort.speed_range_kmh
                out[s_lo - lo : s_hi - lo] = _range_speeds(
                    self.speed_base_seed + s_lo,
                    self.speed_base_seed + s_hi,
                    low,
                    high,
                )
            else:
                speeds = np.asarray(cohort.speeds_kmh, dtype=float)
                local = np.arange(s_lo, s_hi) - c_lo
                out[s_lo - lo : s_hi - lo] = speeds[local % speeds.shape[0]]
        return out

    def cohort_ids(self, lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
        """``(hi - lo,)`` index of each UE's cohort in
        :attr:`cohort_names` order."""
        lo, hi = self._range(lo, hi)
        names = self.cohort_names
        out = np.zeros(hi - lo, dtype=np.intp)
        for cohort, _c_lo, s_lo, s_hi in self._overlaps(lo, hi):
            out[s_lo - lo : s_hi - lo] = names.index(cohort.name)
        return out

    def traces(self, lo: int = 0, hi: Optional[int] = None) -> TraceBatch:
        """Walks of UEs ``[lo, hi)`` in global order: one batch per
        cohort (the model's ``generate_batch_seeded`` where it has one,
        bit-identical to per-seed generation), padded once by
        :meth:`TraceBatch.concatenate`."""
        lo, hi = self._range(lo, hi)
        if lo == hi:
            raise ValueError("cannot build a trace batch for an empty range")
        batches = []
        for cohort, _c_lo, s_lo, s_hi in self._overlaps(lo, hi):
            seeds = self.walk_seeds(s_lo, s_hi)
            model = cohort.model
            if hasattr(model, "generate_batch_seeded"):
                batches.append(model.generate_batch_seeded(seeds))
            elif hasattr(model, "generate_seeded"):
                batches.append(TraceBatch.from_traces(
                    model.generate_seeded(s) for s in seeds
                ))
            else:
                batches.append(TraceBatch.from_traces(
                    model.generate(np.random.default_rng(s)) for s in seeds
                ))
        return TraceBatch.concatenate(batches)

    def fading_profiles(
        self, lo: int = 0, hi: Optional[int] = None
    ) -> Optional[list[Optional[ShadowFading]]]:
        """Per-UE shadowing processes for ``[lo, hi)``.

        UE ``g`` of a fading cohort owns the stream ``fading_base_seed +
        g`` (the homogeneous fleet's seeding); non-fading UEs carry
        ``None``.  Returns ``None`` when no UE in the range fades, so
        callers can skip the fading pass entirely.
        """
        lo, hi = self._range(lo, hi)
        profiles: list[Optional[ShadowFading]] = [None] * (hi - lo)
        any_fading = False
        for cohort, _c_lo, s_lo, s_hi in self._overlaps(lo, hi):
            sigma = (
                cohort.shadow_sigma_db
                if cohort.shadow_sigma_db is not None
                else self.params.shadow_sigma_db
            )
            if sigma <= 0.0:
                continue
            decorr = (
                cohort.shadow_decorrelation_km
                if cohort.shadow_decorrelation_km is not None
                else self.params.shadow_decorrelation_km
            )
            any_fading = True
            for g in range(s_lo, s_hi):
                profiles[g - lo] = self.params.make_fading(
                    rng=self.fading_base_seed + g,
                    sigma_db=sigma,
                    decorrelation_km=decorr,
                )
        return profiles if any_fading else None

    def ue_policies(
        self, lo: int = 0, hi: Optional[int] = None
    ) -> Optional[tuple[Optional[PolicyConfig], ...]]:
        """Per-UE policy overrides of ``[lo, hi)`` (``None`` entries:
        the paper default), or ``None`` when no UE in the range has
        one, so the engine skips the per-UE pass."""
        lo, hi = self._range(lo, hi)
        overlaps = list(self._overlaps(lo, hi))
        if all(cohort.policy is None for cohort, *_ in overlaps):
            return None
        return tuple(
            cohort.policy
            for cohort, _c_lo, s_lo, s_hi in overlaps
            for _ in range(s_lo, s_hi)
        )

    def policy_groups(
        self, lo: int = 0, hi: Optional[int] = None
    ) -> list[tuple[Optional[PolicyConfig], np.ndarray]]:
        """Distinct handover policies over ``[lo, hi)`` with the *local*
        UE indices they govern, in first-appearance (global) order (the
        engines read :meth:`ue_policies` instead)."""
        lo, hi = self._range(lo, hi)
        groups: dict[Optional[PolicyConfig], list[np.ndarray]] = {}
        for cohort, _c_lo, s_lo, s_hi in self._overlaps(lo, hi):
            groups.setdefault(cohort.policy, []).append(
                np.arange(s_lo - lo, s_hi - lo)
            )
        return [(p, np.concatenate(idx)) for p, idx in groups.items()]

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def make_sampler(self) -> MeasurementSampler:
        """The measurement stack shared by every cohort (fading is
        injected per UE via :meth:`fading_profiles`, not here)."""
        params = self.params
        return MeasurementSampler(
            params.make_layout(),
            params.make_propagation(),
            spacing_km=params.measurement_spacing_km,
        )

    def make_system(
        self, policy: Optional[PolicyConfig] = None
    ) -> FuzzyHandoverSystem:
        """The pipeline of one policy (``None`` = paper default), on
        the population's FLC inference backend."""
        return policy_system(policy, self.params)

    def simulator(
        self,
        lo: int = 0,
        hi: Optional[int] = None,
        system: Optional[FuzzyHandoverSystem] = None,
    ) -> BatchSimulator:
        """The batch engine for UEs ``[lo, hi)``, each under its
        cohort's policy (every UE under ``system`` when given)."""
        return BatchSimulator(
            system if system is not None else self.make_system(),
            speed_kmh=self.ue_speeds(lo, hi),
            policies=self.ue_policies(lo, hi) if system is None else None,
        )

    def measure(
        self, lo: int = 0, hi: Optional[int] = None
    ) -> BatchMeasurementSeries:
        """Generate and measure the walks of UEs ``[lo, hi)`` —
        bit-identical per UE to measuring the whole population."""
        return self.make_sampler().measure_batch(
            self.traces(lo, hi), fading_profiles=self.fading_profiles(lo, hi)
        )

    def run_metrics(
        self,
        lo: int = 0,
        hi: Optional[int] = None,
        window_km: float = DEFAULT_WINDOW_KM,
        outage_dbw: float = DEFAULT_OUTAGE_DBW,
        system: Optional[FuzzyHandoverSystem] = None,
    ) -> FleetMetrics:
        """Streaming cohort-labelled metrics of UEs ``[lo, hi)``, every
        UE under its cohort's policy (pass ``system`` to override every
        cohort's policy).

        The range runs as contiguous UE blocks, ``min(threads, n //
        MIN_BLOCK_UES)`` of them (at least one), on the threads of
        :func:`repro.fanout.fan_out` (``threads`` is its
        :func:`~repro.fanout.thread_budget`).  A range whose pathloss or
        FLC kernel runs a thread pool of its own (numba) stays one
        block, and an ``"auto"`` pathloss kernel is resolved here, on
        the caller.  Each block generates, densifies and measures its
        own walks, materialised or tiled by
        :func:`~repro.sim.measurement.auto_tile_epochs` of the range's
        size and the block's longest walk (so the materialised blocks'
        power cubes add up to at most what the range may hold), and
        drives its own simulator.  Every UE is seeded by global index
        and stepped on its own, so the blocks' metrics merge to exactly
        the one-block bytes, as shards do.
        """
        lo, hi = self._range(lo, hi)
        if lo == hi:
            raise ValueError("cannot run an empty UE range")
        sampler = self.make_sampler()
        n_blocks = max(
            1, min(fanout.thread_budget(), (hi - lo) // MIN_BLOCK_UES)
        )
        if n_blocks > 1:
            flc = system if system is not None else self.make_system()
            if runs_own_threads(
                sampler.propagation.backend
            ) or flc_runs_own_threads(flc.resolved_flc_backend()):
                n_blocks = 1

        def run_block(block: tuple[int, int]) -> FleetMetrics:
            b_lo, b_hi = block
            dense = self.traces(b_lo, b_hi).densify(sampler.spacing_km)
            tile_epochs = auto_tile_epochs(
                hi - lo, dense.max_points, sampler.layout.n_cells
            )
            source = sampler.measure_dense(
                dense, tile_epochs, self.fading_profiles(b_lo, b_hi)
            )
            return self.simulator(b_lo, b_hi, system).run_metrics(
                source, window_km=window_km, outage_dbw=outage_dbw
            )

        parts = fanout.fan_out(
            run_block,
            [
                (lo + b_lo, lo + b_hi)
                for b_lo, b_hi in partition_fleet(hi - lo, n_blocks)
            ],
        )
        return merge_fleet_metrics(parts).with_cohorts(
            self.cohort_ids(lo, hi), self.cohort_names
        )


def policy_system(
    policy: Optional[PolicyConfig], params: SimulationParameters
) -> FuzzyHandoverSystem:
    """One policy's pipeline (``None`` = paper default) under
    ``params``' cell radius and FLC inference backend."""
    if policy is None:
        return FuzzyHandoverSystem(
            cell_radius_km=params.cell_radius_km,
            flc_backend=params.flc_backend,
        )
    return policy.make_system(
        params.cell_radius_km, flc_backend=params.flc_backend
    )


@functools.lru_cache(maxsize=64)
def _range_speeds(
    first_seed: int, last_seed: int, low: float, high: float
) -> np.ndarray:
    """One ``default_rng(seed).uniform(low, high)`` speed per seed in
    ``[first_seed, last_seed)``, drawn once per process and returned
    read-only (every caller shares the array)."""
    speeds = np.array(
        [
            np.random.default_rng(seed).uniform(low, high)
            for seed in range(first_seed, last_seed)
        ]
    )
    speeds.flags.writeable = False
    return speeds


# ----------------------------------------------------------------------
# named mixes (the `repro fleet --population` registry)
# ----------------------------------------------------------------------
_PEDESTRIAN = UECohort(
    name="pedestrian",
    model=RandomWalk(n_walks=10, mean_step_km=0.35, step_sigma_km=0.12),
    fraction=1.0,
    speed_range_kmh=(3.0, 6.0),
)

_VEHICULAR = UECohort(
    name="vehicular",
    model=ManhattanGrid(n_legs=10, block_km=0.35, max_blocks=2),
    fraction=1.0,
    speed_range_kmh=(30.0, 60.0),
)

_HIGHWAY = UECohort(
    name="highway",
    model=GaussMarkov(n_steps=10, alpha=0.9, mean_speed_km=0.55, sigma_km=0.12),
    fraction=1.0,
    speed_range_kmh=(70.0, 120.0),
)

_STATIONARY = UECohort(
    name="stationary",
    # micro-mobility: a user shuffling around one spot, never leaving
    # the serving cell on their own
    model=RandomWalk(n_walks=3, mean_step_km=0.05, step_sigma_km=0.02),
    fraction=1.0,
    speeds_kmh=(0.0,),
)

#: Named cohort mixes, all fraction-based so they scale to any fleet
#: size.  ``urban_mix`` is the reference heterogeneous workload of the
#: X15 benchmark.
POPULATION_MIXES: dict[str, tuple[UECohort, ...]] = {
    "pedestrian": (_PEDESTRIAN,),
    "vehicular": (_VEHICULAR,),
    "highway": (_HIGHWAY,),
    "stationary_heavy": (
        replace(_STATIONARY, fraction=0.7),
        replace(_PEDESTRIAN, fraction=0.3),
    ),
    "urban_mix": (
        replace(_PEDESTRIAN, fraction=0.5),
        replace(_VEHICULAR, fraction=0.3),
        replace(_STATIONARY, fraction=0.2),
    ),
}


def named_population(
    name: str,
    n_ues: int = 100,
    params: Optional[SimulationParameters] = None,
    base_seed: int = DEFAULT_BASE_SEED,
) -> PopulationSpec:
    """Build a registered mix (see :data:`POPULATION_MIXES`) as a
    :class:`PopulationSpec` over ``n_ues`` UEs."""
    try:
        cohorts = POPULATION_MIXES[name]
    except KeyError:
        raise ValueError(
            f"unknown population {name!r}; "
            f"available: {', '.join(sorted(POPULATION_MIXES))}"
        ) from None
    return PopulationSpec(
        n_ues=n_ues,
        cohorts=cohorts,
        params=params if params is not None else SimulationParameters(),
        base_seed=base_seed,
    )
