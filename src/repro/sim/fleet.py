"""Sharded fleet execution.

One :class:`~repro.sim.batch.BatchSimulator` steps a whole in-process
fleet; this module is the next scale-out lever: it splits an N-UE fleet
into contiguous per-worker shards, runs each shard through its own
batch engine (streaming metrics, O(shard) memory), and merges the
per-shard :class:`~repro.sim.metrics.FleetMetrics` back into exactly
the numbers the unsharded engine produces.

Every fleet is a :class:`~repro.sim.population.PopulationSpec`: a
:class:`FleetSpec` built from the homogeneous fields (the paper's one
UE archetype) holds a single ``"default"`` cohort, and a shard is a
``[lo, hi)`` range of that population's global UE indices
(:func:`~repro.sim.population.partition_fleet`), run by
:meth:`PopulationSpec.run_metrics
<repro.sim.population.PopulationSpec.run_metrics>`.

Sharding is *deterministic by construction*:

* every UE owns its walk seed (``base_seed + global_index``), its speed
  (its cohort's speed profile, indexed by global position) and, when it
  fades, its fading stream (``fading_base_seed + global_index``) — so
  a UE's measurements do not depend on which shard it lands in;
* trace densification and the propagation kernel are per-UE element-wise,
  so shard padding never leaks into valid epochs;
* the batch FLC path is element-wise per UE, so per-UE decision logs are
  bit-identical to the unsharded run;
* :class:`~repro.sim.metrics.FleetMetrics` aggregates are associative
  per-UE reductions, so the merge is exact.

Work is distributed over the shared
:class:`~repro.sim.executor.Executor` layer — the same picklable-spec
pattern as the sweep runner in :mod:`repro.sim.parallel`.

The measurement pass runs on a pluggable pathloss kernel
(:mod:`repro.radio.backends`) and the FLC on a pluggable inference
kernel (:mod:`repro.fuzzy.compiled`); ``spec.params.pathloss_backend``
and ``spec.params.flc_backend`` pin them.  Backend names resolve on the
*executing* host, so a distributed executor can ship the same spec to
heterogeneous workers and let each shard run its fastest
locally-registered kernel (exact for the NumPy family, within the
documented conformance tolerance for accelerators).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from ..core.system import FuzzyHandoverSystem
from .config import (
    DEFAULT_BASE_SEED,
    DEFAULT_FADING_BASE_SEED,
    PAPER_SPEEDS_KMH,
    SimulationParameters,
)
from .executor import Executor, make_executor
from .metrics import (
    DEFAULT_OUTAGE_DBW,
    DEFAULT_WINDOW_KM,
    FleetMetrics,
    merge_fleet_metrics,
)
from .population import PopulationSpec, partition_fleet, policy_system

__all__ = [
    "FleetSpec",
    "partition_fleet",
    "run_fleet",
]


def _walk_fields(population: PopulationSpec) -> dict:
    """``n_walks`` and ``speeds_kmh`` of a population that
    :meth:`PopulationSpec.homogeneous` builds from them; empty for any
    other population."""
    if len(population.cohorts) != 1:
        return {}
    cohort = population.cohorts[0]
    n_walks = getattr(cohort.model, "n_walks", None)
    if n_walks is None:
        return {}
    rebuilt = PopulationSpec.homogeneous(
        population.n_ues,
        n_walks,
        cohort.speeds_kmh,
        population.params,
        base_seed=population.base_seed,
        fading_base_seed=population.fading_base_seed,
    )
    if rebuilt != population:
        return {}
    return {"n_walks": n_walks, "speeds_kmh": cohort.speeds_kmh}


@dataclass(frozen=True)
class FleetSpec:
    """A picklable description of a whole fleet workload.

    The fleet analogue of the sweep runner's ``("fuzzy", {...})`` policy
    specs: everything a worker process needs to rebuild and run its
    shard travels as one small frozen dataclass instead of live
    simulator objects.

    The fleet itself is always :attr:`population`; without one, the
    homogeneous fields build it: UE ``i`` walks seed ``base_seed + i``
    at speed ``speeds_kmh[i % len(speeds_kmh)]`` and, with
    ``params.shadow_sigma_db > 0``, owns the fading stream
    ``fading_base_seed + i``.  All three are functions of the *global*
    UE index, which is what makes any sharding of the fleet
    bit-identical to the unsharded run.  ``params`` also pins the
    pathloss and FLC kernels every shard runs on.
    """

    n_ues: int = 100
    n_walks: int = 10
    base_seed: int = DEFAULT_BASE_SEED
    speeds_kmh: tuple[float, ...] = PAPER_SPEEDS_KMH
    params: SimulationParameters = field(default_factory=SimulationParameters)
    fading_base_seed: int = DEFAULT_FADING_BASE_SEED
    #: the fleet's UEs; ``None`` at construction builds the single
    #: ``"default"`` cohort from the fields above.  A population given
    #: here must agree with ``n_ues``, ``params`` and both seeds, and
    #: with ``n_walks`` and ``speeds_kmh``: a homogeneous population's
    #: walk and speed cycle, the defaults beside any other population
    population: Optional[PopulationSpec] = None

    def __post_init__(self) -> None:
        if self.population is None:
            # the population validates n_ues, and the default cohort's
            # walk and speed cycle validate n_walks and speeds_kmh
            population = PopulationSpec.homogeneous(
                self.n_ues,
                self.n_walks,
                self.speeds_kmh,
                self.params,
                base_seed=self.base_seed,
                fading_base_seed=self.fading_base_seed,
            )
            object.__setattr__(self, "population", population)
            return
        for name in ("n_ues", "params", "base_seed", "fading_base_seed"):
            if getattr(self.population, name) != getattr(self, name):
                raise ValueError(
                    f"population.{name} must equal the spec's {name} "
                    "(build via FleetSpec.from_population)"
                )
        # dataclasses.replace(spec, n_walks=...) passes the old population
        # on; refuse it rather than run the old walks under new fields
        # (the class attributes are the fields' defaults)
        want = {
            "n_walks": FleetSpec.n_walks,
            "speeds_kmh": FleetSpec.speeds_kmh,
            **_walk_fields(self.population),
        }
        have = {"n_walks": self.n_walks, "speeds_kmh": tuple(self.speeds_kmh)}
        changed = [name for name in want if have[name] != want[name]]
        if changed:
            raise ValueError(
                ", ".join(f"{n}={getattr(self, n)!r}" for n in changed)
                + " must build the given population; pass "
                "population=None to rebuild the default cohort from them"
            )

    # ------------------------------------------------------------------
    @classmethod
    def from_population(cls, population: PopulationSpec) -> "FleetSpec":
        """Wrap a population as a fleet-execution spec.

        Fleet size, seeds and physics mirror the population.  A
        homogeneous population's walk and speed cycle fill ``n_walks``
        and ``speeds_kmh``; beside any other population they stay at
        their defaults, because each cohort defines its own walks and
        speeds.
        """
        return cls(
            n_ues=population.n_ues,
            base_seed=population.base_seed,
            params=population.params,
            fading_base_seed=population.fading_base_seed,
            population=population,
            **_walk_fields(population),
        )

    # ------------------------------------------------------------------
    def ue_speeds(self, lo: int = 0, hi: Optional[int] = None) -> np.ndarray:
        """Speeds of UEs ``[lo, hi)`` from the population's cohort
        profiles, indexed by *global* UE index."""
        return self.population.ue_speeds(lo, hi)

    def make_system(self) -> FuzzyHandoverSystem:
        """The default pipeline configuration for this spec (FLC
        inference backend included)."""
        return policy_system(None, self.params)


def _range_metrics(task: tuple) -> FleetMetrics:
    """Top-level worker (must be module-level to be picklable): one
    ``[lo, hi)`` range of a population."""
    population, (lo, hi), window_km, outage_dbw = task
    return population.run_metrics(
        lo, hi, window_km=window_km, outage_dbw=outage_dbw
    )


def run_fleet(
    spec: FleetSpec,
    n_shards: int = 1,
    max_workers: Optional[int] = None,
    window_km: float = DEFAULT_WINDOW_KM,
    executor: Optional[Executor] = None,
    outage_dbw: float = DEFAULT_OUTAGE_DBW,
    hosts: Optional[Sequence[str]] = None,
) -> FleetMetrics:
    """Run a fleet in ``n_shards`` partitions and merge the metrics.

    Each shard streams its metrics (O(shard) memory) in a worker
    selected by the shared :func:`~repro.sim.executor.make_executor`
    policy: serial in-process for one shard or one worker, a process
    pool otherwise (``max_workers=None`` means
    :func:`~repro.sim.executor.default_workers`, capped at the shard
    count).  The merged result is bit-identical to the unsharded
    ``n_shards=1`` run — sharding changes wall-clock, never physics.
    Pass ``executor`` to supply a pre-built backend instead of a worker
    count (the two are mutually exclusive), and ``outage_dbw`` to set
    the serving-power sensitivity below which an epoch counts as
    outage.  Each shard is one :func:`~repro.sim.population.
    partition_fleet` range of ``spec.population``, run by
    :meth:`~repro.sim.population.PopulationSpec.run_metrics` on the
    kernels ``spec.params`` pins.

    ``hosts`` — ``"host:port"`` addresses of running ``repro worker``
    socket workers — runs the shards on the distributed backend
    (:class:`~repro.sim.distributed.DistributedExecutor`) instead of a
    local pool: each shard is seeded by global UE index and each
    worker resolves backend names on its own host, so the merged
    metrics stay byte-identical to the serial run even when a dead
    worker forces shard reissue.

    A long-lived worker process — including a ``repro worker`` that
    rejoined after a disconnect — serves repeat rule bases from the
    process-wide compiled-table cache (:mod:`repro.fuzzy.compiled`)
    instead of recompiling per task.
    """
    tasks = [
        (spec.population, shard, float(window_km), float(outage_dbw))
        for shard in partition_fleet(spec.n_ues, n_shards)
    ]
    if executor is None:
        executor = make_executor(max_workers, n_tasks=len(tasks), hosts=hosts)
    elif max_workers is not None or hosts is not None:
        raise ValueError(
            "pass either executor or max_workers/hosts, not both"
        )
    return merge_fleet_metrics(executor.map(_range_metrics, tasks))
