"""Frozen walk scenarios — the paper's ``iseed = 100/200`` analogues.

The paper's seeds refer to the authors' unpublished RNG, so we searched
NumPy seeds (:mod:`repro.mobility.seedsearch`) for walks whose
deduplicated cell-visit sequences match the paper *exactly*:

* :data:`SCENARIO_PINGPONG` (``iseed=100`` role, Fig. 7): seed **555**,
  5 legs, visits ``(0,0) → (2,-1) → (0,0) → (1,-2)`` — the MS skirts
  the boundary and returns; a conventional strongest-BS policy
  ping-pongs here, the fuzzy system must not hand over at all.
* :data:`SCENARIO_CROSSING` (``iseed=200`` role, Fig. 8): seed **487**,
  10 legs, visits ``(0,0) → (-1,2) → (-2,1) → (-1,2)`` — three genuine
  boundary crossings; the fuzzy system must hand over three times.

Both sequences are verbatim the ones printed in the paper's Sec. 5.
The seeds are frozen here (rather than re-searched at run time) so that
every experiment, test and benchmark sees bit-identical walks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..mobility.base import Trace, TraceBatch
from ..mobility.seedsearch import cell_sequence_of
from ..sim.config import PAPER_SPEEDS_KMH, SimulationParameters
from ..sim.measurement import MeasurementSeries

__all__ = [
    "WalkScenario",
    "FleetScenario",
    "SCENARIO_PINGPONG",
    "SCENARIO_CROSSING",
    "SCENARIO_FLEET",
    "make_trace",
    "crossing_epochs",
    "measurement_point_epochs",
]

Cell = tuple[int, int]


@dataclass(frozen=True)
class WalkScenario:
    """A reproducible walk with a known relationship to the layout."""

    name: str
    paper_iseed: int
    seed: int
    n_walks: int
    expected_sequence: tuple[Cell, ...]
    description: str

    def generate(self, params: SimulationParameters) -> Trace:
        """The frozen walk under the given physical configuration."""
        return params.make_walk(self.n_walks).generate_seeded(self.seed)

    def verify_sequence(self, params: SimulationParameters) -> bool:
        """Check the frozen seed still produces the expected cells
        (guards against accidental changes to the walk model)."""
        layout = params.make_layout()
        seq = cell_sequence_of(self.generate(params), layout)
        return tuple(seq) == self.expected_sequence


SCENARIO_PINGPONG = WalkScenario(
    name="pingpong-walk",
    paper_iseed=100,
    seed=555,
    n_walks=5,
    expected_sequence=((0, 0), (2, -1), (0, 0), (1, -2)),
    description=(
        "Fig. 7 analogue: boundary-hugging walk; handover would cause "
        "the ping-pong effect, the fuzzy system must hold the MS on (0,0)."
    ),
)

SCENARIO_CROSSING = WalkScenario(
    name="crossing-walk",
    paper_iseed=200,
    seed=487,
    n_walks=10,
    expected_sequence=((0, 0), (-1, 2), (-2, 1), (-1, 2)),
    description=(
        "Fig. 8 analogue: the MS marches through neighbouring cells; "
        "three handovers are necessary and must all be executed."
    ),
)


@dataclass(frozen=True)
class FleetScenario:
    """A reproducible *population* of walks for the batch engine.

    Where :class:`WalkScenario` freezes one paper walk, a fleet scenario
    describes N UEs.  It is built on the population layer
    (:mod:`repro.sim.population`): :meth:`to_population` expands the
    scenario into a :class:`~repro.sim.population.PopulationSpec` — by
    default one homogeneous cohort reproducing the original fleet
    semantics *exactly* (one seeded walk per UE, seeds ``base_seed …
    base_seed + n_ues - 1``, so any single UE can be replayed through
    the scalar pipeline bit-for-bit, with speeds cycled over
    :attr:`speeds_kmh`), or the mixed :attr:`cohorts` of a heterogeneous
    scenario.  :meth:`run` takes the whole fleet through measurement and
    the :class:`~repro.sim.batch.BatchSimulator` in one vectorised pass;
    :meth:`run_sharded` partitions the same fleet over the
    :mod:`repro.sim.fleet` execution layer and merges the metrics —
    bit-identical to the unsharded run by construction.
    """

    name: str
    n_ues: int = 100
    n_walks: int = 10
    base_seed: int = 1000
    speeds_kmh: tuple[float, ...] = PAPER_SPEEDS_KMH
    description: str = ""
    #: optional heterogeneous mix; ``None`` means one homogeneous
    #: random-walk cohort with the scenario's speed cycle
    cohorts: tuple | None = None

    def __post_init__(self) -> None:
        if self.n_ues < 1:
            raise ValueError(f"n_ues must be >= 1, got {self.n_ues}")
        if self.n_walks < 1:
            raise ValueError(f"n_walks must be >= 1, got {self.n_walks}")
        if not self.speeds_kmh:
            raise ValueError("speeds_kmh must be non-empty")
        if self.cohorts is not None and not self.cohorts:
            raise ValueError("cohorts must be None or non-empty")

    # ------------------------------------------------------------------
    @classmethod
    def from_mix(
        cls,
        mix: str,
        n_ues: int = 100,
        base_seed: int = 1000,
        description: str = "",
    ) -> "FleetScenario":
        """A heterogeneous scenario from a registered named mix (see
        :data:`repro.sim.population.POPULATION_MIXES`)."""
        from ..sim.population import named_population

        pop = named_population(mix, n_ues=n_ues, base_seed=base_seed)
        return cls(
            name=f"{mix}-{n_ues}",
            n_ues=n_ues,
            base_seed=base_seed,
            cohorts=pop.cohorts,
            description=description or f"named mix {mix!r} over {n_ues} UEs",
        )

    def to_population(self, params: SimulationParameters | None = None):
        """This scenario as a declarative
        :class:`~repro.sim.population.PopulationSpec`."""
        from ..sim.population import PopulationSpec

        if params is None:
            params = SimulationParameters()
        if self.cohorts is None:
            return PopulationSpec.homogeneous(
                self.n_ues,
                self.n_walks,
                self.speeds_kmh,
                params,
                base_seed=self.base_seed,
            )
        return PopulationSpec(
            n_ues=self.n_ues,
            cohorts=tuple(self.cohorts),
            params=params,
            base_seed=self.base_seed,
        )

    def to_spec(self, params: SimulationParameters | None = None):
        """This scenario as a picklable :class:`repro.sim.FleetSpec`
        (the sharded execution layer's currency), built on the
        population expansion — for a homogeneous scenario the same
        fleet as a ``FleetSpec`` built from its n_ues, n_walks, seed and
        speeds."""
        from ..sim.fleet import FleetSpec

        return FleetSpec.from_population(self.to_population(params))

    def walk_seeds(self) -> list[int]:
        """One deterministic walk seed per UE."""
        return list(range(self.base_seed, self.base_seed + self.n_ues))

    def ue_speeds(self) -> np.ndarray:
        """``(n_ues,)`` per-UE speeds of the population expansion."""
        return self.to_population().ue_speeds()

    def make_batch(
        self, params: SimulationParameters | None = None
    ) -> TraceBatch:
        """The fleet's walks under the given physical configuration."""
        return self.to_population(params).traces()

    def run(self, params: SimulationParameters | None = None, system=None):
        """Measure and simulate the whole fleet in one batched pass.

        Returns a :class:`~repro.sim.batch.BatchSimulationResult`; pass
        a custom :class:`~repro.core.system.FuzzyHandoverSystem` to run
        a non-default pipeline configuration.
        """
        return self.to_spec(params).shard(1)[0].run(system=system)

    def run_sharded(
        self,
        params: SimulationParameters | None = None,
        n_shards: int = 1,
        max_workers: int | None = None,
        window_km: float | None = None,
        backend: str | None = None,
        flc_backend: str | None = None,
        hosts: list[str] | None = None,
        tile_epochs: int | None = None,
        executor=None,
    ):
        """Partition the fleet into shards, run them (in-process, over
        a worker pool, or across ``repro worker`` socket hosts) and
        merge the streaming per-shard metrics.

        Returns a :class:`~repro.sim.metrics.FleetMetrics` identical to
        ``compute_fleet_metrics(self.run(params))`` for every shard,
        worker count and host list; ``backend`` pins the pathloss
        kernel (:mod:`repro.radio.backends` name) the measurement
        passes use, ``flc_backend`` the FLC inference kernel
        (:mod:`repro.fuzzy.compiled` name — handover decisions are
        identical on every FLC backend), ``hosts`` runs the shards
        on the fault-tolerant distributed backend
        (:class:`~repro.sim.distributed.DistributedExecutor`), and
        ``tile_epochs`` pins the epoch-tile policy of the shards'
        measurement passes (``0`` materialises, ``>= 1`` streams —
        byte-identical metrics, constant memory in the horizon), and
        ``executor`` supplies a pre-built execution backend — e.g. a
        :class:`~repro.sim.distributed.DistributedExecutor` with tuned
        heartbeat/retry knobs — instead of ``max_workers``/``hosts``.
        """
        from ..sim.fleet import run_fleet
        from ..sim.metrics import DEFAULT_WINDOW_KM

        return run_fleet(
            self.to_spec(params),
            n_shards=n_shards,
            max_workers=max_workers,
            window_km=DEFAULT_WINDOW_KM if window_km is None else window_km,
            backend=backend,
            flc_backend=flc_backend,
            hosts=hosts,
            tile_epochs=tile_epochs,
            executor=executor,
        )


#: Default fleet workload: 100 UEs, 10-leg walks, the paper's speed
#: sweep cycled across the population.
SCENARIO_FLEET = FleetScenario(
    name="fleet-100",
    description=(
        "100 mixed-speed UEs on independent seeded walks — the batch "
        "engine's reference workload (any UE replays bit-identically "
        "through the scalar pipeline)."
    ),
)


def make_trace(
    scenario: WalkScenario, params: SimulationParameters | None = None
) -> Trace:
    """Convenience: the scenario's trace under (default) paper params."""
    if params is None:
        params = SimulationParameters()
    return scenario.generate(params)


def crossing_epochs(series: MeasurementSeries) -> list[int]:
    """Epoch indices where the geometrically strongest BS changes.

    These are the walk's true boundary crossings — the paper's
    "measurement points" where the MS "is in the boundary of the
    3 cells".
    """
    strongest = series.strongest_cell_indices()
    return [int(k) + 1 for k in np.nonzero(np.diff(strongest) != 0)[0]]


def measurement_point_epochs(
    series: MeasurementSeries, samples_per_point: int = 2, offset: int = 2
) -> list[list[int]]:
    """The paper's measurement-point sampling: per boundary crossing,
    ``samples_per_point`` epochs straddling the crossing.

    With the default ``offset=2`` and two samples, each point yields the
    epoch ``offset`` before and ``offset`` after the crossing (clipped
    to the series), mirroring the two sub-columns per point of
    Tables 3/4.
    """
    if samples_per_point < 1:
        raise ValueError(
            f"samples_per_point must be >= 1, got {samples_per_point}"
        )
    if offset < 1:
        raise ValueError(f"offset must be >= 1, got {offset}")
    points: list[list[int]] = []
    for c in crossing_epochs(series):
        epochs: list[int] = []
        if samples_per_point == 1:
            epochs = [c]
        else:
            half = samples_per_point // 2
            before = [c - offset * (i + 1) for i in range(half)][::-1]
            after = [c + offset * (i + 1) for i in range(samples_per_point - half)]
            epochs = before + after
        epochs = [min(max(e, 1), series.n_epochs - 1) for e in epochs]
        points.append(epochs)
    return points
