"""Random-waypoint mobility (extension model).

Not used by the paper's own evaluation; included for the X1 baseline
comparison so the fuzzy-vs-conventional result can be shown to be
robust to the mobility law, and as a realistic workload for the
examples.  The MS repeatedly picks a uniform destination inside a
rectangular region and travels there in a straight line; way-points are
emitted at each destination, and :meth:`Trace.densify` supplies
intermediate measurement samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..seeding import seeded_generators
from .base import Trace, TraceBatch

__all__ = ["RandomWaypoint"]


@dataclass(frozen=True)
class RandomWaypoint:
    """Random-waypoint walk in a rectangular region.

    Parameters
    ----------
    n_waypoints:
        Number of destinations to visit.
    region_km:
        ``(xmin, xmax, ymin, ymax)`` sampling region.
    start:
        Start position; defaults to the region centre.
    """

    n_waypoints: int = 10
    region_km: tuple[float, float, float, float] = (-3.0, 3.0, -3.0, 3.0)
    start: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.n_waypoints < 1:
            raise ValueError(f"n_waypoints must be >= 1, got {self.n_waypoints}")
        xmin, xmax, ymin, ymax = self.region_km
        if not (xmin < xmax and ymin < ymax):
            raise ValueError(f"degenerate region {self.region_km}")
        for v in self.region_km:
            if not math.isfinite(v):
                raise ValueError(f"region bounds must be finite: {self.region_km}")
        if self.start is not None:
            sx, sy = self.start
            if not (xmin <= sx <= xmax and ymin <= sy <= ymax):
                raise ValueError(
                    f"start {self.start} lies outside region {self.region_km}"
                )

    def _start(self) -> np.ndarray:
        if self.start is None:
            xmin, xmax, ymin, ymax = self.region_km
            return np.array([0.5 * (xmin + xmax), 0.5 * (ymin + ymax)])
        return np.asarray(self.start, dtype=float)

    def generate(self, rng: np.random.Generator) -> Trace:
        if not isinstance(rng, np.random.Generator):
            raise TypeError("generate() expects a numpy Generator")
        xmin, xmax, ymin, ymax = self.region_km
        xs = rng.uniform(xmin, xmax, self.n_waypoints)
        ys = rng.uniform(ymin, ymax, self.n_waypoints)
        pos = np.vstack([self._start()[None, :], np.column_stack([xs, ys])])
        return Trace(pos)

    def generate_seeded(self, seed: int) -> Trace:
        return self.generate(np.random.default_rng(seed))

    def generate_batch_seeded(self, seeds: Sequence[int]) -> TraceBatch:
        """One walk per integer seed, each bit-identical to
        :meth:`generate_seeded` of that seed: each seed's generator
        (:func:`~repro.seeding.seeded_generators`) makes
        :meth:`generate`'s two ``uniform`` calls."""
        n = len(seeds)
        if not n:
            raise ValueError("generate_batch_seeded needs at least one seed")
        xmin, xmax, ymin, ymax = self.region_km
        pos = np.empty((n, self.n_waypoints + 1, 2))
        pos[:, 0] = self._start()
        for row, rng in zip(pos, seeded_generators(seeds)):
            row[1:, 0] = rng.uniform(xmin, xmax, self.n_waypoints)
            row[1:, 1] = rng.uniform(ymin, ymax, self.n_waypoints)
        return TraceBatch(pos, np.full(n, self.n_waypoints + 1, dtype=np.intp))
