"""Gauss–Markov mobility (extension model).

A tunable-memory walk: velocity at step ``k`` blends the previous
velocity, a long-run mean and Gaussian noise,

``v_k = α v_{k-1} + (1-α) v̄ + sqrt(1-α²) σ w_k``,

so ``α → 0`` degenerates to the paper's memoryless random walk and
``α → 1`` to straight-line motion.  Used by the ablation benches to
probe how handover algorithms respond to motion persistence — ping-pong
is worst for jittery (low-α) motion near a boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..seeding import seeded_generators
from .base import Trace, TraceBatch

__all__ = ["GaussMarkov"]


@dataclass(frozen=True)
class GaussMarkov:
    """Gauss–Markov correlated-velocity walk.

    Parameters
    ----------
    n_steps:
        Number of movement steps.
    alpha:
        Memory parameter in [0, 1].
    mean_speed_km:
        Long-run mean step length (per step).
    mean_heading_rad:
        Long-run mean heading.
    sigma_km:
        Per-component innovation scale.
    start:
        Start position in km.
    """

    n_steps: int = 20
    alpha: float = 0.75
    mean_speed_km: float = 0.6
    mean_heading_rad: float = 0.0
    sigma_km: float = 0.25
    start: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        if self.n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {self.n_steps}")
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.mean_speed_km <= 0:
            raise ValueError(
                f"mean_speed_km must be positive, got {self.mean_speed_km}"
            )
        if self.sigma_km < 0:
            raise ValueError(f"sigma_km must be >= 0, got {self.sigma_km}")
        if not math.isfinite(self.mean_heading_rad):
            raise ValueError("mean_heading_rad must be finite")

    def generate(self, rng: np.random.Generator) -> Trace:
        if not isinstance(rng, np.random.Generator):
            raise TypeError("generate() expects a numpy Generator")
        mean_v = self.mean_speed_km * np.array(
            [math.cos(self.mean_heading_rad), math.sin(self.mean_heading_rad)]
        )
        a = self.alpha
        noise_scale = math.sqrt(max(0.0, 1.0 - a * a)) * self.sigma_km
        v = mean_v.copy()
        deltas = np.empty((self.n_steps, 2))
        for k in range(self.n_steps):
            w = rng.normal(0.0, 1.0, 2)
            v = a * v + (1.0 - a) * mean_v + noise_scale * w
            deltas[k] = v
        return Trace.from_steps(self.start, deltas)

    def generate_seeded(self, seed: int) -> Trace:
        return self.generate(np.random.default_rng(seed))

    def generate_batch_seeded(self, seeds: Sequence[int]) -> TraceBatch:
        """One walk per integer seed, each bit-identical to
        :meth:`generate_seeded` of that seed.

        Each seed's generator (:func:`~repro.seeding.seeded_generators`)
        fills its walk's ``(n_steps, 2)`` noise in one call: a generator
        fills an array sequentially, so one call draws what
        :meth:`generate`'s ``n_steps`` calls of size 2 draw, and
        ``normal(0.0, 1.0)`` is ``0.0 + 1.0·z``, the bits of ``z + 0.0``.
        The velocity recursion then runs over all walks at once with
        :meth:`generate`'s operation order.
        """
        n = len(seeds)
        if not n:
            raise ValueError("generate_batch_seeded needs at least one seed")
        w = np.empty((n, self.n_steps, 2))
        for row, rng in zip(w, seeded_generators(seeds)):
            rng.standard_normal(out=row)
        w += 0.0
        mean_v = self.mean_speed_km * np.array(
            [math.cos(self.mean_heading_rad), math.sin(self.mean_heading_rad)]
        )
        a = self.alpha
        noise_scale = math.sqrt(max(0.0, 1.0 - a * a)) * self.sigma_km
        drift = (1.0 - a) * mean_v
        w *= noise_scale
        pos = np.empty((n, self.n_steps + 1, 2))
        deltas = pos[:, 1:]
        v = mean_v
        for k in range(self.n_steps):
            v = a * v + drift + w[:, k]
            deltas[:, k] = v
        start = np.asarray(self.start, dtype=float)
        pos[:, 0] = start
        np.cumsum(deltas, axis=1, out=deltas)
        deltas += start
        return TraceBatch(pos, np.full(n, self.n_steps + 1, dtype=np.intp))
