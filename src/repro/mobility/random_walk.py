"""The paper's Monte-Carlo random-walk model (Sec. 3).

Each of ``n_walks`` legs draws a step length ``d`` and a heading ``θ``
and accumulates::

    Δx_n = d_n cos θ_n,   Δy_n = d_n sin θ_n          (Eq. 1)
    x_{n+1} = x_n + Δx_n, y_{n+1} = y_n + Δy_n        (Eq. 2)

Table 2 fixes the step-length law to a Gaussian with mean 0.6 km; the
paper says headings come from a "general or Gaussian" distribution, so
both are supported (uniform over the full circle is the default — the
classic unbiased random walk; the Gaussian option produces persistent
headings and is used by the seed-search to reproduce the paper's
cell-crossing walk shapes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from ..seeding import seeded_generators
from .base import Trace, TraceBatch

__all__ = ["RandomWalk"]

AngleLaw = Literal["uniform", "gaussian"]


@dataclass(frozen=True)
class RandomWalk:
    """Monte-Carlo random walk per paper Sec. 3 / Table 2.

    Parameters
    ----------
    n_walks:
        Number of legs (paper: 5 or 10).
    mean_step_km:
        Mean leg length (paper: 0.6 km).
    step_sigma_km:
        Standard deviation of the Gaussian leg length.  Draws are
        truncated below at ``min_step_km`` by resampling, because a
        non-positive "walk" has no heading.
    angle_law:
        ``"uniform"`` — headings i.i.d. uniform on [0, 2π); or
        ``"gaussian"`` — each heading is Gaussian around the previous
        one with ``angle_sigma_rad`` spread (random initial heading),
        giving directional persistence.
    angle_sigma_rad:
        Heading spread for the Gaussian law.
    start:
        Start position in km (paper: the origin).
    min_step_km:
        Resampling floor for the truncated Gaussian step length.
    """

    n_walks: int = 5
    mean_step_km: float = 0.6
    step_sigma_km: float = 0.2
    angle_law: AngleLaw = "uniform"
    angle_sigma_rad: float = 0.8
    start: tuple[float, float] = (0.0, 0.0)
    min_step_km: float = 1e-3

    def __post_init__(self) -> None:
        if self.n_walks < 1:
            raise ValueError(f"n_walks must be >= 1, got {self.n_walks}")
        if self.mean_step_km <= 0 or not math.isfinite(self.mean_step_km):
            raise ValueError(
                f"mean_step_km must be positive, got {self.mean_step_km}"
            )
        if not (self.step_sigma_km >= 0 and math.isfinite(self.step_sigma_km)):
            raise ValueError(
                "step_sigma_km must be finite and >= 0, got "
                f"{self.step_sigma_km}"
            )
        if self.angle_law not in ("uniform", "gaussian"):
            raise ValueError(f"unknown angle_law {self.angle_law!r}")
        if not (
            self.angle_sigma_rad > 0 and math.isfinite(self.angle_sigma_rad)
        ):
            raise ValueError(
                "angle_sigma_rad must be positive and finite, got "
                f"{self.angle_sigma_rad}"
            )
        start = np.asarray(self.start, dtype=float)
        if start.shape != (2,) or not np.isfinite(start).all():
            raise ValueError(
                f"start must be a finite (x, y) pair in km, got {self.start!r}"
            )
        if not (0 < self.min_step_km < self.mean_step_km):
            raise ValueError(
                "min_step_km must be positive and below mean_step_km, got "
                f"{self.min_step_km}"
            )

    # ------------------------------------------------------------------
    def _draw_steps(self, rng: np.random.Generator) -> np.ndarray:
        """Truncated-Gaussian leg lengths, shape ``(n_walks,)``."""
        if self.step_sigma_km == 0.0:
            return np.full(self.n_walks, self.mean_step_km)
        out = rng.normal(self.mean_step_km, self.step_sigma_km, self.n_walks)
        bad = out < self.min_step_km
        # resample the tail instead of clipping, to keep the law Gaussian
        # conditional on positivity
        guard = 0
        while bad.any():
            out[bad] = rng.normal(
                self.mean_step_km, self.step_sigma_km, int(bad.sum())
            )
            bad = out < self.min_step_km
            guard += 1
            if guard > 1000:  # pragma: no cover - pathological sigma only
                out[bad] = self.min_step_km
                break
        return out

    def _draw_angles(self, rng: np.random.Generator) -> np.ndarray:
        if self.angle_law == "uniform":
            return rng.uniform(0.0, 2.0 * math.pi, self.n_walks)
        angles = np.empty(self.n_walks)
        angles[0] = rng.uniform(0.0, 2.0 * math.pi)
        for k in range(1, self.n_walks):
            angles[k] = rng.normal(angles[k - 1], self.angle_sigma_rad)
        return angles

    def generate(self, rng: np.random.Generator) -> Trace:
        """One walk as a :class:`Trace` of ``n_walks + 1`` way-points."""
        if not isinstance(rng, np.random.Generator):
            raise TypeError(
                "generate() expects a numpy Generator; build one with "
                "numpy.random.default_rng(seed)"
            )
        d = self._draw_steps(rng)
        theta = self._draw_angles(rng)
        deltas = np.column_stack([d * np.cos(theta), d * np.sin(theta)])
        return Trace.from_steps(self.start, deltas)

    def generate_seeded(self, seed: int) -> Trace:
        """Convenience: one walk from an integer seed (the paper's
        ``iseed`` role)."""
        return self.generate(np.random.default_rng(seed))

    # ------------------------------------------------------------------
    # batch generation (the fleet-simulation hot path)
    # ------------------------------------------------------------------
    def generate_batch_seeded(self, seeds: Sequence[int]) -> TraceBatch:
        """One walk per integer seed, each bit-identical to
        :meth:`generate_seeded` of that seed — the batch engine's
        equivalence-preserving entry point.

        Only the draws loop over seeds: each seed's generator, built by
        :func:`~repro.seeding.seeded_generators` with ``default_rng``'s
        state, draws its leg lengths and headings exactly as
        :meth:`generate` does.  Eq. 1-2 then run once over the
        ``(len(seeds), n_walks)`` matrices, with the same element-wise
        operations as the scalar walk.
        """
        if not len(seeds):
            raise ValueError("generate_batch_seeded needs at least one seed")
        d = np.empty((len(seeds), self.n_walks))
        theta = np.empty_like(d)
        for i, rng in enumerate(seeded_generators(seeds)):
            d[i] = self._draw_steps(rng)
            theta[i] = self._draw_angles(rng)
        # Eq. 1-2: the batch form of generate()'s Trace.from_steps
        deltas = np.stack([d * np.cos(theta), d * np.sin(theta)], axis=2)
        start = np.asarray(self.start, dtype=float)
        pos = np.empty((d.shape[0], self.n_walks + 1, 2))
        pos[:, 0] = start
        np.cumsum(deltas, axis=1, out=pos[:, 1:])
        pos[:, 1:] += start
        return TraceBatch(
            pos, np.full(d.shape[0], self.n_walks + 1, dtype=np.intp)
        )

    def __repr__(self) -> str:
        return (
            f"RandomWalk(n_walks={self.n_walks}, "
            f"mean_step_km={self.mean_step_km:g}, "
            f"step_sigma_km={self.step_sigma_km:g}, "
            f"angle_law={self.angle_law!r})"
        )
