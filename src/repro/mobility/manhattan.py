"""Manhattan-grid mobility (extension model).

The MS moves along an axis-aligned street grid: each leg runs along one
axis for a multiple of the block size, then turns (or continues) with
configurable probabilities.  Street-constrained motion crosses hexagonal
cell boundaries obliquely, which is a classically hard case for
hysteresis handover — included for the X1 comparison workloads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..seeding import seeded_generators
from .base import Trace, TraceBatch

__all__ = ["ManhattanGrid"]

# unit direction per heading index: 0=E, 1=N, 2=W, 3=S
_DIRS = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])

_LOW32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _unit(words: np.ndarray) -> np.ndarray:
    """``Generator.random()`` of raw 64-bit words ``w``:
    ``(w >> 11) · 2⁻⁵³``."""
    return (words >> np.uint64(11)) * (1.0 / 9007199254740992.0)


def _lemire(u32: np.ndarray, span: int) -> tuple[np.ndarray, np.ndarray]:
    """NumPy's bounded draw in ``[0, span)`` from 32-bit words, and
    which words Lemire's method would reject (and draw again)."""
    m = u32 * np.uint64(span)
    return m >> _SHIFT32, (m & _LOW32) < np.uint64(2**32 % span)


@dataclass(frozen=True)
class ManhattanGrid:
    """Street-grid walk.

    Parameters
    ----------
    n_legs:
        Number of street segments walked.
    block_km:
        Block edge length; each leg covers 1..``max_blocks`` blocks.
    max_blocks:
        Maximum blocks per leg.
    p_turn:
        Probability of turning left/right at an intersection (split
        evenly); otherwise the MS continues straight.  U-turns never
        happen, as in the standard Manhattan model.
    start:
        Start position (snapped conceptually to an intersection).
    """

    n_legs: int = 20
    block_km: float = 0.25
    max_blocks: int = 4
    p_turn: float = 0.5
    start: tuple[float, float] = (0.0, 0.0)

    def __post_init__(self) -> None:
        if self.n_legs < 1:
            raise ValueError(f"n_legs must be >= 1, got {self.n_legs}")
        if self.block_km <= 0 or not math.isfinite(self.block_km):
            raise ValueError(f"block_km must be positive, got {self.block_km}")
        if self.max_blocks < 1:
            raise ValueError(f"max_blocks must be >= 1, got {self.max_blocks}")
        if not (0.0 <= self.p_turn <= 1.0):
            raise ValueError(f"p_turn must be in [0, 1], got {self.p_turn}")

    def generate(self, rng: np.random.Generator) -> Trace:
        if not isinstance(rng, np.random.Generator):
            raise TypeError("generate() expects a numpy Generator")
        heading = int(rng.integers(0, 4))
        deltas = np.empty((self.n_legs, 2))
        for k in range(self.n_legs):
            if k > 0 and rng.random() < self.p_turn:
                # left or right, never a U-turn
                heading = (heading + (1 if rng.random() < 0.5 else 3)) % 4
            blocks = int(rng.integers(1, self.max_blocks + 1))
            deltas[k] = _DIRS[heading] * (blocks * self.block_km)
        return Trace.from_steps(self.start, deltas)

    def generate_seeded(self, seed: int) -> Trace:
        return self.generate(np.random.default_rng(seed))

    def generate_batch_seeded(self, seeds: Sequence[int]) -> TraceBatch:
        """One walk per integer seed, each bit-identical to
        :meth:`generate_seeded` of that seed.

        Each seed's generator (:func:`~repro.seeding.seeded_generators`)
        gives one ``random_raw`` block of ``2 + 3·n_legs`` 64-bit words,
        more than a walk draws (a word for the heading, then at most two
        doubles and half a word per leg).  Every walk's legs are then
        decoded from those words at once, one leg of all walks at a
        time, replaying :meth:`generate`'s draws:

        * ``random()`` is ``(word >> 11) · 2⁻⁵³``;
        * ``integers(lo, hi)`` is NumPy's Lemire draw on ``next_uint32``:
          the low half of a fresh word, whose high half PCG64 keeps for
          the next 32-bit draw; a range of one value draws nothing.

        A walk whose bounded draw would take Lemire's rejection branch
        (never for a power-of-two range, below 2⁻³² a draw otherwise) is
        regenerated by :meth:`generate`.  Each call checks its first
        walk against :meth:`generate`, so a NumPy release that draws
        ``integers`` or ``random`` another way fails loudly.
        """
        n = len(seeds)
        if not n:
            raise ValueError("generate_batch_seeded needs at least one seed")
        if self.max_blocks >= 2**32:  # NumPy's 64-bit bounded path
            return TraceBatch.from_traces(
                self.generate_seeded(s) for s in seeds
            )
        raw = np.empty((n, 2 + 3 * self.n_legs), dtype=np.uint64)
        for row, rng in zip(raw, seeded_generators(seeds)):
            row[:] = rng.bit_generator.random_raw(raw.shape[1])
        ue = np.arange(n)
        heading, rejected = _lemire(raw[:, 0] & _LOW32, 4)
        heading = heading.astype(np.intp)
        half = raw[:, 0] >> _SHIFT32  # the high half PCG64 keeps
        has_half = np.ones(n, dtype=bool)
        ptr = np.ones(n, dtype=np.intp)  # each walk's next unread word
        blocks = np.ones((n, self.n_legs))
        headings = np.empty((n, self.n_legs), dtype=np.intp)
        for k in range(self.n_legs):
            if k > 0:
                turn = _unit(raw[ue, ptr]) < self.p_turn
                ptr += 1
                side = np.where(_unit(raw[ue, ptr]) < 0.5, 1, 3)
                ptr += turn
                heading = np.where(turn, (heading + side) % 4, heading)
            headings[:, k] = heading
            if self.max_blocks > 1:
                word = raw[ue, ptr]
                u32 = np.where(has_half, half, word & _LOW32)
                half = np.where(has_half, half, word >> _SHIFT32)
                ptr += ~has_half
                has_half = ~has_half
                drawn, rejects = _lemire(u32, self.max_blocks)
                blocks[:, k] += drawn
                rejected |= rejects
        # generate()'s float operations: _DIRS[h] * (blocks * block_km),
        # then Trace.from_steps' cumulative sum from the start
        deltas = _DIRS[headings] * (blocks * self.block_km)[:, :, None]
        start = np.asarray(self.start, dtype=float)
        pos = np.empty((n, self.n_legs + 1, 2))
        pos[:, 0] = start
        np.cumsum(deltas, axis=1, out=pos[:, 1:])
        pos[:, 1:] += start
        for i in np.flatnonzero(rejected).tolist():
            pos[i] = self.generate(np.random.default_rng(seeds[i])).positions
        first = self.generate(np.random.default_rng(seeds[0])).positions
        if pos[0].tobytes() != first.tobytes():
            raise RuntimeError(
                f"NumPy {np.__version__} draws integers() or random() "
                "differently from the decoding ManhattanGrid replays"
            )
        return TraceBatch(pos, np.full(n, self.n_legs + 1, dtype=np.intp))
