"""Trace representation and the mobility-model protocol.

A :class:`Trace` is the common currency between the mobility models and
the simulator: an ordered sequence of 2-D positions (km) with helpers
for path length, densification (interpolated sub-sampling, which is how
the "received power along random walk" figures get their x-axis) and
geometric queries.

Mobility models implement :class:`MobilityModel`: ``generate(rng) ->
Trace``.  All randomness flows through an injected
``numpy.random.Generator`` so every experiment is reproducible from a
single integer seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Protocol, runtime_checkable

import numpy as np

__all__ = ["Trace", "TraceBatch", "MobilityModel"]

#: UEs per block in :meth:`TraceBatch.densify`.  Its per-sample
#: temporaries (gather indices, fractions, gathered way-points) then
#: stay a fraction of the output array for any fleet size.
DENSIFY_BLOCK_UES = 1024


@dataclass(frozen=True)
class Trace:
    """An ordered 2-D path in km.

    ``positions`` has shape ``(n, 2)`` with ``n >= 1``.  The first row
    is the start position (the paper's walks start at the origin).
    """

    positions: np.ndarray

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ValueError(
                f"positions must have shape (n, 2), got {pos.shape}"
            )
        if pos.shape[0] < 1:
            raise ValueError("a trace needs at least one position")
        if not np.isfinite(pos).all():
            raise ValueError("trace positions must be finite")
        object.__setattr__(self, "positions", pos)

    # ------------------------------------------------------------------
    @classmethod
    def from_steps(
        cls, start: Iterable[float], deltas: np.ndarray
    ) -> "Trace":
        """Build a trace from a start point and ``(n, 2)`` displacement
        steps (the paper's Eq. 2 accumulation)."""
        start = np.asarray(list(start), dtype=float)
        deltas = np.atleast_2d(np.asarray(deltas, dtype=float))
        if deltas.size == 0:
            return cls(start[None, :])
        if deltas.shape[1] != 2:
            raise ValueError(f"deltas must have shape (n, 2), got {deltas.shape}")
        pos = np.vstack([start[None, :], start[None, :] + np.cumsum(deltas, axis=0)])
        return cls(pos)

    # ------------------------------------------------------------------
    @property
    def n_points(self) -> int:
        return self.positions.shape[0]

    def __len__(self) -> int:
        return self.n_points

    @property
    def start(self) -> np.ndarray:
        return self.positions[0]

    @property
    def end(self) -> np.ndarray:
        return self.positions[-1]

    def step_lengths(self) -> np.ndarray:
        """``(n-1,)`` segment lengths in km."""
        d = np.diff(self.positions, axis=0)
        return np.sqrt((d * d).sum(axis=1))

    def headings(self) -> np.ndarray:
        """``(n-1,)`` segment headings in radians."""
        d = np.diff(self.positions, axis=0)
        return np.arctan2(d[:, 1], d[:, 0])

    def cumulative_distance(self) -> np.ndarray:
        """``(n,)`` distance walked up to each sample (starts at 0)."""
        return np.concatenate([[0.0], np.cumsum(self.step_lengths())])

    @property
    def total_length(self) -> float:
        return float(self.step_lengths().sum())

    def distance_to(self, point: Iterable[float]) -> np.ndarray:
        """``(n,)`` distance of each sample to a fixed point."""
        p = np.asarray(list(point), dtype=float)
        d = self.positions - p[None, :]
        return np.sqrt((d * d).sum(axis=1))

    # ------------------------------------------------------------------
    def densify(self, max_spacing_km: float) -> "Trace":
        """Insert interpolated samples so that no segment exceeds
        ``max_spacing_km``.

        The endpoints of every original segment are preserved, so the
        densified trace visits exactly the same way-points; this is the
        sampling used for the "received power along random walk" figures
        and for the FLC's periodic measurements.
        """
        if max_spacing_km <= 0 or not math.isfinite(max_spacing_km):
            raise ValueError(
                f"max_spacing_km must be positive, got {max_spacing_km}"
            )
        if self.n_points == 1:
            return Trace(self.positions.copy())
        pieces: list[np.ndarray] = []
        for k in range(self.n_points - 1):
            a = self.positions[k]
            b = self.positions[k + 1]
            seg = float(np.hypot(*(b - a)))
            n_sub = max(1, int(math.ceil(seg / max_spacing_km)))
            ts = np.linspace(0.0, 1.0, n_sub + 1)[:-1]  # drop b; added next
            pieces.append(a[None, :] + ts[:, None] * (b - a)[None, :])
        pieces.append(self.positions[-1][None, :])
        return Trace(np.vstack(pieces))

    def subsample(self, every: int) -> "Trace":
        """Keep every ``every``-th sample (always keeping the last)."""
        if every < 1:
            raise ValueError(f"every must be >= 1, got {every}")
        idx = list(range(0, self.n_points, every))
        if idx[-1] != self.n_points - 1:
            idx.append(self.n_points - 1)
        return Trace(self.positions[idx])

    def reversed(self) -> "Trace":
        return Trace(self.positions[::-1].copy())

    def __repr__(self) -> str:
        return (
            f"Trace(n_points={self.n_points}, "
            f"length_km={self.total_length:.3f})"
        )


@dataclass(frozen=True)
class TraceBatch:
    """``n_traces`` paths in padded lockstep form — the currency of the
    batch simulation engine.

    ``positions`` has shape ``(n_traces, max_points, 2)``; trace ``i``
    occupies rows ``[0, lengths[i])``.  Rows beyond a trace's length are
    padded by repeating its final position, which keeps every vectorised
    kernel (path loss, cumulative distance) finite — consumers mask by
    ``lengths`` instead of checking for sentinels.
    """

    positions: np.ndarray
    lengths: np.ndarray

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 3 or pos.shape[2] != 2:
            raise ValueError(
                f"positions must have shape (n, t, 2), got {pos.shape}"
            )
        if not np.isfinite(pos).all():
            raise ValueError("batch positions must be finite")
        lengths = np.asarray(self.lengths, dtype=np.intp)
        if lengths.shape != (pos.shape[0],):
            raise ValueError(
                f"lengths must be ({pos.shape[0]},), got {lengths.shape}"
            )
        if pos.shape[0] < 1:
            raise ValueError("a batch needs at least one trace")
        if lengths.min(initial=1) < 1 or lengths.max(initial=1) > pos.shape[1]:
            raise ValueError(
                f"lengths must lie in [1, {pos.shape[1]}], got "
                f"[{lengths.min()}, {lengths.max()}]"
            )
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "lengths", lengths)

    # ------------------------------------------------------------------
    @property
    def n_traces(self) -> int:
        return self.positions.shape[0]

    @property
    def max_points(self) -> int:
        return self.positions.shape[1]

    def __len__(self) -> int:
        return self.n_traces

    def trace(self, i: int) -> Trace:
        """Trace ``i`` as a scalar :class:`Trace` (padding stripped)."""
        return Trace(self.positions[i, : self.lengths[i]].copy())

    def traces(self) -> list[Trace]:
        return [self.trace(i) for i in range(self.n_traces)]

    # ------------------------------------------------------------------
    @classmethod
    def from_traces(cls, traces: Iterable[Trace]) -> "TraceBatch":
        """Pad a collection of scalar traces into one batch.

        Each trace's samples are copied verbatim (bit-identical to the
        originals); shorter traces are padded by repeating their final
        position.
        """
        traces = list(traces)
        if not traces:
            raise ValueError("from_traces needs at least one trace")
        lengths = np.array([t.n_points for t in traces], dtype=np.intp)
        t_max = int(lengths.max())
        pos = np.empty((len(traces), t_max, 2))
        for i, t in enumerate(traces):
            pos[i, : t.n_points] = t.positions
            pos[i, t.n_points :] = t.positions[-1]
        return cls(pos, lengths)

    @classmethod
    def concatenate(cls, batches: Iterable["TraceBatch"]) -> "TraceBatch":
        """Stack batches row-wise into one, in order.

        Rows are padded to the widest batch by repeating each row's
        final position, as :meth:`from_traces` pads; a single batch is
        returned as is.
        """
        batches = list(batches)
        if not batches:
            raise ValueError("concatenate needs at least one batch")
        if len(batches) == 1:
            return batches[0]
        width = max(b.max_points for b in batches)
        pos = np.empty((sum(b.n_traces for b in batches), width, 2))
        row = 0
        for b in batches:
            rows = pos[row : row + b.n_traces]
            rows[:, : b.max_points] = b.positions
            # padding repeats the final position, so the last column
            # holds every row's final position
            rows[:, b.max_points :] = b.positions[:, -1:]
            row += b.n_traces
        return cls(pos, np.concatenate([b.lengths for b in batches]))

    # ------------------------------------------------------------------
    def densify(self, max_spacing_km: float) -> "TraceBatch":
        """:meth:`Trace.densify` of every trace at once, padded into a
        batch.

        Row ``i`` is bit-identical to ``self.trace(i).densify(
        max_spacing_km)`` — the property the batch/scalar equivalence
        tests pin.  A segment ``a -> b`` gets ``n = max(1, ceil(|b - a|
        / spacing))`` samples, sample ``j`` at ``a + (j * (1.0 / n)) *
        (b - a)``: the float operations of the scalar path's
        ``linspace(0, 1, n + 1)[:-1]``.  UEs are filled in blocks of
        :data:`DENSIFY_BLOCK_UES`, which bounds the per-sample
        temporaries whatever the fleet size.
        """
        if max_spacing_km <= 0 or not math.isfinite(max_spacing_km):
            raise ValueError(
                f"max_spacing_km must be positive, got {max_spacing_km}"
            )
        pos = self.positions
        n, t = pos.shape[:2]
        last = self.lengths - 1
        d = np.diff(pos, axis=1)
        real = np.arange(t - 1) < last[:, None]
        # Column k < t-1 of counts/step is segment k; the extra column
        # t-1 emits the final position and the row's padding.  Its step
        # (and that of every padding segment) is -0.0: x + (-0.0) == x
        # bit for bit, signed zeros included, so those cells are exact
        # copies of the final position, as from_traces pads.
        counts = np.zeros((n, t), dtype=np.intp)
        seg_counts = np.ceil(np.hypot(d[..., 0], d[..., 1]) / max_spacing_km)
        counts[:, :-1] = np.where(real, np.maximum(seg_counts, 1.0), 0)
        dense_lengths = counts.sum(axis=1) + 1
        width = int(dense_lengths.max())
        counts[:, -1] = width - dense_lengths + 1
        step = np.full((n, t, 2), -0.0)
        np.copyto(step[:, :-1], d, where=real[..., None])
        # the source way-point of every column: the segment's start, and
        # the final position for the extra column (whose step is -0.0)
        src = np.arange(n * t).reshape(n, t)
        src[:, -1] = src[:, 0] + last
        pos_flat = pos.reshape(n * t, 2)
        step_flat = step.reshape(n * t, 2)
        inv = 1.0 / np.maximum(counts, 1)

        out = np.empty((n, width, 2))
        for lo in range(0, n, DENSIFY_BLOCK_UES):
            hi = min(lo + DENSIFY_BLOCK_UES, n)
            c = counts[lo:hi].ravel()
            cells = out[lo:hi].reshape(-1, 2)
            # j: each cell's sample index within its column's run
            first = np.cumsum(c) - c
            j = np.arange(cells.shape[0])
            j -= np.repeat(first, c)
            frac = np.repeat(inv[lo:hi].ravel(), c)
            frac *= j
            del j
            idx = np.repeat(src[lo:hi].ravel(), c)
            np.take(step_flat, idx, axis=0, out=cells)
            cells *= frac[:, None]
            del frac
            cells += pos_flat[idx]
        return TraceBatch(out, dense_lengths)

    def cumulative_distances(self) -> np.ndarray:
        """``(n_traces, max_points)`` walked distance per sample.

        Padding rows repeat the final position, so the padded tail of
        each row is constant at the trace's total length.
        """
        pos = self.positions
        out = np.zeros((self.n_traces, self.max_points))
        # Trace.step_lengths' float ops in its order (a 2-term
        # .sum(axis=2) reduces as dx*dx + dy*dy), so batch distances are
        # bit-identical to the per-trace path; built in the output with
        # one output-sized scratch
        steps = out[:, 1:]
        np.subtract(pos[:, 1:, 0], pos[:, :-1, 0], out=steps)
        np.multiply(steps, steps, out=steps)
        dy = np.subtract(pos[:, 1:, 1], pos[:, :-1, 1])
        np.multiply(dy, dy, out=dy)
        np.add(steps, dy, out=steps)
        np.sqrt(steps, out=steps)
        np.cumsum(steps, axis=1, out=steps)
        return out

    def __repr__(self) -> str:
        return (
            f"TraceBatch(n_traces={self.n_traces}, "
            f"max_points={self.max_points})"
        )


@runtime_checkable
class MobilityModel(Protocol):
    """Anything that can generate a reproducible movement trace."""

    def generate(self, rng: np.random.Generator) -> Trace:
        """Produce one trace using the supplied generator."""
        ...
