"""Defuzzification strategies.

Converts an aggregated output membership (or, for the weighted-average
family, per-term activations) into a crisp decision value.  The paper
does not name its defuzzifier; centre-of-gravity (centroid) is the
standard choice for Mamdani controllers of this era and is our default.
The others exist for the X2 ablation bench, which shows how the decision
surface — and hence where the 0.7 handover threshold bites — shifts
with the strategy.

All area-based defuzzifiers operate on a ``(n_samples, n_points)``
membership surface and return ``(n_samples,)`` crisp values, vectorised
across the batch dimension.
"""

from __future__ import annotations

from typing import Callable, Literal

import numpy as np

__all__ = [
    "centroid",
    "bisector",
    "mean_of_maximum",
    "smallest_of_maximum",
    "largest_of_maximum",
    "weighted_average",
    "get_defuzzifier",
    "DEFUZZIFIERS",
]

DefuzzMethod = Literal["centroid", "bisector", "mom", "som", "lom"]

#: Relative tolerance used when locating the plateau of maxima.
_MAX_RTOL = 1e-9


def _validate_surface(grid: np.ndarray, surface: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    grid = np.asarray(grid, dtype=float)
    surface = np.asarray(surface, dtype=float)
    if grid.ndim != 1:
        raise ValueError(f"grid must be 1-D, got shape {grid.shape}")
    if surface.ndim == 1:
        surface = surface[None, :]
    if surface.ndim != 2 or surface.shape[1] != grid.shape[0]:
        raise ValueError(
            f"surface shape {surface.shape} incompatible with grid of "
            f"{grid.shape[0]} points"
        )
    if np.any(surface < -1e-12) or np.any(surface > 1.0 + 1e-9):
        raise ValueError("membership surface values must lie in [0, 1]")
    return grid, surface


def _fallback(grid: np.ndarray) -> float:
    """Crisp value when the surface is identically zero: the universe
    midpoint, the least-surprising neutral answer."""
    return 0.5 * float(grid[0] + grid[-1])


def centroid(grid: np.ndarray, surface: np.ndarray) -> np.ndarray:
    """Centre of gravity: ``∫ x·µ(x) dx / ∫ µ(x) dx`` (trapezoid rule)."""
    grid, surface = _validate_surface(grid, surface)
    d = np.diff(grid)
    buf = np.empty((surface.shape[0], grid.shape[0] - 1))

    def trapezoid(y: np.ndarray) -> np.ndarray:
        # np.trapezoid(y, grid, axis=1), operation for operation and in
        # its order, through the one scratch buffer
        np.add(y[:, 1:], y[:, :-1], out=buf)
        np.multiply(d, buf, out=buf)
        np.divide(buf, 2.0, out=buf)
        return buf.sum(axis=1)

    area = trapezoid(surface)
    moment = trapezoid(surface * grid[None, :])
    out = np.full(surface.shape[0], _fallback(grid))
    nz = area > 0.0
    out[nz] = moment[nz] / area[nz]
    return out


def bisector(grid: np.ndarray, surface: np.ndarray) -> np.ndarray:
    """Abscissa splitting the area under µ into two equal halves."""
    grid, surface = _validate_surface(grid, surface)
    # cumulative trapezoid area along the grid
    dx = np.diff(grid)
    seg = 0.5 * (surface[:, 1:] + surface[:, :-1]) * dx[None, :]
    cum = np.concatenate(
        [np.zeros((surface.shape[0], 1)), np.cumsum(seg, axis=1)], axis=1
    )
    total = cum[:, -1]
    out = np.full(surface.shape[0], _fallback(grid))
    nz = total > 0.0
    if not np.any(nz):
        return out
    half = 0.5 * total[nz]
    # first grid index where cumulative area reaches half, then linearly
    # interpolate within that segment
    idx = np.argmax(cum[nz] >= half[:, None], axis=1)
    idx = np.clip(idx, 1, grid.shape[0] - 1)
    rows = np.arange(idx.shape[0])
    c_hi = cum[nz][rows, idx]
    c_lo = cum[nz][rows, idx - 1]
    g_hi = grid[idx]
    g_lo = grid[idx - 1]
    span = c_hi - c_lo
    frac = np.where(span > 0.0, (half - c_lo) / np.where(span > 0, span, 1.0), 0.0)
    out[nz] = g_lo + frac * (g_hi - g_lo)
    return out


def _max_plateau_stats(
    grid: np.ndarray, surface: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-row (max value, plateau mean, plateau min, plateau max)."""
    peak = surface.max(axis=1, keepdims=True)
    on_peak = surface >= peak * (1.0 - _MAX_RTOL) - 1e-15
    counts = on_peak.sum(axis=1)
    mean = (on_peak * grid[None, :]).sum(axis=1) / np.maximum(counts, 1)
    big = np.where(on_peak, grid[None, :], np.inf)
    small = np.where(on_peak, grid[None, :], -np.inf)
    return peak[:, 0], mean, big.min(axis=1), small.max(axis=1)


def mean_of_maximum(grid: np.ndarray, surface: np.ndarray) -> np.ndarray:
    """Mean abscissa of the maximal-membership plateau."""
    grid, surface = _validate_surface(grid, surface)
    peak, mean, _, _ = _max_plateau_stats(grid, surface)
    return np.where(peak > 0.0, mean, _fallback(grid))


def smallest_of_maximum(grid: np.ndarray, surface: np.ndarray) -> np.ndarray:
    """Leftmost abscissa attaining the maximum membership."""
    grid, surface = _validate_surface(grid, surface)
    peak, _, lo, _ = _max_plateau_stats(grid, surface)
    return np.where(peak > 0.0, lo, _fallback(grid))


def largest_of_maximum(grid: np.ndarray, surface: np.ndarray) -> np.ndarray:
    """Rightmost abscissa attaining the maximum membership."""
    grid, surface = _validate_surface(grid, surface)
    peak, _, _, hi = _max_plateau_stats(grid, surface)
    return np.where(peak > 0.0, hi, _fallback(grid))


def weighted_average(
    term_centroids: np.ndarray, term_activation: np.ndarray, fallback: float
) -> np.ndarray:
    """Sugeno-style weighted average of term centroids.

    Parameters
    ----------
    term_centroids:
        ``(n_terms,)`` centroid of each output term's membership function.
    term_activation:
        ``(n_terms, n_samples)`` per-term activations.
    fallback:
        Value returned for samples where no term fires at all.

    Notes
    -----
    This defuzzifier skips universe sampling entirely, which makes it the
    fastest option (no ``(N, P)`` surface) — the X5 bench quantifies the
    gap.  It is *not* identical to the centroid of the clipped union, but
    tracks it closely for Ruspini partitions.
    """
    c = np.asarray(term_centroids, dtype=float)
    a = np.asarray(term_activation, dtype=float)
    if a.ndim != 2 or a.shape[0] != c.shape[0]:
        raise ValueError(
            f"term_activation shape {a.shape} incompatible with "
            f"{c.shape[0]} term centroids"
        )
    total = a.sum(axis=0)
    out = np.full(a.shape[1], float(fallback))
    nz = total > 0.0
    # a convex combination of centroids lies inside their hull; enforce
    # that under floating point too (subnormal activations can round
    # the quotient past an endpoint, e.g. 0.8*5e-324/5e-324 == 1.0)
    out[nz] = np.clip(
        (c[:, None] * a).sum(axis=0)[nz] / total[nz], c.min(), c.max()
    )
    return out


DEFUZZIFIERS: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "centroid": centroid,
    "bisector": bisector,
    "mom": mean_of_maximum,
    "som": smallest_of_maximum,
    "lom": largest_of_maximum,
}


def get_defuzzifier(name: str) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Look up an area-based defuzzifier by name.

    ``"wavg"`` is intentionally absent: the weighted average has a
    different signature (no universe sampling) and is selected via the
    controller's ``defuzzifier="wavg"`` fast path instead.
    """
    try:
        return DEFUZZIFIERS[name]
    except KeyError:
        raise ValueError(
            f"unknown defuzzifier {name!r}; available: "
            f"{', '.join(sorted(DEFUZZIFIERS))} (plus 'wavg' via the controller)"
        ) from None
