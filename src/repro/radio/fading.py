"""Shadow fading and the paper's speed penalty.

Two stochastic impairments sit between the deterministic propagation
model and the measurements the handover controller sees:

* **log-normal shadow fading** — Gaussian noise in the dB domain.  The
  paper cites shadow fading as the *cause* of the ping-pong effect; we
  provide both i.i.d. fading and the spatially correlated Gudmundson
  model (exponential autocorrelation with a decorrelation distance),
  which is what makes consecutive samples realistically sticky.
* **speed penalty** — the paper's simple velocity model: "for each
  10 km/h the signal strength is decreased 2 db" (Sec. 5), applied to
  the neighbour-BS measurement (that is the row that moves with speed in
  Tables 3/4).

Fleets fade through one :class:`FadingBank`: every UE keeps its own
process and generator, but the AR(1) arithmetic runs over all of them at
once.  :meth:`ShadowFading.sample_along` (one UE, one shot) and
:class:`ShadowFadingStream` (one UE, chunk by chunk) are the oracles the
bank reproduces bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

__all__ = [
    "ShadowFading",
    "ShadowFadingStream",
    "FadingBank",
    "FADING_BLOCK_EPOCHS",
    "FADING_BLOCK_UES",
    "speed_penalty_db",
    "apply_speed_penalty",
]

ArrayLike = Union[float, np.ndarray]

#: dB of loss per km/h of MS speed (2 dB per 10 km/h).
SPEED_PENALTY_DB_PER_KMH = 0.2

#: Epochs a :class:`FadingBank` draws and recurses at a time, whatever
#: the width of the window it fills (one tile or a whole materialised
#: horizon).
FADING_BLOCK_EPOCHS = 16

#: Fading UEs one :class:`FadingBank` block covers: its scratch stays
#: ``(FADING_BLOCK_UES, FADING_BLOCK_EPOCHS, n_sources)`` whatever the
#: fleet size.  Draws are per UE, so the values do not depend on it.
FADING_BLOCK_UES = 256


def speed_penalty_db(speed_kmh: ArrayLike) -> ArrayLike:
    """Signal-strength penalty in dB for an MS speed in km/h.

    Negative speeds are rejected; the penalty is returned as a positive
    number of dB to *subtract* from a measurement.
    """
    s = np.asarray(speed_kmh, dtype=float)
    if np.any(s < 0):
        raise ValueError("speed must be >= 0 km/h")
    out = SPEED_PENALTY_DB_PER_KMH * s
    if out.ndim == 0:
        return float(out)
    return out


def apply_speed_penalty(power_dbw: ArrayLike, speed_kmh: float) -> ArrayLike:
    """Measurement after the paper's speed degradation."""
    out = np.asarray(power_dbw, dtype=float) - speed_penalty_db(speed_kmh)
    if out.ndim == 0:
        return float(out)
    return out


@dataclass
class ShadowFading:
    """Log-normal shadowing generator.

    Parameters
    ----------
    sigma_db:
        Standard deviation of the Gaussian dB noise.  ``0`` disables
        fading (the generator then returns zeros, handy for the
        deterministic experiment paths).
    decorrelation_km:
        If positive, samples along a trace are correlated with the
        Gudmundson exponential model
        ``ρ(Δd) = exp(-Δd / decorrelation_km)``; if 0, samples are
        i.i.d.
    rng:
        NumPy generator (or seed) for reproducibility.
    """

    sigma_db: float = 4.0
    decorrelation_km: float = 0.0
    rng: Union[np.random.Generator, int, None] = None

    def __post_init__(self) -> None:
        if self.sigma_db < 0 or not math.isfinite(self.sigma_db):
            raise ValueError(f"sigma_db must be >= 0, got {self.sigma_db}")
        if not self.decorrelation_km >= 0:  # NaN fails too
            raise ValueError(
                f"decorrelation_km must be >= 0, got {self.decorrelation_km}"
            )
        if not isinstance(self.rng, np.random.Generator):
            self.rng = np.random.default_rng(self.rng)

    # ------------------------------------------------------------------
    def sample_iid(self, shape: tuple[int, ...]) -> np.ndarray:
        """Independent Gaussian dB samples of the given shape."""
        if self.sigma_db == 0.0:
            return np.zeros(shape)
        return self.rng.normal(0.0, self.sigma_db, size=shape)

    def sample_along(
        self, distances_km: np.ndarray, n_sources: int = 1
    ) -> np.ndarray:
        """Correlated shadowing along a trace.

        Parameters
        ----------
        distances_km:
            ``(n_steps,)`` cumulative distance of each trace sample; only
            consecutive differences matter.
        n_sources:
            Number of independent fading processes (one per BS).

        Returns
        -------
        ``(n_steps, n_sources)`` dB offsets.  With
        ``decorrelation_km == 0`` this degrades to i.i.d. samples.
        """
        d = np.asarray(distances_km, dtype=float)
        if d.ndim != 1:
            raise ValueError(f"distances must be 1-D, got shape {d.shape}")
        if n_sources < 1:
            raise ValueError(f"n_sources must be >= 1, got {n_sources}")
        n = d.shape[0]
        if n == 0:
            return np.zeros((0, n_sources))
        if self.sigma_db == 0.0:
            return np.zeros((n, n_sources))
        if self.decorrelation_km == 0.0:
            return self.sample_iid((n, n_sources))
        steps = np.abs(np.diff(d))
        rho = np.exp(-steps / self.decorrelation_km)  # (n-1,)
        out = np.empty((n, n_sources))
        out[0] = self.rng.normal(0.0, self.sigma_db, size=n_sources)
        innovations = self.rng.normal(0.0, 1.0, size=(n - 1, n_sources))
        # AR(1) recursion: x_k = rho*x_{k-1} + sigma*sqrt(1-rho^2)*eps
        scale = self.sigma_db * np.sqrt(1.0 - rho * rho)
        for k in range(1, n):
            out[k] = rho[k - 1] * out[k - 1] + scale[k - 1] * innovations[k - 1]
        return out

    def __repr__(self) -> str:
        return (
            f"ShadowFading(sigma_db={self.sigma_db:g}, "
            f"decorrelation_km={self.decorrelation_km:g})"
        )


class ShadowFadingStream:
    """Chunk-by-chunk view of :meth:`ShadowFading.sample_along` — the
    per-UE oracle of :class:`FadingBank`, which batch measurement runs
    instead.

    Feeding consecutive chunks of one cumulative-distance vector through
    :meth:`sample_next` reproduces, bit for bit, the samples a single
    :meth:`ShadowFading.sample_along` call over the concatenated vector
    would draw.  Two facts make that possible:

    * ``Generator.normal`` fills arrays sequentially from the bit
      stream, so splitting the one-shot innovation draw
      ``normal(0, 1, (n-1, n_sources))`` into row-chunks consumes the
      generator identically;
    * the AR(1) recursion only needs the previous output row and the
      previous cumulative distance (for the boundary step's ``rho``),
      which the stream carries across tiles.

    The stream *owns* the process's rng consumption: interleaving
    ``sample_next`` with direct ``sample_along`` calls on the same
    process, or running two streams over one process, changes the draw
    order and breaks the equivalence — each UE needs its own process
    (the per-global-UE-index seeding the fleet layer already provides).
    """

    def __init__(self, process: ShadowFading) -> None:
        self.process = process
        self._last: np.ndarray | None = None
        self._last_distance_km = 0.0
        self._started = False

    def sample_next(
        self, distances_km: np.ndarray, n_sources: int = 1
    ) -> np.ndarray:
        """The next ``(len(distances_km), n_sources)`` dB offsets.

        ``distances_km`` must continue the cumulative-distance vector of
        the previous call (the boundary step between tiles is taken from
        the carried last distance).
        """
        p = self.process
        d = np.asarray(distances_km, dtype=float)
        if d.ndim != 1:
            raise ValueError(f"distances must be 1-D, got shape {d.shape}")
        if n_sources < 1:
            raise ValueError(f"n_sources must be >= 1, got {n_sources}")
        n = d.shape[0]
        if n == 0:
            return np.zeros((0, n_sources))
        if p.sigma_db == 0.0:
            return np.zeros((n, n_sources))
        if p.decorrelation_km == 0.0:
            # i.i.d. fading: the one-shot draw is a single sequential
            # array fill, so chunked draws consume the rng identically
            return p.rng.normal(0.0, p.sigma_db, size=(n, n_sources))
        out = np.empty((n, n_sources))
        if not self._started:
            self._started = True
            steps = np.abs(np.diff(d))
            rho = np.exp(-steps / p.decorrelation_km)
            out[0] = p.rng.normal(0.0, p.sigma_db, size=n_sources)
            innovations = p.rng.normal(0.0, 1.0, size=(n - 1, n_sources))
            scale = p.sigma_db * np.sqrt(1.0 - rho * rho)
            for k in range(1, n):
                out[k] = (
                    rho[k - 1] * out[k - 1]
                    + scale[k - 1] * innovations[k - 1]
                )
        else:
            # continuation tile: every row consumes one innovation; the
            # first row's rho spans the tile boundary
            steps = np.abs(
                np.diff(np.concatenate(([self._last_distance_km], d)))
            )
            rho = np.exp(-steps / p.decorrelation_km)
            innovations = p.rng.normal(0.0, 1.0, size=(n, n_sources))
            scale = p.sigma_db * np.sqrt(1.0 - rho * rho)
            prev = self._last
            for k in range(n):
                out[k] = rho[k] * prev + scale[k] * innovations[k]
                prev = out[k]
        self._last = out[-1].copy()
        self._last_distance_km = float(d[-1])
        return out


class FadingBank:
    """Shadow fading for a whole fleet, one epoch window at a time.

    The fleet-wide form of one :class:`ShadowFadingStream` per UE.
    ``profiles[i]`` is UE ``i``'s own process (``None`` or a zero sigma:
    no fading), and every :meth:`add_to` call adds to each fading UE the
    samples its stream's :meth:`~ShadowFadingStream.sample_next` would
    return for the same epochs, bit for bit — so a horizon filled in one
    call or tile by tile gets the same values.

    Only the draws loop over UEs: one ``standard_normal(out=)`` call per
    UE and block fills the UE's rows of a UE-major scratch with the
    standard normals the stream's ``normal`` calls draw, in the stream's
    order (a generator fills arrays sequentially, so one call draws what
    the stream's one or two calls draw).  ``normal(0.0, s)`` is ``0.0 +
    s·z``, so one array pass over the block gives its bits: ``σ·z + 0.0``
    for i.i.d. fading and a process's first AR(1) row, ``z + 0.0`` for
    unit innovations.  Rho, the innovation scale and the recursion then
    run once per block of :data:`FADING_BLOCK_EPOCHS` epochs over up to
    :data:`FADING_BLOCK_UES` fading UEs, looping over the block's epochs.
    Only the values are the contract: nothing reads a generator's state
    between windows, so where each generator stops is the bank's own
    business.  The AR(1) boundary row ``(m, cells)``, boundary distance ``(m,)`` and started
    flag of the ``m`` fading UEs are arrays.  Each UE must own its
    generator: two UEs drawing from one would make the values depend on
    the draw order, so the bank refuses a shared one.
    """

    def __init__(
        self, profiles: Sequence[Optional[ShadowFading]], n_sources: int
    ) -> None:
        if n_sources < 1:
            raise ValueError(f"n_sources must be >= 1, got {n_sources}")
        members = [
            i
            for i, p in enumerate(profiles)
            if p is not None and p.sigma_db > 0.0
        ]
        owner: dict[int, int] = {}
        for i in members:
            j = owner.setdefault(id(profiles[i].rng), i)
            if j != i:
                raise ValueError(
                    f"UEs {j} and {i} share one fading Generator; every "
                    "UE needs its own (one seed per UE)"
                )
        self.n_ues = len(profiles)
        self.n_sources = int(n_sources)
        #: UE index of each fading UE, ascending
        self.rows = np.array(members, dtype=np.intp)
        self._fill = [profiles[i].rng.standard_normal for i in members]
        self.sigma = np.array(
            [profiles[i].sigma_db for i in members], dtype=float
        )
        self.decorrelation = np.array(
            [profiles[i].decorrelation_km for i in members], dtype=float
        )
        m = len(members)
        self.last = np.zeros((m, self.n_sources))
        self.last_distance = np.zeros(m)
        self.started = np.zeros(m, dtype=bool)
        self._ar = self.decorrelation > 0.0

    def __len__(self) -> int:
        """Number of fading UEs."""
        return self.rows.shape[0]

    # ------------------------------------------------------------------
    def add_to(
        self,
        power: np.ndarray,
        distance_km: np.ndarray,
        valid: np.ndarray,
    ) -> None:
        """Add the next fading samples to ``power`` in place.

        ``power`` is ``(n_ues, w, n_sources)`` and ``distance_km``
        ``(n_ues, w)``, the cumulative distance of the same epochs,
        continuing each UE's previous window.  ``valid`` ``(n_ues,)``
        counts the leading epochs of the window that lie on each UE's
        walk; only those get fading and advance its process.
        """
        w = power.shape[1]
        counts = np.minimum(valid[self.rows], w)
        for b0 in range(0, int(counts.max(initial=0)), FADING_BLOCK_EPOCHS):
            b1 = min(b0 + FADING_BLOCK_EPOCHS, w)
            live = counts > b0
            for ar in (True, False):
                members = np.flatnonzero(live & (self._ar == ar))
                for c in range(0, members.shape[0], FADING_BLOCK_UES):
                    sel = members[c : c + FADING_BLOCK_UES]
                    self._block(
                        power, distance_km, b0, b1, sel,
                        np.minimum(counts[sel] - b0, b1 - b0), ar,
                    )

    def _block(self, power, distance_km, b0, b1, sel, cnt, ar) -> None:
        """Fill epochs ``[b0, b1)`` of the bank members ``sel``, each on
        its walk for the first ``cnt`` epochs of the block.  The block
        is UE-major, ``(m, width, cells)``, so each UE's draws fill one
        contiguous run in one ``standard_normal`` call."""
        m, width, cells = sel.shape[0], b1 - b0, self.n_sources
        fill = self._fill
        full = int(cnt.min()) == width
        # zeroed past each walk's end, so the recursion stays finite there
        z = (np.empty if full else np.zeros)((m, width, cells))
        for k, (u, t) in enumerate(zip(sel.tolist(), cnt.tolist())):
            fill[u](out=z[k, :t])
        if ar:
            self._recurse(z, distance_km, b0, b1, sel, cnt)
        else:
            # normal(0.0, σ) is 0.0 + σ·z: σ·z + 0.0 has its bits, the
            # sign of a zero included
            np.multiply(z, self.sigma[sel, None, None], out=z)
            np.add(z, 0.0, out=z)
        rows = self.rows[sel]
        lo = int(rows[0])
        contiguous = int(rows[-1]) - lo + 1 == m
        target = (
            power[lo : lo + m, b0:b1] if contiguous else power[rows, b0:b1]
        )
        if full:
            np.add(target, z, out=target)
        else:
            on_walk = cnt[:, None] > np.arange(width)
            np.add(target, z, out=target, where=on_walk[:, :, None])
        if not contiguous:
            power[rows, b0:b1] = target

    def _recurse(self, z, distance_km, b0, b1, sel, cnt) -> None:
        """Turn the block's standard normals in ``z`` into AR(1)
        samples in place with the stream's float operations, one epoch
        of every UE at a time, and carry each UE's boundary row and
        distance on.  A UE not yet started takes its first row as its
        process's first sample, ``normal(0.0, σ)``; every other row is
        an innovation, ``normal(0.0, 1.0)``, the bits of ``z + 0.0``."""
        d = distance_km[self.rows[sel], b0:b1].T
        steps = np.empty(d.shape)
        np.subtract(d[0], self.last_distance[sel], out=steps[0])
        np.subtract(d[1:], d[:-1], out=steps[1:])
        np.abs(steps, out=steps)
        rho = np.exp(-steps / self.decorrelation[sel])
        scale = self.sigma[sel] * np.sqrt(1.0 - rho * rho)
        first = np.flatnonzero(~self.started[sel])
        first_rows = self.sigma[sel[first], None] * z[first, 0] + 0.0
        np.add(z, 0.0, out=z)
        buf = z.transpose(1, 0, 2)  # epoch-major view
        np.multiply(buf, scale[:, :, None], out=buf)
        prev = self.last[sel]
        tmp = np.empty_like(prev)
        for j in range(b1 - b0):
            np.multiply(prev, rho[j, :, None], out=tmp)
            np.add(tmp, buf[j], out=buf[j])
            if j == 0 and first.size:
                # a process's first sample is its σ-scaled draw itself
                buf[0, first] = first_rows
            prev = buf[j]
        end = cnt - 1, np.arange(sel.shape[0])
        self.last[sel] = buf[end]
        self.last_distance[sel] = d[end]
        self.started[sel] = True
