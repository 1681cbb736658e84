"""Measurement sampling along a trace.

:class:`MeasurementSampler` turns a mobility :class:`Trace` into the
time series the handover policies consume: for every measurement epoch
(trace samples spaced ``measurement_spacing_km`` apart) the received
power from *every* BS of the layout, optionally impaired by shadow
fading.  The whole power matrix is computed in one vectorised
propagation call — no per-epoch Python work.

For large fleets the fully materialised ``(n_ues, n_epochs, n_cells)``
power cube dominates peak memory.  :meth:`MeasurementSampler.
measure_batch_tiles` instead produces a :class:`TiledBatchMeasurement`
— an epoch-tiled stream whose tiles run the pathloss kernel on the UEs
still walking, a bounded chunk of rows per call, and continue the
fleet's fading on demand, into one recycled ``(n_ues, tile_epochs,
n_cells)`` buffer — byte-identical to the materialised path, padding
included (pinned by the streaming test suite).  Every fleet range
streams :data:`DEFAULT_TILE_EPOCHS`-epoch tiles; the materialised
:meth:`MeasurementSampler.measure_batch` serves full logs, recorded
traces and the oracles.

Every batch path fades through one
:class:`~repro.radio.fading.FadingBank` over per-UE processes
(``fading_profiles``), so the materialised series and the tile stream
draw the same values; a sampler's single shared process is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from ..geometry.layout import CellLayout
from ..mobility.base import Trace, TraceBatch
from ..radio.fading import FadingBank, ShadowFading
from ..radio.propagation import PropagationModel

__all__ = [
    "MeasurementSeries",
    "BatchMeasurementSeries",
    "MeasurementSampler",
    "MeasurementTile",
    "TiledBatchMeasurement",
    "DEFAULT_TILE_EPOCHS",
]

Cell = tuple[int, int]

#: Tile size every fleet range streams with (read at call time, so a
#: test may patch it to get tiles at a small size).  Small enough that
#: the per-tile power buffer stays a fraction of the resident positions
#: / distance arrays, large enough that per-tile Python overhead is
#: noise.
DEFAULT_TILE_EPOCHS = 16

#: Live UE rows per pathloss call when a tile is filled: the kernel's
#: output beside the recycled tile buffer stays one chunk, not a tile.
_ROWS_PER_CALL = 2048


def _fading_bank(
    profiles: Optional[Sequence[Optional[ShadowFading]]], n_cells: int
) -> Optional[FadingBank]:
    """The fading bank over per-UE ``profiles``, or ``None`` when no UE
    fades."""
    if profiles is None:
        return None
    bank = FadingBank(profiles, n_cells)
    return bank if len(bank) else None


@dataclass(frozen=True)
class MeasurementSeries:
    """Per-epoch measurements along one trace.

    Attributes
    ----------
    positions_km:
        ``(n, 2)`` MS position per epoch.
    distance_km:
        ``(n,)`` cumulative walked distance (the x-axis of the paper's
        "received power along random walk" figures).
    power_dbw:
        ``(n, n_cells)`` received power from every BS, fading included.
    layout:
        The layout the columns refer to (column k ↔ ``layout.cells[k]``).
    """

    positions_km: np.ndarray
    distance_km: np.ndarray
    power_dbw: np.ndarray
    layout: CellLayout

    def __post_init__(self) -> None:
        n = self.positions_km.shape[0]
        if self.positions_km.shape != (n, 2):
            raise ValueError(
                f"positions_km must be (n, 2), got {self.positions_km.shape}"
            )
        if self.distance_km.shape != (n,):
            raise ValueError(
                f"distance_km must be (n,), got {self.distance_km.shape}"
            )
        if self.power_dbw.shape != (n, self.layout.n_cells):
            raise ValueError(
                f"power_dbw must be (n, {self.layout.n_cells}), "
                f"got {self.power_dbw.shape}"
            )

    # ------------------------------------------------------------------
    @property
    def n_epochs(self) -> int:
        return self.positions_km.shape[0]

    def __len__(self) -> int:
        return self.n_epochs

    def power_of(self, cell: Cell) -> np.ndarray:
        """``(n,)`` power series of one BS (paper Figs. 9–11)."""
        return self.power_dbw[:, self.layout.index_of(cell)]

    def strongest_cell_indices(self) -> np.ndarray:
        """``(n,)`` index of the instantaneously strongest BS."""
        return self.power_dbw.argmax(axis=1)

    def distances_to_bs(self, cell: Cell) -> np.ndarray:
        """``(n,)`` geometric distance to one BS."""
        pos = self.layout.bs_position(cell)
        d = self.positions_km - pos[None, :]
        return np.sqrt((d * d).sum(axis=1))

    def epoch_slice(self, start: int, stop: int) -> "MeasurementSeries":
        """Sub-series of epochs ``[start, stop)``."""
        return MeasurementSeries(
            positions_km=self.positions_km[start:stop],
            distance_km=self.distance_km[start:stop],
            power_dbw=self.power_dbw[start:stop],
            layout=self.layout,
        )


@dataclass(frozen=True)
class BatchMeasurementSeries:
    """Per-epoch measurements for a whole fleet, in padded lockstep form.

    Attributes
    ----------
    positions_km:
        ``(n_ues, n_epochs, 2)`` MS position per UE per epoch.  Rows past
        a UE's ``lengths`` entry repeat its final position (see
        :class:`~repro.mobility.base.TraceBatch`).
    distance_km:
        ``(n_ues, n_epochs)`` cumulative walked distance per UE.
    power_dbw:
        ``(n_ues, n_epochs, n_cells)`` received power from every BS.
    lengths:
        ``(n_ues,)`` number of valid epochs per UE; consumers mask by it.
    layout:
        The layout the power columns refer to.
    """

    positions_km: np.ndarray
    distance_km: np.ndarray
    power_dbw: np.ndarray
    lengths: np.ndarray
    layout: CellLayout

    def __post_init__(self) -> None:
        n, t = self.positions_km.shape[:2]
        if self.positions_km.shape != (n, t, 2):
            raise ValueError(
                f"positions_km must be (n, t, 2), got {self.positions_km.shape}"
            )
        if self.distance_km.shape != (n, t):
            raise ValueError(
                f"distance_km must be ({n}, {t}), got {self.distance_km.shape}"
            )
        if self.power_dbw.shape != (n, t, self.layout.n_cells):
            raise ValueError(
                f"power_dbw must be ({n}, {t}, {self.layout.n_cells}), "
                f"got {self.power_dbw.shape}"
            )
        if self.lengths.shape != (n,):
            raise ValueError(
                f"lengths must be ({n},), got {self.lengths.shape}"
            )

    # ------------------------------------------------------------------
    @property
    def n_ues(self) -> int:
        return self.positions_km.shape[0]

    @property
    def max_epochs(self) -> int:
        return self.positions_km.shape[1]

    def __len__(self) -> int:
        return self.n_ues

    def ue_series(self, i: int) -> MeasurementSeries:
        """UE ``i``'s measurements as a scalar series (padding stripped,
        bit-identical to measuring that UE's trace alone)."""
        t = int(self.lengths[i])
        return MeasurementSeries(
            positions_km=self.positions_km[i, :t].copy(),
            distance_km=self.distance_km[i, :t].copy(),
            power_dbw=self.power_dbw[i, :t].copy(),
            layout=self.layout,
        )

    def strongest_cell_indices(self) -> np.ndarray:
        """``(n_ues, n_epochs)`` index of the strongest BS per epoch
        (padded epochs carry the repeated final position's argmax)."""
        return self.power_dbw.argmax(axis=2)

    def epoch_slice(self, start: int, stop: int) -> "BatchMeasurementSeries":
        """The sub-series of epochs ``[start, stop)``, as *views*.

        No array data is copied — the result shares memory with this
        series (read-only downstream use only).  ``lengths`` are clipped
        to the slice, so consumers mask exactly the epochs that are
        valid inside it.
        """
        if not (0 <= start < stop <= self.max_epochs):
            raise ValueError(
                f"epoch slice [{start}, {stop}) out of range for "
                f"{self.max_epochs} epochs"
            )
        return BatchMeasurementSeries(
            positions_km=self.positions_km[:, start:stop],
            distance_km=self.distance_km[:, start:stop],
            power_dbw=self.power_dbw[:, start:stop],
            lengths=np.clip(self.lengths - start, 0, stop - start),
            layout=self.layout,
        )

    def tiles(self) -> Iterator["MeasurementTile"]:
        """The series as one full-width :class:`MeasurementTile` of
        views — the tile stream's interface, so an epoch loop drives
        both sources alike."""
        yield MeasurementTile(
            start=0,
            positions_km=self.positions_km,
            distance_km=self.distance_km,
            power_dbw=self.power_dbw,
        )


@dataclass(frozen=True)
class MeasurementTile:
    """One epoch tile of a :class:`TiledBatchMeasurement` stream.

    ``positions_km`` / ``distance_km`` are views into the stream's
    resident mobility arrays; ``power_dbw`` is the stream's recycled
    per-tile buffer.  A tile is valid until the next tile is requested
    from the generator — consumers must finish (or copy) it before
    advancing.
    """

    #: global epoch index of the tile's first row
    start: int
    positions_km: np.ndarray  # (n_ues, k, 2)
    distance_km: np.ndarray  # (n_ues, k)
    power_dbw: np.ndarray  # (n_ues, k, n_cells)

    @property
    def n_epochs(self) -> int:
        return self.distance_km.shape[1]

    @property
    def stop(self) -> int:
        return self.start + self.n_epochs


class TiledBatchMeasurement:
    """An epoch-tiled measurement stream for a whole fleet.

    The structural twin of :class:`BatchMeasurementSeries` minus the
    materialised power cube: mobility stays resident (positions and
    cumulative distances are 3 floats per UE-epoch), while received
    power — ``n_cells`` floats per UE-epoch, the dominant term — is
    computed tile by tile into one recycled ``(n_ues, tile_epochs,
    n_cells)`` buffer as :meth:`tiles` is consumed.  Peak memory is
    therefore O(N·K·cells) in the power term regardless of horizon.

    Byte-identity with the materialised path holds per construction.
    The pathloss kernel is elementwise per (UE, epoch), so a tile runs
    it only on the UEs whose walk reaches the tile; a finished walk's
    rows repeat its final position (the padding rule of
    :class:`BatchMeasurementSeries`), so they get that one position's
    power row.  Fading continues across tiles through
    one :class:`~repro.radio.fading.FadingBank` over the per-UE
    processes (the same draws as the one-shot ``sample_along``); a
    process shared by two UEs is refused.

    With fading, :meth:`tiles` is single-shot — consuming it advances
    the per-UE fading generators, so a second pass would silently draw
    different noise; the stream guards it with a :class:`RuntimeError`.
    """

    def __init__(
        self,
        positions_km: np.ndarray,
        distance_km: np.ndarray,
        lengths: np.ndarray,
        layout: CellLayout,
        propagation: PropagationModel,
        tile_epochs: int,
        fading_profiles: Optional[
            Sequence[Optional[ShadowFading]]
        ] = None,
    ) -> None:
        n, t = positions_km.shape[:2]
        if positions_km.shape != (n, t, 2):
            raise ValueError(
                f"positions_km must be (n, t, 2), got {positions_km.shape}"
            )
        if distance_km.shape != (n, t):
            raise ValueError(
                f"distance_km must be ({n}, {t}), got {distance_km.shape}"
            )
        if lengths.shape != (n,):
            raise ValueError(f"lengths must be ({n},), got {lengths.shape}")
        if tile_epochs < 1:
            raise ValueError(
                f"tile_epochs must be >= 1, got {tile_epochs}"
            )
        if fading_profiles is not None and len(fading_profiles) != n:
            raise ValueError(
                f"{n} UEs but {len(fading_profiles)} fading profiles"
            )
        self.positions_km = positions_km
        self.distance_km = distance_km
        self.lengths = lengths
        self.layout = layout
        self.propagation = propagation
        self.tile_epochs = int(tile_epochs)
        self._bank = _fading_bank(fading_profiles, layout.n_cells)
        self._consumed = False

    # ------------------------------------------------------------------
    @property
    def n_ues(self) -> int:
        return self.positions_km.shape[0]

    @property
    def max_epochs(self) -> int:
        return self.positions_km.shape[1]

    def __len__(self) -> int:
        return self.n_ues

    def tiles(self) -> Iterator[MeasurementTile]:
        """Generate the measurement tiles, in epoch order."""
        if self._consumed:
            raise RuntimeError(
                "this tile stream's fading generators were already "
                "consumed; rebuild the stream from the sampler"
            )
        if self._bank is not None:
            self._consumed = True
        return self._tiles()

    def _tiles(self) -> Iterator[MeasurementTile]:
        n, t_max = self.n_ues, self.max_epochs
        tile = self.tile_epochs
        n_cells = self.layout.n_cells
        bs = self.layout.bs_positions
        lengths = self.lengths
        kernel = self.propagation.power_from_sites_batch
        # one preallocated per-tile power buffer, recycled every tile
        # (the short tail tile is a view of its first epochs)
        power_buf = np.empty((n, min(tile, t_max), n_cells))
        for lo in range(0, t_max, tile):
            hi = min(lo + tile, t_max)
            positions = self.positions_km[:, lo:hi]
            distance = self.distance_km[:, lo:hi]
            buf = power_buf[:, : hi - lo]
            live = lengths > lo
            dead = np.flatnonzero(~live)
            if dead.shape[0]:
                # a finished walk's rows all repeat its final position
                buf[dead] = kernel(bs, positions[dead, :1])
            rows = np.flatnonzero(live)
            for c in range(0, rows.shape[0], _ROWS_PER_CALL):
                chunk = rows[c : c + _ROWS_PER_CALL]
                buf[chunk] = kernel(bs, positions[chunk])
            if self._bank is not None:
                self._bank.add_to(
                    buf, distance, np.clip(lengths - lo, 0, hi - lo)
                )
            yield MeasurementTile(
                start=lo,
                positions_km=positions,
                distance_km=distance,
                power_dbw=buf,
            )

    def __repr__(self) -> str:
        return (
            f"TiledBatchMeasurement(n_ues={self.n_ues}, "
            f"max_epochs={self.max_epochs}, "
            f"tile_epochs={self.tile_epochs})"
        )


class MeasurementSampler:
    """Builds :class:`MeasurementSeries` from traces.

    Parameters
    ----------
    layout:
        BS layout.
    propagation:
        Downlink propagation model (shared by all BSs — the paper's
        homogeneous deployment).
    spacing_km:
        Measurement-epoch spacing along the walk.
    fading:
        Optional shadowing process; one independent correlated process
        per BS.  ``None`` gives noise-free measurements.  Only
        :meth:`measure` draws from it; the batch paths take one process
        per UE (``fading_profiles``) and refuse a fading sampler without
        them.

    The pathloss kernel is the propagation model's own pin
    (:meth:`~repro.radio.propagation.PropagationModel.with_backend`).
    """

    def __init__(
        self,
        layout: CellLayout,
        propagation: PropagationModel,
        spacing_km: float = 0.05,
        fading: Optional[ShadowFading] = None,
    ) -> None:
        if not (spacing_km > 0 and math.isfinite(spacing_km)):
            raise ValueError(
                f"spacing_km must be positive and finite, got {spacing_km}"
            )
        self.layout = layout
        self.propagation = propagation
        self.spacing_km = float(spacing_km)
        self.fading = fading

    def measure(self, trace: Trace) -> MeasurementSeries:
        """Sample one trace into a measurement series."""
        dense = trace.densify(self.spacing_km)
        positions = dense.positions
        power = self.propagation.power_from_sites(
            self.layout.bs_positions, positions
        )
        distance = dense.cumulative_distance()
        if self.fading is not None and self.fading.sigma_db > 0.0:
            power = power + self.fading.sample_along(
                distance, n_sources=self.layout.n_cells
            )
        return MeasurementSeries(
            positions_km=positions,
            distance_km=distance,
            power_dbw=power,
            layout=self.layout,
        )

    def measure_batch(
        self,
        batch: TraceBatch,
        fading_profiles: Optional[Sequence[Optional[ShadowFading]]] = None,
    ) -> BatchMeasurementSeries:
        """Sample a whole fleet of traces into the materialised series.

        The fleet is densified at once (exactly the scalar float ops),
        then *all* UEs' positions go through a single propagation kernel
        and every fading UE through one
        :class:`~repro.radio.fading.FadingBank` over the whole horizon.

        ``fading_profiles`` is the per-UE fading vector: one
        self-contained :class:`ShadowFading` — or ``None`` for a
        noise-free UE — per trace, so cohorts may mix sigmas and
        decorrelation lengths within one batch.  UE ``i``'s
        measurements are bit-identical to a scalar :meth:`measure` on a
        sampler fading with ``fading_profiles[i]``.
        """
        dense = batch.densify(self.spacing_km)
        bank = _fading_bank(
            self._profiles(dense, fading_profiles), self.layout.n_cells
        )
        power = self.propagation.power_from_sites_batch(
            self.layout.bs_positions, dense.positions
        )
        distance = dense.cumulative_distances()
        if bank is not None:
            bank.add_to(power, distance, dense.lengths)
        return BatchMeasurementSeries(
            positions_km=dense.positions,
            distance_km=distance,
            power_dbw=power,
            lengths=dense.lengths,
            layout=self.layout,
        )

    def measure_batch_tiles(
        self,
        batch: TraceBatch,
        tile_epochs: int = DEFAULT_TILE_EPOCHS,
        fading_profiles: Optional[Sequence[Optional[ShadowFading]]] = None,
    ) -> TiledBatchMeasurement:
        """The epoch-tiled streaming counterpart of :meth:`measure_batch`.

        Mobility is densified once (positions and cumulative distances
        stay resident); the power cube is generated in ``tile_epochs``
        tiles (at least 1; at most the horizon) as the returned
        :class:`TiledBatchMeasurement` is consumed — byte-identical per
        UE to the materialised path, at O(N·tile_epochs·cells) peak
        memory in the power term.  Fading takes the same per-UE
        ``fading_profiles`` as :meth:`measure_batch`.
        """
        dense = batch.densify(self.spacing_km)
        return TiledBatchMeasurement(
            positions_km=dense.positions,
            distance_km=dense.cumulative_distances(),
            lengths=dense.lengths,
            layout=self.layout,
            propagation=self.propagation,
            tile_epochs=min(tile_epochs, dense.max_points),
            fading_profiles=self._profiles(dense, fading_profiles),
        )

    def _profiles(
        self,
        dense: TraceBatch,
        fading_profiles: Optional[Sequence[Optional[ShadowFading]]],
    ) -> Optional[list[Optional[ShadowFading]]]:
        """``fading_profiles`` checked against the batch.  Without them
        a fading sampler is refused: its one process would be shared by
        every UE, whose draws then depend on the order UEs are visited
        in."""
        if fading_profiles is not None:
            if len(fading_profiles) != dense.n_traces:
                raise ValueError(
                    f"{dense.n_traces} traces but {len(fading_profiles)} "
                    "fading profiles"
                )
            return list(fading_profiles)
        if self.fading is not None and self.fading.sigma_db > 0.0:
            raise ValueError(
                "this sampler fades, so batch measurement needs per-UE "
                "fading_profiles; one process shared by every UE is not "
                "supported"
            )
        return None

    def __repr__(self) -> str:
        return (
            f"MeasurementSampler(layout={self.layout!r}, "
            f"spacing_km={self.spacing_km:g}, "
            f"fading={self.fading!r})"
        )
