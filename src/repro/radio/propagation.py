"""Received-power model tying the dipole field to receiver power.

The paper plots "received power [dB]" without stating the reference; we
use the physically standard chain and document it (DESIGN.md
substitution #2):

1. RMS field at the receiver from the tilted dipole,
   ``|E| = sqrt(45 W)·sin(θ−φ)/r^n`` (:mod:`repro.radio.antenna`);
2. power density ``S = |E|² / η`` (RMS field → no factor 2);
3. received power through the MS antenna's effective aperture,
   ``P = S · A_e`` with ``A_e = G_r·λ²/(4π)`` and ``G_r = 1.5``
   (a dipole at the handset too).

With the paper's parameters (10 W, 2000 MHz, n = 1.1, heights 40 m /
1.5 m) this lands in the −60…−140 dBW band over 0.1–7 km — the same
band as the paper's Figs. 9–13 and the FLC's SSN universe
(−120…−80 dB).

The site-matrix paths (:meth:`PropagationModel.power_from_sites` and
``power_from_sites_batch``) run on a pluggable kernel from
:mod:`repro.radio.backends`; the :attr:`PropagationModel.backend` field
(default ``None`` = the name policy of :mod:`repro.kernels`) picks
which one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Union

import numpy as np

from ..kernels import validate_backend_pin
from .antenna import DipoleAntenna
from .backends import KernelParams, get_backend
from .units import FREE_SPACE_IMPEDANCE, dbw_from_watts, wavelength_m

__all__ = ["PropagationModel"]

ArrayLike = Union[float, np.ndarray]


@dataclass(frozen=True)
class PropagationModel:
    """Downlink received-power model for one class of base stations.

    Parameters
    ----------
    antenna:
        The BS transmitter (power, height, tilt, exponent).
    frequency_hz:
        Carrier frequency (paper: 2000 MHz).
    rx_height_m:
        MS antenna height (paper: 1.5 m).
    rx_gain:
        MS antenna directivity used in the effective aperture.
    backend:
        Pathloss-kernel name for the site-matrix paths (``None`` = the
        name policy of :mod:`repro.kernels`).  Unknown names fail at
        first use, listing the backends registered on *this* host.
    """

    antenna: DipoleAntenna = field(default_factory=DipoleAntenna)
    frequency_hz: float = 2.0e9
    rx_height_m: float = 1.5
    rx_gain: float = 1.5
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        if self.frequency_hz <= 0 or not math.isfinite(self.frequency_hz):
            raise ValueError(
                f"frequency_hz must be positive, got {self.frequency_hz}"
            )
        if self.rx_height_m <= 0:
            raise ValueError(
                f"rx_height_m must be positive, got {self.rx_height_m}"
            )
        if self.rx_gain <= 0:
            raise ValueError(f"rx_gain must be positive, got {self.rx_gain}")
        validate_backend_pin(self.backend)

    # ------------------------------------------------------------------
    @property
    def wavelength(self) -> float:
        """Carrier wavelength in metres."""
        return wavelength_m(self.frequency_hz)

    @property
    def effective_aperture_m2(self) -> float:
        """MS effective aperture ``A_e = G_r λ² / 4π``."""
        lam = self.wavelength
        return self.rx_gain * lam * lam / (4.0 * math.pi)

    # ------------------------------------------------------------------
    def kernel_params(self) -> KernelParams:
        """This model's scalar physics as a pathloss-kernel bundle."""
        return KernelParams.from_model(self)

    def with_backend(self, backend: Optional[str]) -> "PropagationModel":
        """A copy of this model pinned to a pathloss backend
        (``None`` restores the shared selection policy)."""
        return replace(self, backend=backend)

    # ------------------------------------------------------------------
    def received_power_w(self, horizontal_km: ArrayLike) -> np.ndarray:
        """Received power in watts at ground distance(s) in km."""
        rho_km = np.asarray(horizontal_km, dtype=float)
        if np.any(rho_km < 0):
            raise ValueError("distances must be >= 0")
        e_rms = self.antenna.field_rms(rho_km * 1000.0, self.rx_height_m)
        density = e_rms * e_rms / FREE_SPACE_IMPEDANCE
        return density * self.effective_aperture_m2

    def received_power_dbw(self, horizontal_km: ArrayLike) -> ArrayLike:
        """Received power in dBW at ground distance(s) in km."""
        p = self.received_power_w(horizontal_km)
        out = dbw_from_watts(p)
        if np.asarray(horizontal_km).ndim == 0:
            return float(np.asarray(out))
        return out

    # ------------------------------------------------------------------
    def power_from_sites(
        self, bs_positions_km: np.ndarray, points_km: np.ndarray
    ) -> np.ndarray:
        """Received power (dBW) from many BS sites at many MS positions.

        Parameters
        ----------
        bs_positions_km:
            ``(n_bs, 2)`` BS coordinates.
        points_km:
            ``(n_pts, 2)`` MS coordinates.

        Returns
        -------
        ``(n_pts, n_bs)`` matrix of received powers in dBW; entry
        ``[p, b]`` is the power the MS at point ``p`` receives from BS
        ``b``.

        Runs on the selected :mod:`repro.radio.backends` kernel; every
        registered kernel computes the same elementwise chain as
        :meth:`received_power_dbw` (bit-identical for the NumPy-family
        backends, within the documented conformance tolerance for the
        accelerator ones).
        """
        bs = np.atleast_2d(np.asarray(bs_positions_km, dtype=float))
        pts = np.atleast_2d(np.asarray(points_km, dtype=float))
        for name, arr in (("bs_positions_km", bs), ("points_km", pts)):
            if arr.ndim != 2 or arr.shape[1] != 2:
                raise ValueError(
                    f"{name} must have shape (n, 2), got {arr.shape}"
                )
        kernel = get_backend(self.backend)
        return kernel(bs, pts, self.kernel_params())

    def power_from_sites_batch(
        self, bs_positions_km: np.ndarray, points_km: np.ndarray
    ) -> np.ndarray:
        """Received power for a whole fleet of traces in one kernel.

        Parameters
        ----------
        bs_positions_km:
            ``(n_bs, 2)`` BS coordinates.
        points_km:
            ``(n_ues, n_epochs, 2)`` MS coordinates — one row of epochs
            per UE, as produced by the batch mobility path.

        Returns
        -------
        ``(n_ues, n_epochs, n_bs)`` received powers in dBW.  Every
        (UE, epoch) entry is computed with exactly the same elementwise
        chain as :meth:`power_from_sites` (the fleet axes flatten into
        the kernel's point axis), so batched and per-trace measurements
        agree bit-for-bit on any given backend.
        """
        pts = np.asarray(points_km, dtype=float)
        if pts.ndim != 3 or pts.shape[2] != 2:
            raise ValueError(
                f"points must have shape (n_ues, n_epochs, 2), got {pts.shape}"
            )
        flat = self.power_from_sites(
            bs_positions_km, pts.reshape(-1, 2)
        )
        return flat.reshape(pts.shape[0], pts.shape[1], flat.shape[1])

    def crossover_distance_km(
        self, other: "PropagationModel", spacing_km: float, resolution: int = 4097
    ) -> float:
        """Ground distance from this BS at which the signal of an
        ``other``-class BS placed ``spacing_km`` away becomes stronger.

        Solved numerically along the straight line between the two sites;
        returns the first crossing (NaN if none exists on the segment).
        Useful for sanity-checking layouts: for identical antennas the
        crossover sits at the midpoint.
        """
        if spacing_km <= 0:
            raise ValueError(f"spacing_km must be positive, got {spacing_km}")
        xs = np.linspace(1e-3, spacing_km - 1e-3, resolution)
        mine = np.asarray(self.received_power_dbw(xs))
        theirs = np.asarray(other.received_power_dbw(spacing_km - xs))
        sign = mine - theirs
        crossing = np.nonzero(np.diff(np.sign(sign)) != 0)[0]
        if crossing.size == 0:
            return float("nan")
        k = int(crossing[0])
        # linear interpolation of the zero crossing
        x0, x1 = xs[k], xs[k + 1]
        y0, y1 = sign[k], sign[k + 1]
        if y1 == y0:
            return float(x0)
        return float(x0 - y0 * (x1 - x0) / (y1 - y0))

    def __repr__(self) -> str:
        suffix = "" if self.backend is None else f", backend={self.backend!r}"
        return (
            f"PropagationModel({self.antenna!r}, "
            f"frequency_hz={self.frequency_hz:g}, "
            f"rx_height_m={self.rx_height_m:g}{suffix})"
        )
