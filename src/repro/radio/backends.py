"""Pluggable pathloss kernel backends.

The physics kernel behind
:meth:`~repro.radio.propagation.PropagationModel.power_from_sites` /
``power_from_sites_batch`` dominates the batch/fleet profile, so it is
factored out here behind one narrow contract and a registry of
interchangeable implementations:

``kernel(bs_positions_km, points_km, params) -> power_dbw``
    * ``bs_positions_km`` — ``(n_bs, 2)`` float64 BS coordinates;
    * ``points_km`` — ``(n_pts, 2)`` float64 MS coordinates (callers
      flatten any leading batch axes and reshape the result);
    * ``params`` — a :class:`KernelParams` bundle of the scalar physics
      (heights, tilt, field amplitude, exponent, aperture);
    * returns ``(n_pts, n_bs)`` float64 received power in dBW, entry
      ``[p, b]`` the power point ``p`` receives from site ``b``.

Kernels must be *pure* and *elementwise per (point, site) pair* — no
cross-point coupling — which is what lets sharded fleets split a
workload anywhere without changing any value.

Built-in backends
-----------------
``reference``
    The seed chain of :class:`~repro.radio.propagation.PropagationModel`
    extracted verbatim (same NumPy ops, same order).  This is the
    conformance oracle every other backend is tested against.
``numpy`` (the default)
    An optimized NumPy kernel: the chain runs in place via ``out=`` over
    cache-sized blocks of points (the block of the one output array plus
    one scratch block per thread), with no ``(n_pts, n_bs, 2)``
    broadcast temporary, the ``dbw_from_watts`` where-guards fused into
    one direct ``log10`` pass, and the blocks spread over every CPU the
    process may use.  It performs *exactly the seed's elementwise
    operations in the seed's order* on every block, so its output is
    bit-identical to ``reference`` for any block size and thread count —
    the speedup comes from removed allocations and array passes, cache
    reuse and threads (X14 pins it at >= 1.5x over ``reference``).
``numba`` / ``jax`` (optional)
    Probed lazily — the first time a lookup misses the registry or
    :func:`available_backends` is queried — and registered only when
    their imports succeed, so missing packages never break import and
    the pure-NumPy default never pays an accelerator import.  ``numba``
    runs the same scalar chain as an ``@njit(parallel=True)`` loop;
    ``jax`` builds the chain with ``jit``/``vmap`` (enabling
    ``jax_enable_x64`` on first *use* of the jax kernel — the
    conformance contract is float64 — never as an import side effect).
    Both run a thread pool of their own (:func:`runs_own_threads`), so
    a fleet range on either runs as one UE block.

Conformance-tolerance contract
------------------------------
Every registered backend must agree with ``reference`` over the
conformance matrix in ``tests/radio/test_backends.py``:

* NumPy-family kernels (``reference``, ``numpy``): bit-identical in
  practice, pinned at ``rtol = NUMPY_CONFORMANCE_RTOL`` (1e-12);
* accelerator kernels (``numba``, ``jax``): the same op order through a
  different libm/XLA may differ in the last ulps of the transcendental
  chain (``atan2``/``sin``/``pow``/``log10``), pinned at
  ``rtol = atol = ACCELERATOR_CONFORMANCE_RTOL`` (1e-9 — around 8
  decimal digits of a dB value, far tighter than any physical effect).

The kernels are one :class:`~repro.kernels.KernelRegistry`,
:data:`KERNELS`: its name policy, shared with the FLC kernels, reads
``REPRO_PATHLOSS_BACKEND`` and :data:`DEFAULT_BACKEND` and reserves
:data:`AUTO_BACKEND`.  The registry functions below are its methods.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

import numpy as np

from ..fanout import fan_out
from ..kernels import AUTO, KernelRegistry
from .units import FREE_SPACE_IMPEDANCE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .propagation import PropagationModel

__all__ = [
    "KernelParams",
    "PathlossKernel",
    "register_backend",
    "unregister_backend",
    "available_backends",
    "get_backend",
    "resolve_backend",
    "fastest_backend",
    "runs_own_threads",
    "reference_kernel",
    "optimized_numpy_kernel",
    "AUTO_BACKEND",
    "DEFAULT_BACKEND",
    "BACKEND_ENV_VAR",
    "NUMPY_CONFORMANCE_RTOL",
    "ACCELERATOR_CONFORMANCE_RTOL",
]

#: The policy default when neither an explicit name nor the environment
#: variable picks a backend.
DEFAULT_BACKEND = "numpy"

#: Reserved pseudo-backend: resolves to the fastest *registered* kernel
#: on the executing host (see :func:`fastest_backend`).  Because
#: resolution happens at first kernel use, a pickled fleet spec pinned
#: to ``"auto"`` lets every worker host run its own best kernel.
AUTO_BACKEND = AUTO

#: Environment variable consulted by :func:`resolve_backend`.
BACKEND_ENV_VAR = "REPRO_PATHLOSS_BACKEND"

#: Conformance bound for NumPy-family kernels (bit-identical in practice).
NUMPY_CONFORMANCE_RTOL = 1e-12

#: Conformance bound for accelerator kernels (libm/XLA ulp drift).
ACCELERATOR_CONFORMANCE_RTOL = 1e-9

#: ``kernel(bs (n_bs, 2), pts (n_pts, 2), params) -> (n_pts, n_bs)`` dBW.
PathlossKernel = Callable[[np.ndarray, np.ndarray, "KernelParams"], np.ndarray]


@dataclass(frozen=True)
class KernelParams:
    """The scalar physics a pathloss kernel needs, pre-derived.

    Every field is a plain float so the bundle is hashable (JAX caches
    one compiled kernel per distinct params) and cheap to pickle along
    with a fleet task.

    Attributes
    ----------
    height_delta_m:
        ``rx_height − tx_height`` (negative for a receiver below the
        mast; the sign drives the polar angle).
    tilt_rad:
        Downward beam tilt ``φ`` in radians.
    field_amp:
        ``sqrt(45·W/1.5·G)`` — the RMS field amplitude at 1 m.
    path_loss_exponent:
        Field exponent ``n`` in ``1/r^n``.
    effective_aperture_m2:
        MS effective aperture ``A_e = G_r·λ²/(4π)``.
    """

    height_delta_m: float
    tilt_rad: float
    field_amp: float
    path_loss_exponent: float
    effective_aperture_m2: float

    @classmethod
    def from_model(cls, model: "PropagationModel") -> "KernelParams":
        """Derive the kernel scalars from a propagation model, using the
        exact float expressions of the seed chain (bit-compatibility)."""
        antenna = model.antenna
        return cls(
            height_delta_m=float(model.rx_height_m) - antenna.height_m,
            tilt_rad=math.radians(antenna.tilt_deg),
            field_amp=math.sqrt(45.0 * antenna.power_w / 1.5 * antenna.gain),
            path_loss_exponent=antenna.path_loss_exponent,
            effective_aperture_m2=model.effective_aperture_m2,
        )


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def fastest_backend(
    refresh: bool = False,
    candidates: Optional[tuple[str, ...]] = None,
    n_points: int = 2048,
    repeats: int = 3,
) -> str:
    """The fastest registered kernel on this host, by measurement.

    Every candidate (default: all of :func:`available_backends`, so the
    optional accelerators are probed first) runs one warm-up pass — JIT
    backends compile there, not on the clock — then ``repeats`` timed
    passes over a synthetic ``(n_points, 7)`` site matrix shaped like a
    fleet measurement epoch; the best (minimum) time wins, with ties
    broken towards :data:`DEFAULT_BACKEND` and then name order.  The
    choice is cached per process (``refresh=True`` re-probes, e.g.
    after registering a new kernel); probes run one at a time, so
    concurrent first uses of ``"auto"`` probe once.
    """
    with KERNELS.lock:
        cached = KERNELS.auto_choice
        if candidates is None and not refresh and cached is not None:
            return cached
        names = (
            available_backends() if candidates is None else tuple(candidates)
        )
        if not names:
            raise ValueError("no pathloss backends registered to probe")
        # deterministic synthetic workload: a 7-site ring and a point
        # grid spanning the layout scale (values are irrelevant, shape
        # is not)
        angles = np.linspace(0.0, 2.0 * math.pi, 7, endpoint=False)
        bs = np.column_stack([np.cos(angles), np.sin(angles)])
        side = int(math.ceil(math.sqrt(n_points)))
        grid = np.linspace(-2.0, 2.0, side)
        pts = np.stack(
            np.meshgrid(grid, grid), axis=-1
        ).reshape(-1, 2)[:n_points]
        params = KernelParams(
            height_delta_m=-38.5,
            tilt_rad=math.radians(3.0),
            field_amp=math.sqrt(45.0 * 10.0 / 1.5 * 1.5),
            path_loss_exponent=1.1,
            effective_aperture_m2=0.0027,
        )
        # stable tie-break: the policy default first, then name order
        ranked = sorted(names, key=lambda n: (n != DEFAULT_BACKEND, n))
        best_name, best_time = ranked[0], math.inf
        for name in ranked:
            kernel = get_backend(name)
            kernel(bs, pts, params)  # warm-up (JIT compilation, caches)
            elapsed = math.inf
            for _ in range(max(1, repeats)):
                t0 = time.perf_counter()
                kernel(bs, pts, params)
                elapsed = min(elapsed, time.perf_counter() - t0)
            if elapsed < best_time:
                best_name, best_time = name, elapsed
        if candidates is None:
            KERNELS.auto_choice = best_name
        return best_name


#: The pathloss kernels and their name policy.
KERNELS = KernelRegistry(
    "pathloss", BACKEND_ENV_VAR, DEFAULT_BACKEND, choose=fastest_backend
)

unregister_backend = KERNELS.unregister
available_backends = KERNELS.available
resolve_backend = KERNELS.resolve
get_backend = KERNELS.get
runs_own_threads = KERNELS.runs_own_threads


def register_backend(
    name: str,
    kernel: PathlossKernel,
    overwrite: bool = False,
    own_threads: bool = False,
) -> None:
    """Register a kernel under ``name``
    (:meth:`~repro.kernels.KernelRegistry.register`)."""
    KERNELS.register(
        name, kernel, overwrite=overwrite, own_threads=own_threads
    )


# ----------------------------------------------------------------------
# reference kernel — the seed chain, extracted verbatim
# ----------------------------------------------------------------------
def reference_kernel(
    bs: np.ndarray, pts: np.ndarray, params: KernelParams
) -> np.ndarray:
    """Pure-NumPy reference: the seed ``PropagationModel`` chain.

    Same ops, same order as the original ``power_from_sites`` →
    ``received_power_dbw`` → ``DipoleAntenna.field_rms`` composition;
    this is the oracle the conformance matrix compares against.
    """
    diff = pts[:, None, :] - bs[None, :, :]
    dist_km = np.sqrt((diff * diff).sum(axis=2))
    rho = dist_km * 1000.0
    dz = params.height_delta_m
    r = np.sqrt(rho * rho + dz * dz)
    theta = np.arctan2(rho, dz)
    r = np.maximum(r, 1.0)  # clamp inside the antenna near-field
    e = (
        params.field_amp
        * np.abs(np.sin(theta - params.tilt_rad))
        / r**params.path_loss_exponent
    )
    density = e * e / FREE_SPACE_IMPEDANCE
    p = density * params.effective_aperture_m2
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(
            p > 0.0, 10.0 * np.log10(np.where(p > 0, p, 1.0)), -np.inf
        )
    return out


# ----------------------------------------------------------------------
# optimized NumPy kernel — same elementwise chain, no waste
# ----------------------------------------------------------------------
#: Points per block of :func:`optimized_numpy_kernel`.  Its two
#: ``(block, n_bs)`` buffers stay in cache across the chain's passes;
#: 2048 measured fastest single-threaded for the paper's 19 sites.
_BLOCK_POINTS = 2048


def optimized_numpy_kernel(
    bs: np.ndarray, pts: np.ndarray, params: KernelParams
) -> np.ndarray:
    """Blocked, thread-parallel in-place variant of :func:`reference_kernel`.

    Exactly the reference's elementwise float operations in the
    reference's order — hence bit-identical output — run block by block
    over :data:`_BLOCK_POINTS` points: the block of the one
    ``(n_pts, n_bs)`` output and a per-thread scratch block carry the
    whole chain in place, with no ``(n_pts, n_bs, 2)`` broadcast
    temporary and no per-op allocations.  The two ``np.where`` passes
    of ``dbw_from_watts`` collapse into one direct ``log10`` (for
    ``p > 0`` the guarded and direct forms are the same float; for the
    only other reachable value, ``p == 0`` at an exact pattern null,
    both give ``-inf``).

    Blocks are independent and NumPy releases the GIL inside every
    ufunc loop, so the blocks run through :func:`repro.fanout.fan_out`:
    on every usable CPU, or inline on the caller's thread when the
    kernel runs inside another fan-out.  Every thread is joined before
    the kernel returns or raises, and a block that raises ends the
    hand-out of blocks.
    """
    n_pts, n_bs = pts.shape[0], bs.shape[0]
    block = _BLOCK_POINTS
    out = np.empty((n_pts, n_bs))
    scratch = threading.local()

    def run(lo: int) -> None:
        hi = min(lo + block, n_pts)
        tmp = getattr(scratch, "tmp", None)
        if tmp is None:
            tmp = scratch.tmp = np.empty((min(block, n_pts), n_bs))
        _chain(bs, pts[lo:hi], params, out[lo:hi], tmp[: hi - lo])

    fan_out(run, range(0, n_pts, block))
    return out


def _chain(
    bs: np.ndarray,
    pts: np.ndarray,
    params: KernelParams,
    rho: np.ndarray,
    tmp: np.ndarray,
) -> None:
    """The reference chain for one block of points, in place: ``rho``
    (the output block) ends as dBW, ``tmp`` is scratch of its shape."""
    dz = params.height_delta_m
    # squared ground distance, one axis at a time (a 2-term sum reduces
    # in the same order as the reference's .sum(axis=2))
    np.subtract(pts[:, 0, None], bs[None, :, 0], out=rho)
    np.multiply(rho, rho, out=rho)
    np.subtract(pts[:, 1, None], bs[None, :, 1], out=tmp)
    np.multiply(tmp, tmp, out=tmp)
    np.add(rho, tmp, out=rho)
    np.sqrt(rho, out=rho)
    np.multiply(rho, 1000.0, out=rho)  # rho: ground distance, metres
    np.multiply(rho, rho, out=tmp)
    np.add(tmp, dz * dz, out=tmp)
    np.sqrt(tmp, out=tmp)  # tmp: slant range r
    np.maximum(tmp, 1.0, out=tmp)
    np.power(tmp, params.path_loss_exponent, out=tmp)  # tmp: r**n
    np.arctan2(rho, dz, out=rho)  # rho: polar angle θ
    np.subtract(rho, params.tilt_rad, out=rho)
    np.sin(rho, out=rho)
    np.abs(rho, out=rho)
    np.multiply(rho, params.field_amp, out=rho)
    np.divide(rho, tmp, out=rho)  # rho: RMS field e
    np.multiply(rho, rho, out=rho)
    np.divide(rho, FREE_SPACE_IMPEDANCE, out=rho)
    np.multiply(rho, params.effective_aperture_m2, out=rho)  # rho: watts
    with np.errstate(divide="ignore"):  # set per thread, as NumPy keeps it
        np.log10(rho, out=rho)
    np.multiply(rho, 10.0, out=rho)


register_backend("reference", reference_kernel)
register_backend("numpy", optimized_numpy_kernel)


# ----------------------------------------------------------------------
# optional accelerator backends — registered only if importable, by the
# first lookup that misses, so the NumPy default never imports them
# ----------------------------------------------------------------------
def _register_numba() -> None:
    if "numba" in KERNELS.entries:  # pragma: no cover - user pre-registered
        return
    try:
        from numba import njit, prange
    except Exception:  # pragma: no cover - exercised only sans numba
        return

    eta = FREE_SPACE_IMPEDANCE
    neg_inf = float("-inf")

    @njit(parallel=True, fastmath=False)
    def _core(bs, pts, dz, tilt, amp, exponent, aperture):  # pragma: no cover
        n_pts = pts.shape[0]
        n_bs = bs.shape[0]
        out = np.empty((n_pts, n_bs), dtype=np.float64)
        for i in prange(n_pts):
            for j in range(n_bs):
                dx = pts[i, 0] - bs[j, 0]
                dy = pts[i, 1] - bs[j, 1]
                rho = math.sqrt(dx * dx + dy * dy) * 1000.0
                r = math.sqrt(rho * rho + dz * dz)
                if r < 1.0:
                    r = 1.0
                theta = math.atan2(rho, dz)
                e = amp * abs(math.sin(theta - tilt)) / r**exponent
                p = e * e / eta * aperture
                out[i, j] = 10.0 * math.log10(p) if p > 0.0 else neg_inf
        return out

    def numba_kernel(
        bs: np.ndarray, pts: np.ndarray, params: KernelParams
    ) -> np.ndarray:  # pragma: no cover - exercised in the optional CI leg
        return _core(
            np.ascontiguousarray(bs),
            np.ascontiguousarray(pts),
            params.height_delta_m,
            params.tilt_rad,
            params.field_amp,
            params.path_loss_exponent,
            params.effective_aperture_m2,
        )

    register_backend("numba", numba_kernel, own_threads=True)


def _register_jax() -> None:
    if "jax" in KERNELS.entries:  # pragma: no cover - user pre-registered
        return
    try:
        import jax
        import jax.numpy as jnp
    except Exception:  # pragma: no cover - exercised only sans jax
        return

    from functools import lru_cache

    @lru_cache(maxsize=16)
    def _compiled(params: KernelParams):  # pragma: no cover
        def one_point(pt, bs):
            diff = pt[None, :] - bs
            rho = jnp.sqrt(jnp.sum(diff * diff, axis=1)) * 1000.0
            dz = params.height_delta_m
            r = jnp.sqrt(rho * rho + dz * dz)
            theta = jnp.arctan2(rho, dz)
            r = jnp.maximum(r, 1.0)
            e = (
                params.field_amp
                * jnp.abs(jnp.sin(theta - params.tilt_rad))
                / r**params.path_loss_exponent
            )
            p = e * e / FREE_SPACE_IMPEDANCE * params.effective_aperture_m2
            return jnp.where(
                p > 0.0, 10.0 * jnp.log10(jnp.where(p > 0.0, p, 1.0)), -jnp.inf
            )

        return jax.jit(jax.vmap(one_point, in_axes=(0, None)))

    def jax_kernel(
        bs: np.ndarray, pts: np.ndarray, params: KernelParams
    ) -> np.ndarray:  # pragma: no cover - no check runs it (no jax in CI)
        # the conformance contract is float64; JAX defaults to float32.
        # Flipping x64 is a process-wide setting, so it happens only
        # here — when the jax backend is actually *used* — never as an
        # import side effect on applications that merely import repro.
        if not jax.config.jax_enable_x64:
            jax.config.update("jax_enable_x64", True)
            _compiled.cache_clear()  # anything traced under x32 is stale
        out = _compiled(params)(
            jnp.asarray(pts, dtype=jnp.float64),
            jnp.asarray(bs, dtype=jnp.float64),
        )
        return np.asarray(out, dtype=np.float64)

    register_backend("jax", jax_kernel, own_threads=True)


KERNELS.optional += [_register_numba, _register_jax]
