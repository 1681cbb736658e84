"""Compiled FLC decision kernels — the fuzzy-inference backend registry.

With measurement vectorised, fleets sharded and the pathloss kernel
pluggable, the per-epoch :meth:`FuzzyController.evaluate_batch` call is
the last unoptimised hot layer of a fleet run: a full Mamdani pipeline
(membership grids → rule activations → aggregation → centroid over the
sampled output universe) executed once per epoch per shard.  But the
paper's FLC is a *fixed* function of three crisp inputs once the rule
base is frozen — so, exactly like :mod:`repro.radio.backends` did for
the physics, this module factors FLC inference out behind one narrow
contract and a registry of interchangeable implementations:

``factory(controller) -> kernel``; ``kernel(cols) -> outputs``
    * ``controller`` — any object exposing ``input_variables`` /
      ``input_names``, a ``_reference_batch(cols)`` method running its
      exact seed inference pipeline, and (for cacheability) a
      ``_structural_key()`` fingerprint
      (:class:`~repro.fuzzy.controller.FuzzyController` and
      :class:`~repro.fuzzy.sugeno.SugenoController` both qualify);
    * ``cols`` — one ``(N,)`` float64 array per input variable, in
      rule-base variable order, already coerced/broadcast by the caller;
    * returns ``(N,)`` float64 crisp outputs.

Kernels must be *pure* and *elementwise per sample* — no cross-sample
coupling — which is what keeps batch, shard and scalar evaluation
interchangeable.

Built-in backends
-----------------
``reference`` (the default)
    The controller's own grid inference path
    (``controller._reference_batch``) behind the contract.  This is the
    conformance oracle every other backend is tested against, and the
    policy default: approximate kernels are always opt-in.
``lut``
    Precompiles the controller's decision surface onto a dense
    rectilinear 3-D grid and evaluates by vectorised multilinear
    interpolation.  The build runs the ``reference`` pipeline in its two
    halves: output-term activations at every grid node, then one
    defuzzification per *distinct* activation row, scattered back
    (:func:`_sample_surface`; the paper grid has ~10.5k distinct rows
    among ~83.5k nodes), so the table is the reference's bytes at a
    fraction of the cost.  The grid is *anchor-aligned*:
    every membership-function breakpoint (core/support vertex) lies
    exactly on a grid plane, so the interpolant only ever crosses the
    surface's kinks along cell diagonals.  Compiled tables are cached
    per process, keyed by the controller's structural fingerprint —
    every shard of a fleet shares one table.
``numba`` (optional)
    The same precompiled table evaluated by an
    ``@njit(parallel=True)`` gather loop; probed lazily and registered
    only when the numba import succeeds, so the pure-NumPy default
    never pays the import.  It runs a thread pool of its own
    (:func:`flc_runs_own_threads`), so a fleet range on it runs as one
    UE block.

Accuracy contract
-----------------
``reference`` is exact by definition.  The interpolated backends
(``lut``, ``numba``) carry a *measured, documented* absolute error
bound :data:`LUT_ERROR_BOUND` over the full input box at the default
grid resolution (:data:`LUT_POINTS_PER_SEGMENT` points per
anchor-to-anchor segment); the conformance suite pins the bound and a
Hypothesis property samples the whole box against it.  The constant is
a measurement of the *paper* controller, so :func:`build_lut`
additionally validates every compiled table against the reference at
all cell midpoints and widens the table's own
:attr:`DecisionLUT.error_bound` when a custom rule base is rougher.
Crucially the *decision* (output vs the handover threshold) is made
exact again one level up:
:meth:`repro.core.system.FuzzyHandoverSystem.decision_outputs_batch`
re-evaluates through ``reference`` every sample whose interpolated
output lands within the compiled table's validated bound of the
threshold, so ``output > threshold`` equals the all-reference decision
wherever that bound holds.  The bound is measured at every cell
midpoint, not proven for the whole cell; a seeded audit of 10^6 box
samples (``benchmarks/bench_x16_flc_backends.py``; 2×10^5 in tier-1)
finds no decision that differs from ``reference``, so handover and
ping-pong counts do not change.

The backends are one :class:`~repro.kernels.KernelRegistry`,
:data:`KERNELS`: its name policy, shared with the pathloss kernels,
reads ``REPRO_FLC_BACKEND`` and :data:`DEFAULT_FLC_BACKEND`.  The
registry functions below are its methods.  Both controller classes
evaluate through one dispatch, :func:`controller_evaluate_batch` and
:func:`controller_evaluate`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from ..kernels import KernelRegistry, validate_backend_pin

__all__ = [
    "DecisionLUT",
    "FLCKernel",
    "FLCKernelFactory",
    "register_flc_backend",
    "unregister_flc_backend",
    "available_flc_backends",
    "resolve_flc_backend",
    "get_flc_backend",
    "flc_error_bound",
    "flc_runs_own_threads",
    "compile_flc",
    "controller_kernel",
    "controller_evaluate_batch",
    "controller_evaluate",
    "coerce_inputs",
    "kernel_error_bound",
    "refuse_nan",
    "validate_backend_pin",
    "variables_fingerprint",
    "build_lut",
    "lut_build_count",
    "lut_axis_grid",
    "DEFAULT_FLC_BACKEND",
    "FLC_BACKEND_ENV_VAR",
    "LUT_POINTS_PER_SEGMENT",
    "LUT_ERROR_BOUND",
]

#: The policy default when neither an explicit name nor the environment
#: variable picks a backend.  ``reference`` — never an approximation —
#: so compiled kernels are always an explicit opt-in.
DEFAULT_FLC_BACKEND = "reference"

#: Environment variable consulted by :func:`resolve_flc_backend`.
FLC_BACKEND_ENV_VAR = "REPRO_FLC_BACKEND"

#: Default interpolation-grid density: points per anchor-to-anchor
#: segment of each input variable (the segments between consecutive
#: membership-function breakpoints).  12 points/segment puts the paper
#: controller at a (37, 37, 61) table: ~84k nodes plus ~78k validation
#: midpoints, ~23k distinct activation rows to defuzzify, compiled once
#: per process in about 0.3 s.
LUT_POINTS_PER_SEGMENT = 12

#: Measured absolute error bound of the interpolated backends over the
#: full (CSSP, SSN, DMB) input box at the default grid resolution.
#: The worst observed |lut − reference| on dense random sweeps of the
#: paper controller is ~1.7e-2 (the kink diagonals of the min-rule
#: activation surfaces); 2.5e-2 adds headroom and is what the
#: conformance matrix and the Hypothesis box property pin.  It is the
#: *floor* of the decision guard band: :func:`build_lut` additionally
#: measures every compiled table's own residual (reference vs
#: interpolant at all cell midpoints, the worst-case locations of a
#: multilinear interpolant) and widens the per-table
#: :attr:`DecisionLUT.error_bound` when a custom controller's surface
#: is rougher than the paper's — the exact-decision guarantee is not a
#: property of one rule base.
LUT_ERROR_BOUND = 2.5e-2

#: Safety factor applied to the measured midpoint residual when it sets
#: the per-table bound (midpoints sample the worst-case locations, not
#: a supremum).
_RESIDUAL_SAFETY = 1.5

#: ``kernel(cols) -> (N,)`` crisp outputs for per-variable input columns.
FLCKernel = Callable[[Sequence[np.ndarray]], np.ndarray]

#: ``factory(controller) -> FLCKernel``: compiles one controller.
FLCKernelFactory = Callable[[object], FLCKernel]


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
#: The FLC kernel factories and their name policy.
KERNELS = KernelRegistry("FLC", FLC_BACKEND_ENV_VAR, DEFAULT_FLC_BACKEND)

unregister_flc_backend = KERNELS.unregister
available_flc_backends = KERNELS.available
resolve_flc_backend = KERNELS.resolve
get_flc_backend = KERNELS.get
flc_runs_own_threads = KERNELS.runs_own_threads

#: The absolute output-error bound of a backend against ``reference``
#: (0.0 for exact backends): the decision guard-band half-width of
#: :meth:`repro.core.system.FuzzyHandoverSystem.decision_outputs_batch`.
flc_error_bound = KERNELS.error_bound


def register_flc_backend(
    name: str,
    factory: FLCKernelFactory,
    error_bound: float = 0.0,
    overwrite: bool = False,
    own_threads: bool = False,
) -> None:
    """Register a kernel factory under ``name``
    (:meth:`~repro.kernels.KernelRegistry.register`)."""
    KERNELS.register(name, factory, error_bound, overwrite, own_threads)


def compile_flc(controller, name: Optional[str] = None) -> FLCKernel:
    """Compile ``controller`` on the backend the
    :func:`resolve_flc_backend` policy selects and return its kernel."""
    return get_flc_backend(name)(controller)


def controller_kernel(controller, name: str) -> FLCKernel:
    """The compiled kernel for an already-resolved backend name, built
    on first use and memoised in the controller's ``_compiled`` map —
    the lazy-cache step both controller classes share."""
    kernel = controller._compiled.get(name)
    if kernel is None:
        kernel = compile_flc(controller, name)
        controller._compiled[name] = kernel
    return kernel


def kernel_error_bound(controller, name: str) -> float:
    """The decision guard-band half-width for ``controller`` on a
    resolved backend name.

    Exact backends return 0.0.  For interpolated backends the bound is
    the *compiled kernel's own* validated bound
    (:attr:`DecisionLUT.error_bound`, measured per table by
    :func:`build_lut`) when the controller participates in the compile
    cache, never below the registry's documented default; duck-typed
    controllers without the cache fall back to the registry bound.
    """
    base = flc_error_bound(name)
    if base <= 0.0:
        return 0.0
    if not hasattr(controller, "_compiled"):
        return base
    kernel = controller_kernel(controller, name)
    return max(base, float(getattr(kernel, "error_bound", base)))


def refuse_nan(names: Sequence[str], cols: Sequence[np.ndarray]) -> None:
    """The reference fuzzifier's NaN refusal, for the compiled kernels.

    An interpolated kernel would return NaN for a NaN input, and the
    decision path reads ``NaN > threshold`` as "no handover"; every
    backend raises instead, naming the variable as the reference does.
    """
    for name, col in zip(names, cols):
        if np.isnan(col).any():
            raise ValueError(f"{name}: cannot fuzzify NaN samples")


# ----------------------------------------------------------------------
# the one dispatch of both controller classes
# ----------------------------------------------------------------------
def coerce_inputs(
    names: Sequence[str],
    inputs: Union[Mapping[str, np.ndarray], Sequence[np.ndarray]],
) -> list[np.ndarray]:
    """A controller's inputs as ``(N,)`` float columns in variable
    order.

    ``inputs`` is a mapping ``{variable name: array}`` or a positional
    sequence in variable order; scalars and length-1 arrays broadcast.
    A missing or unknown variable, a wrong input count, an input that
    is not scalar or 1-D, or one of another length raises
    ``ValueError``.
    """
    if isinstance(inputs, Mapping):
        missing = set(names) - set(inputs)
        if missing:
            raise ValueError(f"missing input(s): {sorted(missing)}")
        extra = set(inputs) - set(names)
        if extra:
            raise ValueError(f"unknown input(s): {sorted(extra)}")
        inputs = [inputs[n] for n in names]
    else:
        inputs = list(inputs)
        if len(inputs) != len(names):
            raise ValueError(
                f"expected {len(names)} input arrays "
                f"({', '.join(names)}), got {len(inputs)}"
            )
    cols = [np.atleast_1d(np.asarray(c, dtype=float)) for c in inputs]
    n = max(c.shape[0] for c in cols)
    out = []
    for name, c in zip(names, cols):
        if c.ndim != 1:
            raise ValueError(f"input {name!r} must be scalar or 1-D")
        if c.shape[0] == n:
            out.append(c)
        elif c.shape[0] == 1:
            out.append(np.full(n, c[0]))
        else:
            raise ValueError(
                f"input {name!r} has length {c.shape[0]}, expected {n} or 1"
            )
    return out


def controller_evaluate_batch(
    controller,
    inputs: Union[Mapping[str, np.ndarray], Sequence[np.ndarray]],
    backend: Optional[str] = None,
) -> np.ndarray:
    """Crisp outputs for a batch of crisp inputs (:func:`coerce_inputs`):
    the ``evaluate_batch`` of both controller classes.

    ``backend`` overrides the inference backend for this call (``None``
    = the controller's ``backend`` pin, then the name policy).
    ``reference`` runs the controller's own pipeline, any other backend
    its compiled kernel (:func:`controller_kernel`).  A NaN input
    raises ``ValueError`` naming its variable on every backend.
    """
    names = controller.input_names
    cols = coerce_inputs(names, inputs)
    name = resolve_flc_backend(
        controller.backend if backend is None else backend
    )
    if name == DEFAULT_FLC_BACKEND:
        return controller._reference_batch(cols)
    refuse_nan(names, cols)
    return controller_kernel(controller, name)(cols)


def controller_evaluate(
    controller, *args: float, backend: Optional[str] = None, **kwargs: float
) -> float:
    """One crisp output, the ``evaluate`` of both controller classes:
    positional inputs in variable order or keyword inputs by name (not
    both), ``backend`` as in :func:`controller_evaluate_batch`."""
    if args and kwargs:
        raise TypeError("pass inputs either positionally or by name, not both")
    names = controller.input_names
    if kwargs:
        batch = {k: np.array([v]) for k, v in kwargs.items()}
    elif len(args) == len(names):
        batch = [np.array([a]) for a in args]
    else:
        raise TypeError(
            f"expected {len(names)} inputs ({', '.join(names)}), "
            f"got {len(args)}"
        )
    return float(controller.evaluate_batch(batch, backend=backend)[0])


def _mf_fingerprint(mf) -> tuple:
    """Exact parameter fingerprint of one membership function.

    The MF classes are ``__slots__``-backed (``vars()`` is empty), so
    walk the slots across the MRO; dict-backed user MFs fall back to
    ``vars()``.  Missing either would make structurally *different*
    controllers share one cached LUT — silently the wrong surface.
    """
    params: list[tuple[str, object]] = []
    for klass in type(mf).__mro__:
        for slot in getattr(klass, "__slots__", ()):
            if hasattr(mf, slot):
                params.append((slot, getattr(mf, slot)))
    if not params and getattr(mf, "__dict__", None):
        params = sorted(vars(mf).items())
    return (type(mf).__name__, tuple(params))


def variables_fingerprint(variables) -> tuple:
    """Hashable fingerprint of a sequence of linguistic variables —
    names, universes and every term's exact membership parameters.  The
    shared building block of both controllers' ``_structural_key``
    (the process-wide LUT cache key)."""
    return tuple(
        (
            v.name,
            v.universe,
            tuple((t.name, _mf_fingerprint(t.mf)) for t in v.terms),
        )
        for v in variables
    )


# ----------------------------------------------------------------------
# reference backend — the controller's own grid pipeline, extracted
# ----------------------------------------------------------------------
def _reference_factory(controller) -> FLCKernel:
    """The controller's seed inference path behind the kernel contract
    (the conformance oracle)."""
    kernel = getattr(controller, "_reference_batch", None)
    if not callable(kernel):
        raise ValueError(
            f"{type(controller).__name__} exposes no _reference_batch "
            "inference path; cannot compile the reference backend"
        )
    return kernel


# ----------------------------------------------------------------------
# LUT backend — precompiled decision surface + multilinear interpolation
# ----------------------------------------------------------------------
def _check_points_per_segment(points_per_segment) -> None:
    """An integer >= 1 (``bool`` refused): the value also keys the table
    cache, so a float must not alias a cached integer resolution."""
    if (
        isinstance(points_per_segment, bool)
        or not isinstance(points_per_segment, (int, np.integer))
        or points_per_segment < 1
    ):
        raise ValueError(
            "points_per_segment must be an integer >= 1, "
            f"got {points_per_segment!r}"
        )


def lut_axis_grid(variable, points_per_segment: int) -> np.ndarray:
    """Anchor-aligned sample grid of one input variable's universe.

    The axis breakpoints are the universe edges plus every finite
    membership-function core/support vertex inside the universe; each
    breakpoint-to-breakpoint segment is subdivided into
    ``points_per_segment`` equal steps.  Aligning the grid with the
    breakpoints means the piecewise-linear membership kinks lie exactly
    on grid planes — the interpolation error comes only from the
    cross-variable (min/product) coupling inside cells.
    """
    _check_points_per_segment(points_per_segment)
    lo, hi = variable.universe
    breaks = {lo, hi}
    for term in variable.terms:
        for p in (*term.mf.core, *term.mf.support):
            p = float(p)
            if np.isfinite(p) and lo < p < hi:
                breaks.add(p)
    edges = sorted(breaks)
    parts = [
        np.linspace(a, b, points_per_segment + 1)[:-1]
        for a, b in zip(edges, edges[1:])
    ]
    parts.append(np.array([hi]))
    return np.concatenate(parts)


@dataclass(frozen=True)
class DecisionLUT:
    """A controller's decision surface sampled on a rectilinear grid,
    evaluated by vectorised multilinear interpolation.

    Attributes
    ----------
    grids:
        One sorted ``(n_i,)`` sample array per input variable (axis
        order = rule-base variable order).
    table:
        ``(n_0, …, n_{V-1})`` crisp outputs at every grid node.
    error_bound:
        Absolute |interpolant − reference| bound this table's decision
        guard band uses — the documented :data:`LUT_ERROR_BOUND` floor,
        widened by :func:`build_lut`'s measured midpoint residual when
        the compiled controller's surface demands it.
    """

    grids: tuple[np.ndarray, ...]
    table: np.ndarray
    error_bound: float = LUT_ERROR_BOUND

    def __post_init__(self) -> None:
        # __call__ pairs table.strides with table.reshape(-1), which is
        # only consistent in C order — normalise user-supplied layouts
        object.__setattr__(
            self,
            "grids",
            tuple(np.ascontiguousarray(g, dtype=float) for g in self.grids),
        )
        object.__setattr__(
            self, "table", np.ascontiguousarray(self.table, dtype=float)
        )
        if self.table.shape != tuple(g.shape[0] for g in self.grids):
            raise ValueError(
                f"table shape {self.table.shape} does not match grids "
                f"{tuple(g.shape[0] for g in self.grids)}"
            )

    @property
    def n_points(self) -> int:
        return int(self.table.size)

    def __call__(self, cols: Sequence[np.ndarray]) -> np.ndarray:
        """Multilinear interpolation of the table at a batch of points.

        Inputs are clipped to each axis' universe first — exactly the
        saturation the reference pipeline applies before fuzzification,
        so the LUT and the reference agree outside the box too.
        """
        if len(cols) != len(self.grids):
            raise ValueError(
                f"expected {len(self.grids)} input columns, got {len(cols)}"
            )
        idx: list[np.ndarray] = []
        frac: list[np.ndarray] = []
        for grid, col in zip(self.grids, cols):
            x = np.clip(np.asarray(col, dtype=float), grid[0], grid[-1])
            i = np.searchsorted(grid, x, side="right") - 1
            np.clip(i, 0, grid.shape[0] - 2, out=i)
            idx.append(i)
            frac.append((x - grid[i]) / (grid[i + 1] - grid[i]))
        flat = self.table.reshape(-1)
        strides = [s // self.table.itemsize for s in self.table.strides]
        base = idx[0] * strides[0]
        for i, s in zip(idx[1:], strides[1:]):
            base = base + i * s
        out = np.zeros(base.shape[0])
        # accumulate the 2^V corner contributions of each cell
        for corner in range(1 << len(self.grids)):
            weight = None
            offset = 0
            for axis, (f, s) in enumerate(zip(frac, strides)):
                if corner >> axis & 1:
                    w = f
                    offset += s
                else:
                    w = 1.0 - f
                weight = w if weight is None else weight * w
            out += weight * flat.take(base + offset)
        return out


#: Rows per reference call of the LUT build: mesh nodes per activation
#: (or ``evaluate_batch``) call, distinct activation rows per
#: defuzzification call.  Bounds the build's memory whatever the mesh
#: size (defuzzifying the paper grid's ~12k distinct midpoint rows at
#: once peaks near 69 MiB), and a ~1.6 MiB ``(rows, 201)`` aggregated
#: surface stays cache-sized.
_BUILD_CHUNK = 1024

# process-wide table cache: fleet shards, repeated runs and the numba
# wrapper all reuse one compiled surface per controller structure
_LUT_CACHE: dict[tuple, DecisionLUT] = {}

# guards the cache's check-then-build: threads that need one table at
# once (the blocks of a fleet range) wait for a single build
_LUT_LOCK = threading.RLock()

#: Process-wide count of *actual* LUT compilations (cache misses).
#: Observable via :func:`lut_build_count`; the distributed warm-path
#: tests pin that a rejoining worker serves repeat fingerprints from
#: the cache instead of recompiling.
_LUT_BUILDS = 0


def lut_build_count() -> int:
    """How many decision LUTs this process has actually compiled
    (cache hits do not count)."""
    return _LUT_BUILDS


def _spans(n: int, limit: int) -> list[tuple[int, int]]:
    """Balanced ``[lo, hi)`` chunks of at most ``limit`` items covering
    ``range(n)``.

    Balanced rather than ``limit``-sized so that no chunk holds a lone
    item (for ``n >= 2``, ``limit >= 3``): NumPy sums a one-column
    ``(k, 1)`` batch over ``k`` pairwise rather than in order, so a lone
    sample could differ in the last bit from the same sample in a wider
    batch.
    """
    k = max(1, -(-n // limit))
    edges = [n * i // k for i in range(k + 1)]
    return list(zip(edges[:-1], edges[1:]))


def _sample_surface(
    controller, names: tuple[str, ...], grids: tuple[np.ndarray, ...]
) -> np.ndarray:
    """Reference-backend outputs at every node of an axis-grid mesh.

    A Mamdani controller (one exposing ``_term_activation_batch`` and
    ``_defuzzify_batch``) is sampled by its distinct activation rows: a
    node's reference output depends only on its vector of output-term
    activations, and the paper grid has ~10.5k distinct vectors among
    its ~83.5k nodes.  The activations are computed in chunks of
    :data:`_BUILD_CHUNK` nodes, keyed by their raw bytes (one
    ``np.void`` per row — bitwise-equal keys give the same float by
    construction), and each distinct row is defuzzified once, in chunks
    of the same size, then scattered back.  Anything else
    (``SugenoController``, duck-typed controllers) is swept through
    chunked ``evaluate_batch(..., backend="reference")`` calls.
    """
    shape = tuple(g.shape[0] for g in grids)
    points = [m.ravel() for m in np.meshgrid(*grids, indexing="ij")]
    n = points[0].shape[0]
    activations = getattr(controller, "_term_activation_batch", None)
    defuzzify = getattr(controller, "_defuzzify_batch", None)
    if not (callable(activations) and callable(defuzzify)):
        out = np.empty(n)
        for lo, hi in _spans(n, _BUILD_CHUNK):
            out[lo:hi] = controller.evaluate_batch(
                {nm: p[lo:hi] for nm, p in zip(names, points)},
                backend="reference",
            )
        return out.reshape(shape)
    rows = None  # (n, T), C-contiguous so each row is one byte key
    for lo, hi in _spans(n, _BUILD_CHUNK):
        act = activations([p[lo:hi] for p in points])
        if rows is None:
            rows = np.empty((n, act.shape[0]))
        rows[lo:hi] = act.T
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))
    _, first, inverse = np.unique(
        keys.ravel(), return_index=True, return_inverse=True
    )
    distinct = rows[first]
    out = np.empty(first.shape[0])
    for lo, hi in _spans(first.shape[0], _BUILD_CHUNK):
        # (T, rows) C-contiguous: the layout the reference hands over
        out[lo:hi] = defuzzify(np.ascontiguousarray(distinct[lo:hi].T))
    return out[inverse].reshape(shape)


def build_lut(
    controller,
    points_per_segment: int = LUT_POINTS_PER_SEGMENT,
) -> DecisionLUT:
    """Sample ``controller``'s full decision surface onto an
    anchor-aligned grid (always through the ``reference`` backend) and
    *validate* the compiled table.

    After sampling the nodes, the interpolant is checked against the
    reference at every cell midpoint — the worst-case locations of a
    multilinear interpolant — and the table's
    :attr:`DecisionLUT.error_bound` is widened beyond the documented
    :data:`LUT_ERROR_BOUND` floor when the measured residual (times a
    safety factor) demands it.  The decision guard band follows the
    per-table bound, so the exact-decision guarantee holds for custom
    rule bases with rougher surfaces than the paper's, not just the
    controller the global constant was measured on.

    Results are cached per process by the controller's structural
    fingerprint, so compiling the same rule base twice (every shard of
    a fleet) costs one table, also when threads ask for it at once.
    """
    _check_points_per_segment(points_per_segment)
    skey = getattr(controller, "_structural_key", None)
    key = (skey(), int(points_per_segment)) if callable(skey) else None
    with _LUT_LOCK:
        cached = _LUT_CACHE.get(key) if key is not None else None
        if cached is None:
            cached = _compile_lut(controller, points_per_segment)
            if key is not None:
                _LUT_CACHE[key] = cached
    return cached


def _compile_lut(controller, points_per_segment: int) -> DecisionLUT:
    """One validated table for ``controller`` (see :func:`build_lut`),
    counted by :func:`lut_build_count`."""
    global _LUT_BUILDS
    _LUT_BUILDS += 1
    names = tuple(controller.input_names)
    grids = tuple(
        lut_axis_grid(v, points_per_segment)
        for v in controller.input_variables
    )
    table = _sample_surface(controller, names, grids)
    draft = DecisionLUT(grids, table)
    mid_grids = tuple(0.5 * (g[:-1] + g[1:]) for g in grids)
    mid_mesh = np.meshgrid(*mid_grids, indexing="ij")
    residual = np.abs(
        draft([m.ravel() for m in mid_mesh])
        - _sample_surface(controller, names, mid_grids).ravel()
    )
    bound = max(LUT_ERROR_BOUND, _RESIDUAL_SAFETY * float(residual.max()))
    return DecisionLUT(grids, table, error_bound=bound)


def _lut_factory(controller) -> FLCKernel:
    """Compile (or fetch the cached) decision LUT for ``controller``."""
    return build_lut(controller)


# ----------------------------------------------------------------------
# optional numba backend — the same table through a parallel gather loop
# ----------------------------------------------------------------------
def _register_numba() -> None:
    if "numba" in KERNELS.entries:  # pragma: no cover - user pre-registered
        return
    try:
        from numba import njit, prange
    except Exception:  # pragma: no cover - exercised only sans numba
        return

    @njit(parallel=True, fastmath=False)
    def _interp3(g0, g1, g2, table, x0, x1, x2):  # pragma: no cover
        n = x0.shape[0]
        out = np.empty(n)
        for p in prange(n):
            wf = np.empty(3)
            ia = 0
            ib = 0
            ic = 0
            for axis in range(3):
                if axis == 0:
                    g, x = g0, x0[p]
                elif axis == 1:
                    g, x = g1, x1[p]
                else:
                    g, x = g2, x2[p]
                if x < g[0]:
                    x = g[0]
                elif x > g[-1]:
                    x = g[-1]
                i = np.searchsorted(g, x) - 1
                if i < 0:
                    i = 0
                elif i > g.shape[0] - 2:
                    i = g.shape[0] - 2
                wf[axis] = (x - g[i]) / (g[i + 1] - g[i])
                if axis == 0:
                    ia = i
                elif axis == 1:
                    ib = i
                else:
                    ic = i
            f0, f1, f2 = wf[0], wf[1], wf[2]
            acc = 0.0
            for b0 in range(2):
                w0 = f0 if b0 else 1.0 - f0
                for b1 in range(2):
                    w1 = f1 if b1 else 1.0 - f1
                    for b2 in range(2):
                        w2 = f2 if b2 else 1.0 - f2
                        acc += (
                            w0 * w1 * w2
                            * table[ia + b0, ib + b1, ic + b2]
                        )
            out[p] = acc
        return out

    def numba_factory(controller) -> FLCKernel:  # pragma: no cover
        lut = build_lut(controller)
        if len(lut.grids) != 3:
            raise ValueError(
                "the numba FLC kernel is specialised for 3-input "
                f"controllers, got {len(lut.grids)} inputs"
            )
        g0, g1, g2 = (np.ascontiguousarray(g) for g in lut.grids)
        table = np.ascontiguousarray(lut.table)

        def kernel(cols: Sequence[np.ndarray]) -> np.ndarray:
            x0, x1, x2 = (
                np.ascontiguousarray(c, dtype=np.float64) for c in cols
            )
            return _interp3(g0, g1, g2, table, x0, x1, x2)

        # same table as "lut": carry its per-table validated bound
        kernel.error_bound = lut.error_bound
        return kernel

    # same table as "lut": same documented bound vs the reference
    register_flc_backend(
        "numba", numba_factory, error_bound=LUT_ERROR_BOUND, own_threads=True
    )


register_flc_backend("reference", _reference_factory, error_bound=0.0)
register_flc_backend("lut", _lut_factory, error_bound=LUT_ERROR_BOUND)

KERNELS.optional.append(_register_numba)
