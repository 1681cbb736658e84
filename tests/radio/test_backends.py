"""Pathloss-backend conformance matrix and registry contract.

Every registered kernel must reproduce the ``reference`` kernel (the
seed ``PropagationModel`` chain, extracted verbatim) over a grid of
shapes, dtypes and edge geometries, within the tolerance contract
documented in :mod:`repro.radio.backends`:

* NumPy-family kernels (``reference``, ``numpy``): ``rtol = 1e-12``
  (`NUMPY_CONFORMANCE_RTOL`) — bit-identical in practice, additionally
  pinned exactly;
* accelerator kernels (``numba``, ``jax``): ``rtol = atol = 1e-9``
  (`ACCELERATOR_CONFORMANCE_RTOL`) — the same op order through a
  different libm/XLA.

Optional backends skip (via ``pytest.importorskip``) rather than fail
when their package is absent, so tier-1 stays dependency-light; the
optional-deps CI leg installs numba and runs this module via
``-m backend``.

The Hypothesis section pins the two batch laws every backend must obey:
a stacked batch equals row-wise evaluation (no cross-point coupling),
and permuting points permutes outputs (no positional leakage).
"""

import math
import sys
import threading
import time
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.radio import (
    ACCELERATOR_CONFORMANCE_RTOL,
    BACKEND_ENV_VAR,
    NUMPY_CONFORMANCE_RTOL,
    DipoleAntenna,
    KernelParams,
    PropagationModel,
    available_backends,
    get_backend,
    register_backend,
    resolve_backend,
    unregister_backend,
)
from repro import fanout
from repro.radio import backends
from repro.radio.backends import optimized_numpy_kernel, reference_kernel

from registry_contract import Family, RegistryContract

pytestmark = pytest.mark.backend

#: NumPy-family backends ship with the package and are exact.
EXACT_BACKENDS = ("reference", "numpy")

#: Optional accelerator backends: (name, import target for skipping).
OPTIONAL_BACKENDS = (("numba", "numba"), ("jax", "jax"))

ALL_BACKENDS = EXACT_BACKENDS + tuple(name for name, _ in OPTIONAL_BACKENDS)


@pytest.fixture(params=ALL_BACKENDS)
def backend(request):
    """Every conformance backend; optional ones skip when their package
    is missing, but *fail* when the package imports and the kernel still
    did not register — that is what the optional-deps CI leg exists to
    catch."""
    name = request.param
    if name not in available_backends():
        modules = dict(OPTIONAL_BACKENDS)
        pytest.importorskip(modules[name])
        pytest.fail(
            f"{modules[name]} imports but backend {name!r} failed to "
            "register"
        )
    return name


def tolerance_of(name):
    """The documented conformance bound for a backend name."""
    if name in EXACT_BACKENDS:
        return dict(rtol=NUMPY_CONFORMANCE_RTOL, atol=0.0)
    return dict(
        rtol=ACCELERATOR_CONFORMANCE_RTOL, atol=ACCELERATOR_CONFORMANCE_RTOL
    )


def assert_law_holds(backend, got, expected):
    """Batch-law agreement: exact for the NumPy family; accelerator
    kernels may recompile per shape (jax) or vectorise differently per
    lane (SIMD remainder loops), so they get their documented bound."""
    if backend in EXACT_BACKENDS:
        np.testing.assert_array_equal(got, expected)
    else:
        np.testing.assert_allclose(got, expected, **tolerance_of(backend))


def paper_params() -> KernelParams:
    return PropagationModel().kernel_params()


def site_grid(n_sites, seed=7):
    rng = np.random.default_rng(seed)
    return rng.uniform(-2.0, 2.0, size=(n_sites, 2))


def point_grid(n_pts, seed=11):
    rng = np.random.default_rng(seed)
    return rng.uniform(-7.0, 7.0, size=(n_pts, 2))


PATHLOSS = Family(
    name="pathloss",
    registry=backends.KERNELS,
    register=register_backend,
    unregister=unregister_backend,
    available=available_backends,
    get=get_backend,
    resolve=resolve_backend,
    runs_own_threads=backends.runs_own_threads,
    env_var=BACKEND_ENV_VAR,
    default="numpy",
    builtins={"reference": reference_kernel, "numpy": optimized_numpy_kernel},
    alt="reference",
    kernel=reference_kernel,
)


class TestRegistry(RegistryContract):
    family = PATHLOSS

    def test_register_rejects_reserved_auto_name(self):
        with pytest.raises(ValueError, match="reserved"):
            register_backend("auto", reference_kernel)

    def test_a_registration_drops_the_auto_choice(self, isolated):
        isolated.auto_choice = "reference"
        register_backend("tmp-kernel", reference_kernel)
        assert isolated.auto_choice is None

    def test_auto_runs_own_threads_of_its_choice(self, isolated):
        register_backend("tmp-pool", reference_kernel, own_threads=True)
        isolated.auto_choice = "tmp-pool"
        assert backends.runs_own_threads("auto")
        isolated.auto_choice = "numpy"
        assert not backends.runs_own_threads("auto")

    @pytest.mark.parametrize("name", ["numba", "jax"])
    def test_accelerators_run_own_threads(self, name):
        pytest.importorskip(name)
        assert backends.runs_own_threads(name)


class TestAutoProbe:
    """ISSUE-4 satellite: ``resolve_backend("auto")`` picks the fastest
    registered kernel on the executing host."""

    def test_resolve_auto_returns_concrete_registered_name(self):
        import repro.radio.backends as B

        name = resolve_backend("auto")
        assert name != "auto"
        assert name in available_backends()
        # the probe is cached per process
        assert B.KERNELS.auto_choice == name
        assert resolve_backend("auto") == name

    def test_env_var_auto_resolves_too(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "auto")
        assert resolve_backend(None) in available_backends()

    def test_probe_prefers_measurably_faster_fake_backend(self):
        import time

        from repro.radio import fastest_backend

        def slow_kernel(bs, pts, params):
            time.sleep(0.01)
            return reference_kernel(bs, pts, params)

        register_backend("fake-slow", slow_kernel)
        register_backend("fake-fast", reference_kernel)
        try:
            # explicit candidates bypass (and never pollute) the cache
            winner = fastest_backend(
                candidates=("fake-slow", "fake-fast"), n_points=64,
            )
            assert winner == "fake-fast"
        finally:
            unregister_backend("fake-slow")
            unregister_backend("fake-fast")

    def test_refresh_reprobes_after_registry_change(self):
        import repro.radio.backends as B
        from repro.radio import fastest_backend

        def instant_kernel(bs, pts, params):
            return np.zeros((pts.shape[0], bs.shape[0]))

        register_backend("fake-instant", instant_kernel)
        try:
            winner = fastest_backend(refresh=True, n_points=64)
            assert winner in available_backends()
            assert B.KERNELS.auto_choice == winner
        finally:
            unregister_backend("fake-instant")
        # unregistering the cached winner invalidates the cache, so a
        # later "auto" never resolves to a missing kernel
        assert B.KERNELS.auto_choice != "fake-instant"
        assert resolve_backend("auto") in available_backends()

    def test_unregister_invalidates_stale_auto_cache(self):
        import repro.radio.backends as B

        def instant_kernel(bs, pts, params):
            return np.zeros((pts.shape[0], bs.shape[0]))

        register_backend("fake-winner", instant_kernel)
        try:
            # as if the probe picked it
            B.KERNELS.auto_choice = "fake-winner"
        finally:
            unregister_backend("fake-winner")
        assert B.KERNELS.auto_choice is None
        assert resolve_backend("auto") in available_backends()

    def test_probe_with_no_candidates_rejected(self):
        from repro.radio import fastest_backend

        with pytest.raises(ValueError, match="no pathloss backends"):
            fastest_backend(candidates=())

    def test_auto_threads_through_fleet_shard(self, monkeypatch):
        # a fleet shard pinned to "auto" resolves on the executing host;
        # pin the probe's answer so the assertion is backend-agnostic
        import repro.radio.backends as B

        from repro.sim import FleetSpec, SerialExecutor
        from repro.sim import SimulationParameters as SP
        from repro.sim import run_fleet

        monkeypatch.setattr(B.KERNELS, "auto_choice", "reference")

        def run(backend):
            spec = FleetSpec(
                n_ues=4, n_walks=3,
                params=SP(
                    measurement_spacing_km=0.2, n_walks=3,
                    pathloss_backend=backend,
                ),
            )
            return run_fleet(spec, n_shards=2, executor=SerialExecutor())

        assert run("auto") == run("reference")


class TestKernelParams:
    def test_from_model_matches_seed_expressions(self):
        model = PropagationModel()
        p = model.kernel_params()
        a = model.antenna
        assert p.height_delta_m == model.rx_height_m - a.height_m
        assert p.tilt_rad == math.radians(a.tilt_deg)
        assert p.field_amp == math.sqrt(45.0 * a.power_w / 1.5 * a.gain)
        assert p.path_loss_exponent == a.path_loss_exponent
        assert p.effective_aperture_m2 == model.effective_aperture_m2

    def test_hashable_for_jit_caches(self):
        assert hash(paper_params()) == hash(paper_params())


class TestConformanceMatrix:
    """Every backend vs the reference oracle over shapes/dtypes/edges."""

    @pytest.mark.parametrize("n_pts", [1, 7, 256])
    @pytest.mark.parametrize("n_sites", [1, 7])
    def test_shape_grid(self, backend, n_pts, n_sites):
        kernel = get_backend(backend)
        params = paper_params()
        sites = site_grid(n_sites)
        pts = point_grid(n_pts)
        expected = reference_kernel(sites, pts, params)
        got = kernel(sites, pts, params)
        assert got.shape == (n_pts, n_sites)
        assert got.dtype == np.float64
        np.testing.assert_allclose(got, expected, **tolerance_of(backend))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
    def test_dtype_coercion_through_model(self, backend, dtype):
        # the model layer converts inputs to float64 before any kernel
        model = PropagationModel(backend=backend)
        sites = np.array([[0, 0], [1, 1]], dtype=dtype)
        pts = np.array([[1, 0], [2, 3], [5, 5]], dtype=dtype)
        expected = PropagationModel(backend="reference").power_from_sites(
            sites, pts
        )
        got = model.power_from_sites(sites, pts)
        np.testing.assert_allclose(got, expected, **tolerance_of(backend))

    def test_near_field_clamp(self, backend):
        # receiver 0.1 m below the mast top: slant range 0.1 m at the
        # mast foot, clamped to 1 m inside every kernel
        model = PropagationModel(rx_height_m=39.9, backend=backend)
        sites = np.zeros((1, 2))
        pts = np.array([[0.0, 0.0], [1e-5, 0.0]])
        expected = PropagationModel(
            rx_height_m=39.9, backend="reference"
        ).power_from_sites(sites, pts)
        got = model.power_from_sites(sites, pts)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, expected, **tolerance_of(backend))

    def test_pattern_null_gives_minus_inf(self, backend):
        # θ = φ exactly: untilted dipole, receiver directly above the
        # mast → sin(0) = 0 → zero power → -inf dBW on every backend
        model = PropagationModel(
            antenna=DipoleAntenna(tilt_deg=0.0), rx_height_m=50.0,
            backend=backend,
        )
        out = model.power_from_sites(np.zeros((1, 2)), np.zeros((1, 2)))
        assert out.shape == (1, 1)
        assert np.isneginf(out[0, 0])

    def test_far_field_7km(self, backend):
        kernel = get_backend(backend)
        params = paper_params()
        sites = np.zeros((1, 2))
        pts = np.array([[7.0, 0.0], [0.0, -7.0], [7.0 / np.sqrt(2)] * 2])
        expected = reference_kernel(sites, pts, params)
        got = kernel(sites, pts, params)
        np.testing.assert_allclose(got, expected, **tolerance_of(backend))
        # the paper's band: still above -140 dBW at the 7 km edge
        assert np.all(got > -140.0) and np.all(got < -60.0)

    def test_nondefault_physics(self, backend):
        # 20 W / 2 km-class geometry exercises every params field
        model = PropagationModel(
            antenna=DipoleAntenna(
                power_w=20.0, height_m=60.0, tilt_deg=7.0,
                path_loss_exponent=1.4,
            ),
            rx_height_m=2.5,
            backend=backend,
        )
        sites = site_grid(3, seed=5)
        pts = point_grid(40, seed=6)
        expected = reference_kernel(sites, pts, model.kernel_params())
        got = model.power_from_sites(sites, pts)
        np.testing.assert_allclose(got, expected, **tolerance_of(backend))

    def test_numpy_family_bit_identical(self):
        """Stronger than the rtol pin: the optimized kernel performs the
        reference's elementwise ops in the reference's order, so its
        output is byte-for-byte the reference's."""
        params = paper_params()
        sites = site_grid(7)
        pts = point_grid(512)
        np.testing.assert_array_equal(
            optimized_numpy_kernel(sites, pts, params),
            reference_kernel(sites, pts, params),
        )


class TestModelIntegration:
    def test_with_backend_roundtrip(self):
        model = PropagationModel()
        assert model.backend is None
        pinned = model.with_backend("reference")
        assert pinned.backend == "reference"
        assert pinned.with_backend(None).backend is None
        assert "backend='reference'" in repr(pinned)

    def test_unknown_backend_fails_at_use_not_construction(self):
        model = PropagationModel(backend="not-a-kernel")
        with pytest.raises(ValueError, match="unknown pathloss backend"):
            model.power_from_sites(np.zeros((1, 2)), np.ones((1, 2)))

    def test_invalid_backend_field_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            PropagationModel(backend="")

    def test_batch_path_uses_selected_kernel(self, backend):
        model = PropagationModel(backend=backend)
        sites = site_grid(4)
        pts = point_grid(24).reshape(4, 6, 2)
        expected = PropagationModel(
            backend="reference"
        ).power_from_sites_batch(sites, pts)
        got = model.power_from_sites_batch(sites, pts)
        assert got.shape == (4, 6, 4)
        np.testing.assert_allclose(got, expected, **tolerance_of(backend))


# ----------------------------------------------------------------------
# Hypothesis properties — the laws any backend must obey
# ----------------------------------------------------------------------
coords = st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False
)


def points_strategy(max_rows=8):
    return hnp.arrays(
        dtype=np.float64,
        shape=st.tuples(st.integers(1, max_rows), st.just(2)),
        elements=coords,
    )


class TestBackendProperties:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(pts=points_strategy(), sites=points_strategy(7))
    def test_batch_equals_rowwise(self, backend, pts, sites):
        """A stacked batch is exactly the rows evaluated one at a time:
        kernels are elementwise per point, with no cross-point coupling."""
        model = PropagationModel(backend=backend)
        batched = model.power_from_sites(sites, pts)
        rowwise = np.vstack(
            [model.power_from_sites(sites, pts[i : i + 1]) for i in
             range(pts.shape[0])]
        )
        assert_law_holds(backend, batched, rowwise)

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        pts=points_strategy(),
        sites=points_strategy(7),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_permuting_points_permutes_outputs(self, backend, pts, sites,
                                               seed):
        """No positional leakage: shuffling the UEs shuffles the power
        matrix rows and changes nothing else."""
        model = PropagationModel(backend=backend)
        perm = np.random.default_rng(seed).permutation(pts.shape[0])
        assert_law_holds(
            backend,
            model.power_from_sites(sites, pts[perm]),
            model.power_from_sites(sites, pts)[perm],
        )

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(pts=points_strategy(), sites=points_strategy(7))
    def test_stacked_batch_equals_power_from_sites(self, backend, pts,
                                                   sites):
        """`power_from_sites_batch` on a (1, n, 2) stack is exactly
        `power_from_sites` on the flat (n, 2) rows."""
        model = PropagationModel(backend=backend)
        assert_law_holds(
            backend,
            model.power_from_sites_batch(sites, pts[None, :, :])[0],
            model.power_from_sites(sites, pts),
        )


# ----------------------------------------------------------------------
# the numpy kernel's blocks and threads
# ----------------------------------------------------------------------
#: Untilted dipole below the receiver: a point exactly at a site sits on
#: the pattern null (θ = φ = 0), so its power from that site is -inf.
NULL_PARAMS = PropagationModel(
    antenna=DipoleAntenna(tilt_deg=0.0), rx_height_m=50.0
).kernel_params()


def kernel_threads(n):
    """Patch the usable-CPU count the numpy kernel's fan-out reads to
    ``n``."""
    return mock.patch.object(fanout, "usable_cpus", lambda: n)


def block_points(n):
    return mock.patch.object(backends, "_BLOCK_POINTS", n)


def point_view(rng, n_pts, layout):
    """``(n_pts, 2)`` points, contiguous or one of three strided views."""
    if layout == "strided":
        return rng.uniform(-7.0, 7.0, size=(2 * n_pts, 2))[::2]
    if layout == "fortran":
        return np.asfortranarray(rng.uniform(-7.0, 7.0, size=(n_pts, 2)))
    if layout == "columns":
        return rng.uniform(-7.0, 7.0, size=(n_pts, 3))[:, 1:]
    return rng.uniform(-7.0, 7.0, size=(n_pts, 2))


@st.composite
def blocked_cases(draw):
    block = draw(st.sampled_from([1, 7, backends._BLOCK_POINTS]))
    several = draw(st.integers(2, 4)) * block + draw(st.integers(0, block - 1))
    n_pts = draw(
        st.sampled_from([0, 1, block - 1, block, block + 1, several])
    )
    return {
        "block": block,
        "n_pts": n_pts,
        "threads": draw(st.sampled_from([1, 2, 3, 8])),
        "n_sites": draw(st.sampled_from([1, 7, 19])),
        "layout": draw(
            st.sampled_from(["contiguous", "strided", "fortran", "columns"])
        ),
        "null": n_pts > 0 and draw(st.booleans()),
        "seed": draw(st.integers(0, 2**16)),
    }


class TestBlockedNumpyKernel:
    """The numpy kernel splits points into blocks spread over threads;
    every block and thread count gives the reference's bytes."""

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(case=blocked_cases())
    def test_bytes_equal_reference(self, case):
        rng = np.random.default_rng(case["seed"])
        sites = rng.uniform(-2.0, 2.0, size=(case["n_sites"], 2))
        pts = point_view(rng, case["n_pts"], case["layout"])
        params = paper_params()
        if case["null"]:
            params = NULL_PARAMS
            p = int(rng.integers(case["n_pts"]))
            b = int(rng.integers(case["n_sites"]))
            pts[p] = sites[b]
        with block_points(case["block"]), kernel_threads(case["threads"]):
            with warnings.catch_warnings():
                # a pattern null's log10(0) warns in no thread
                warnings.simplefilter("error", RuntimeWarning)
                got = optimized_numpy_kernel(sites, pts, params)
        want = reference_kernel(sites, pts, params)
        assert got.shape == want.shape == (case["n_pts"], case["n_sites"])
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()
        if case["null"]:
            assert np.isneginf(got[p, b])

    @pytest.mark.parametrize("raiser", ["caller", "worker"])
    def test_block_error_reaches_caller_and_joins_threads(self, raiser):
        chain = backends._chain
        done = []

        def flaky(*args):
            in_caller = threading.current_thread() is threading.main_thread()
            if in_caller == (raiser == "caller"):
                raise ArithmeticError(f"block failed in the {raiser}")
            time.sleep(0.002)  # leave blocks for the other side
            chain(*args)
            done.append(1)

        before = threading.active_count()
        with mock.patch.object(backends, "_chain", flaky), block_points(4), \
                kernel_threads(2):
            with pytest.raises(ArithmeticError, match=raiser):
                optimized_numpy_kernel(
                    site_grid(7), point_grid(64), paper_params()
                )
        assert threading.active_count() == before
        # the failure stopped the hand-out: the other side finished at
        # most the block it held, not the remaining 15
        assert len(done) <= 2

    def test_stress_tiny_blocks_and_concurrent_callers(self):
        """Eight threads per call on one-point blocks with a 1 µs switch
        interval, two calls at once: a block taken twice or never would
        show in the bytes."""
        params = paper_params()
        sites = site_grid(19)
        pts = [point_grid(150, seed=s) for s in (1, 2)]
        want = [reference_kernel(sites, p, params) for p in pts]
        got = [None, None]

        def call(i):
            got[i] = optimized_numpy_kernel(sites, pts[i], params)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with block_points(1), kernel_threads(8):
                callers = [
                    threading.Thread(target=call, args=(i,)) for i in (0, 1)
                ]
                for t in callers:
                    t.start()
                for t in callers:
                    t.join(timeout=60.0)
                assert not any(t.is_alive() for t in callers)
        finally:
            sys.setswitchinterval(interval)
        for g, w in zip(got, want):
            assert g is not None and g.tobytes() == w.tobytes()
