"""Compiled-FLC backend conformance matrix and registry contract.

Mirrors ``tests/radio/test_backends.py`` for the FLC inference layer:
every registered :mod:`repro.fuzzy.compiled` backend must reproduce the
``reference`` grid pipeline over a matrix of input regions and batch
shapes, within the documented accuracy contract:

* ``reference``: exact by definition (it *is* the oracle) — and the
  NumPy-family decision path is exact on every backend: the guard band
  in :meth:`FuzzyHandoverSystem.decision_outputs_batch` re-evaluates
  borderline outputs through the reference kernel, so ``output >
  threshold`` never flips;
* interpolated backends (``lut``, optional ``numba``): absolute output
  error within ``LUT_ERROR_BOUND`` over the full input box at the
  default grid resolution — pinned here both on a dense deterministic
  sweep and by a Hypothesis property over the whole box.

Optional backends skip (via ``pytest.importorskip``) rather than fail
when their package is absent, so tier-1 stays dependency-light; the
optional-deps CI leg installs numba and runs this module via
``-m flc_backend``.
"""

import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.flc import (
    HANDOVER_THRESHOLD,
    build_handover_flc,
    build_handover_rule_base,
)
from repro.core.system import FuzzyHandoverSystem
from repro.fuzzy import (
    FLC_BACKEND_ENV_VAR,
    LUT_ERROR_BOUND,
    LUT_POINTS_PER_SEGMENT,
    FuzzyController,
    Rule,
    RuleBase,
    available_flc_backends,
    build_lut,
    compile_flc,
    flc_error_bound,
    get_flc_backend,
    kernel_error_bound,
    lut_axis_grid,
    register_flc_backend,
    resolve_flc_backend,
    ruspini_partition,
    sugeno_from_mamdani,
    unregister_flc_backend,
)
from repro.fuzzy import compiled
from repro.fuzzy.compiled import (
    DecisionLUT,
    _lut_factory,
    _reference_factory,
    coerce_inputs,
)

from registry_contract import Family, RegistryContract

pytestmark = pytest.mark.flc_backend

#: Exact backends ship with the package.
EXACT_BACKENDS = ("reference",)

#: Interpolated backends with the documented LUT bound.
INTERP_BACKENDS = ("lut",)

#: Optional backends: (name, import target for skipping).
OPTIONAL_BACKENDS = (("numba", "numba"),)

ALL_BACKENDS = (
    EXACT_BACKENDS
    + INTERP_BACKENDS
    + tuple(name for name, _ in OPTIONAL_BACKENDS)
)


@pytest.fixture(scope="module")
def flc():
    return build_handover_flc()


@pytest.fixture(params=ALL_BACKENDS)
def backend(request):
    """Every conformance backend; optional ones skip when their package
    is missing, but *fail* when the package imports and the kernel
    still did not register — that is what the optional-deps CI leg
    exists to catch."""
    name = request.param
    if name not in available_flc_backends():
        modules = dict(OPTIONAL_BACKENDS)
        pytest.importorskip(modules[name])
        pytest.fail(
            f"{modules[name]} imports but FLC backend {name!r} failed "
            "to register"
        )
    return name


def tolerance_of(name):
    """The documented conformance bound for a backend name."""
    if name in EXACT_BACKENDS:
        return 0.0
    return LUT_ERROR_BOUND


def box_samples(n, seed=3, margin=0.0):
    """Random (CSSP, SSN, DMB) columns over the input box, optionally
    extended past the universe edges (the clipping conformance case)."""
    rng = np.random.default_rng(seed)
    return {
        "CSSP": rng.uniform(-10.0 - margin, 10.0 + margin, n),
        "SSN": rng.uniform(-120.0 - margin, -80.0 + margin, n),
        "DMB": rng.uniform(0.0 - margin, 1.5 + margin, n),
    }


FLC = Family(
    name="FLC",
    registry=compiled.KERNELS,
    register=register_flc_backend,
    unregister=unregister_flc_backend,
    available=available_flc_backends,
    get=get_flc_backend,
    resolve=resolve_flc_backend,
    runs_own_threads=compiled.flc_runs_own_threads,
    env_var=FLC_BACKEND_ENV_VAR,
    default="reference",
    builtins={"reference": _reference_factory, "lut": _lut_factory},
    alt="lut",
    kernel=_reference_factory,
)


class TestRegistry(RegistryContract):
    family = FLC

    def test_env_var_selects_kernel_end_to_end(self, monkeypatch, flc):
        super().test_env_var_selects_kernel_end_to_end(monkeypatch)
        monkeypatch.delenv(FLC_BACKEND_ENV_VAR, raising=False)
        inputs = box_samples(64)
        expected = flc.evaluate_batch(inputs, backend="lut")
        monkeypatch.setenv(FLC_BACKEND_ENV_VAR, "lut")
        np.testing.assert_array_equal(flc.evaluate_batch(inputs), expected)

    def test_register_rejects_negative_bound(self):
        with pytest.raises(ValueError, match="error_bound"):
            register_flc_backend(
                "tmp-kernel", _reference_factory, error_bound=-1.0
            )

    @pytest.mark.parametrize(
        "bound", [np.float32(0.02), np.float64(0.5), np.int64(1), 0.0, 2]
    )
    def test_register_takes_any_real_bound(self, bound, isolated):
        register_flc_backend("tmp-kernel", _lut_factory, error_bound=bound)
        assert flc_error_bound("tmp-kernel") == float(bound)
        assert type(flc_error_bound("tmp-kernel")) is float

    @pytest.mark.parametrize(
        "bound", [True, False, np.bool_(True), float("nan"), "0.1", None]
    )
    def test_register_refuses_a_bound_that_is_no_real_number(self, bound):
        with pytest.raises(ValueError, match="error_bound"):
            register_flc_backend(
                "tmp-kernel", _reference_factory, error_bound=bound
            )
        assert "tmp-kernel" not in available_flc_backends()

    def test_error_bounds_documented(self):
        assert flc_error_bound("reference") == 0.0
        assert flc_error_bound("lut") == LUT_ERROR_BOUND

    def test_controller_rejects_bad_backend_pin(self):
        from repro.fuzzy import FuzzyController

        with pytest.raises(ValueError, match="backend"):
            FuzzyController(build_handover_flc().rule_base, backend="")

    def test_unknown_backend_fails_at_use_not_construction(self, flc):
        flc2 = build_handover_flc()
        flc2.backend = "not-a-kernel"
        with pytest.raises(ValueError, match="unknown FLC backend"):
            flc2.evaluate_batch(box_samples(4))

    def test_numba_runs_own_threads(self):
        pytest.importorskip("numba")
        assert compiled.flc_runs_own_threads("numba")


class TestLUTConstruction:
    def test_axis_grids_are_anchor_aligned(self, flc):
        """Every membership breakpoint of every input variable lies
        exactly on its LUT axis grid."""
        for var in flc.input_variables:
            grid = lut_axis_grid(var, LUT_POINTS_PER_SEGMENT)
            assert grid[0] == var.universe[0]
            assert grid[-1] == var.universe[1]
            assert np.all(np.diff(grid) > 0)
            for term in var.terms:
                for p in (*term.mf.core, *term.mf.support):
                    if np.isfinite(p) and (
                        var.universe[0] <= p <= var.universe[1]
                    ):
                        assert np.any(grid == p), (
                            f"{var.name}: breakpoint {p} off-grid"
                        )

    def test_axis_grid_rejects_bad_resolution(self, flc):
        with pytest.raises(ValueError, match="points_per_segment"):
            lut_axis_grid(flc.input_variables[0], 0)

    def test_table_nodes_are_exact(self, flc):
        """At grid nodes the interpolant reproduces the reference
        output exactly (interpolation error is strictly intra-cell)."""
        lut = build_lut(flc)
        sample = [g[:: max(1, g.shape[0] // 7)] for g in lut.grids]
        mesh = np.meshgrid(*sample, indexing="ij")
        cols = [m.ravel() for m in mesh]
        got = lut(cols)
        expected = flc.evaluate_batch(
            dict(zip(flc.input_names, cols)), backend="reference"
        )
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_build_is_cached_per_structure(self, flc):
        """Structurally equal controllers share one compiled table."""
        assert build_lut(flc) is build_lut(build_handover_flc())

    def test_different_membership_params_get_different_tables(self, flc):
        """Controllers differing *only* in membership breakpoints must
        not share a cached table (the MF classes are __slots__-backed,
        so the fingerprint has to walk slots, not vars())."""
        from repro.core.flc import (
            CSSP_LABELS,
            CSSP_TERMS,
            build_handover_rule_base,
        )
        from repro.fuzzy import FuzzyController, ruspini_partition
        from repro.fuzzy.rules import RuleBase

        base = build_handover_rule_base()
        shifted_cssp = ruspini_partition(
            "CSSP", (-10.0, -4.0, 1.0, 10.0), CSSP_TERMS,
            labels=CSSP_LABELS, unit="dB",
        )
        shifted = RuleBase(
            input_variables=[shifted_cssp, *base.input_variables[1:]],
            output_variable=base.output_variable,
            rules=list(base.rules),
        )
        a = FuzzyController(base)
        b = FuzzyController(shifted)
        assert a._structural_key() != b._structural_key()
        lut_a, lut_b = build_lut(a), build_lut(b)
        assert lut_a is not lut_b
        assert not np.array_equal(lut_a.table, lut_b.table)

    def test_per_table_bound_validated_at_build(self, flc):
        """build_lut measures the table's own midpoint residual and
        never reports a bound below the documented floor; the decision
        guard band follows the per-table bound."""
        from repro.fuzzy import kernel_error_bound

        lut = build_lut(flc)
        assert lut.error_bound >= LUT_ERROR_BOUND
        assert kernel_error_bound(flc, "lut") == lut.error_bound
        assert kernel_error_bound(flc, "reference") == 0.0
        # the raw midpoint residual itself stays within the documented
        # output bound for the paper controller (the safety-factored
        # guard band may sit above it)
        mids = [0.5 * (g[:-1] + g[1:]) for g in lut.grids]
        mesh = np.meshgrid(*mids, indexing="ij")
        cols = [m.ravel() for m in mesh]
        residual = np.abs(
            lut(cols)
            - flc.evaluate_batch(
                dict(zip(flc.input_names, cols)), backend="reference"
            )
        )
        assert residual.max() <= LUT_ERROR_BOUND

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="table shape"):
            DecisionLUT(
                grids=(np.linspace(0, 1, 4),), table=np.zeros(3)
            )

    def test_non_contiguous_table_normalised(self, flc):
        """A user-built LUT over a transposed (non-C-contiguous) table
        interpolates correctly — construction normalises the layout."""
        lut = build_lut(flc)
        swapped = DecisionLUT(
            grids=tuple(reversed(lut.grids)), table=lut.table.T
        )
        assert swapped.table.flags.c_contiguous
        inputs = box_samples(128, seed=51)
        cols = [inputs[n] for n in flc.input_names]
        # corner accumulation order permutes with the axes, so agree to
        # summation-order rounding, not bit-for-bit
        np.testing.assert_allclose(
            swapped(list(reversed(cols))), lut(cols), rtol=0, atol=1e-12
        )

    def test_wrong_column_count_rejected(self, flc):
        lut = build_lut(flc)
        with pytest.raises(ValueError, match="input columns"):
            lut([np.zeros(3), np.zeros(3)])


class TestNaNRefused:
    """Every backend refuses a NaN input with the reference's error; an
    interpolated NaN output would read as "no handover" downstream."""

    @pytest.mark.parametrize("name", ["CSSP", "SSN", "DMB"])
    def test_evaluate_batch_refuses_nan(self, backend, flc, name):
        inputs = box_samples(8, seed=61)
        inputs[name][3] = np.nan
        with pytest.raises(ValueError, match=f"{name}: cannot fuzzify NaN"):
            flc.evaluate_batch(inputs, backend=backend)

    def test_decision_path_refuses_nan(self, backend, flc):
        system = FuzzyHandoverSystem(flc=flc, flc_backend=backend)
        inputs = box_samples(8, seed=63)
        inputs["SSN"][0] = np.nan
        with pytest.raises(ValueError, match="SSN: cannot fuzzify NaN"):
            system.decision_outputs_batch(
                inputs["CSSP"], inputs["SSN"], inputs["DMB"]
            )

    def test_sugeno_refuses_nan(self, backend, flc):
        sugeno = sugeno_from_mamdani(flc.rule_base)
        inputs = box_samples(8, seed=65)
        inputs["DMB"][5] = np.nan
        with pytest.raises(ValueError, match="DMB: cannot fuzzify NaN"):
            sugeno.evaluate_batch(inputs, backend=backend)


class TestBuildArguments:
    @pytest.mark.parametrize("bad", [4.7, 4.0, True, "4", None, 0, -1])
    def test_points_per_segment_validated_before_cache(self, flc, bad):
        """A non-integer resolution is refused whether or not a table
        its truncation would key is cached."""
        build_lut(flc, 4)
        with pytest.raises(ValueError, match="points_per_segment"):
            build_lut(flc, bad)

    def test_numpy_integer_resolution_shares_the_cache(self, flc):
        assert build_lut(flc, np.int64(4)) is build_lut(flc, 4)


#: sha256 of the paper LUT's grid bytes, table bytes and
#: ``repr(error_bound)`` (see :func:`lut_digest`), as compiled by the
#: plane-by-plane sampler before activation rows were deduplicated.
PAPER_LUT_SHA256 = (
    "7bba6bcad4907f09dcdf5ee44401905426772ad1d77bcefd8c408cf25d20a43d"
)


def lut_digest(lut):
    h = hashlib.sha256()
    for grid in lut.grids:
        h.update(grid.tobytes())
    h.update(lut.table.tobytes())
    h.update(repr(lut.error_bound).encode())
    return h.hexdigest()


def plane_by_plane_sample_surface(controller, names, grids):
    """The LUT sampler before activation-row dedup, kept verbatim as the
    byte oracle: ``decision_surface`` plane by plane for three-input
    controllers that have one, chunked ``evaluate_batch`` sweeps
    otherwise."""
    shape = tuple(g.shape[0] for g in grids)
    surface = getattr(controller, "decision_surface", None)
    if callable(surface) and len(grids) == 3:
        table = np.empty(shape)
        for i, x0 in enumerate(grids[0]):
            table[i] = surface(
                {names[1]: grids[1], names[2]: grids[2]},
                fixed={names[0]: float(x0)},
                backend="reference",
            )
        return table
    mesh = np.meshgrid(*grids, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=-1)
    out = np.empty(points.shape[0])
    for s in range(0, points.shape[0], 8192):
        block = points[s : s + 8192]
        out[s : s + 8192] = controller.evaluate_batch(
            {nm: block[:, v] for v, nm in enumerate(names)},
            backend="reference",
        )
    return out.reshape(shape)


def build_meshes(controller, points_per_segment):
    """The two meshes ``build_lut`` samples: grid nodes, cell midpoints."""
    grids = tuple(
        lut_axis_grid(v, points_per_segment)
        for v in controller.input_variables
    )
    return grids, tuple(0.5 * (g[:-1] + g[1:]) for g in grids)


def assert_sampler_matches_plane_by_plane(controller, points_per_segment):
    names = tuple(controller.input_names)
    for grids in build_meshes(controller, points_per_segment):
        got = compiled._sample_surface(controller, names, grids)
        expected = plane_by_plane_sample_surface(controller, names, grids)
        assert got.tobytes() == expected.tobytes()


#: Mamdani operator variants the deduplicated sampler must reproduce.
MAMDANI_VARIANTS = {
    "prod_and": {"and_method": "prod"},
    "bsum": {"agg_method": "bsum"},
    "prod_implication": {"implication": "prod"},
    "wavg": {"defuzzifier": "wavg"},
    "bisector": {"defuzzifier": "bisector"},
}


def two_input_controller():
    a = ruspini_partition("A", [0.0, 0.3, 1.0], ["LO", "MID", "HI"])
    b = ruspini_partition("B", [-5.0, 5.0], ["LO", "HI"])
    out = ruspini_partition("OUT", [0.0, 0.5, 1.0], ["N", "M", "Y"])
    rules = [
        Rule({"A": ta, "B": tb}, cons)
        for (ta, tb), cons in {
            ("LO", "LO"): "N", ("LO", "HI"): "M", ("MID", "LO"): "N",
            ("MID", "HI"): "Y", ("HI", "LO"): "M", ("HI", "HI"): "Y",
        }.items()
    ]
    return FuzzyController(RuleBase([a, b], out, rules))


class TestLUTBytes:
    """The deduplicated build compiles the same bytes as the
    plane-by-plane sampler it replaced."""

    def test_paper_lut_pinned(self, flc):
        lut = build_lut(flc)
        assert lut.error_bound == 0.03173908392672295
        assert lut_digest(lut) == PAPER_LUT_SHA256

    def test_paper_sampler_matches_plane_by_plane(self, flc):
        assert_sampler_matches_plane_by_plane(flc, LUT_POINTS_PER_SEGMENT)

    @pytest.mark.parametrize("chunk", [None, 97])
    @pytest.mark.parametrize("variant", sorted(MAMDANI_VARIANTS))
    def test_variant_sampler_matches_plane_by_plane(
        self, variant, chunk, monkeypatch
    ):
        if chunk is not None:
            monkeypatch.setattr(compiled, "_BUILD_CHUNK", chunk)
        controller = FuzzyController(
            build_handover_rule_base(), **MAMDANI_VARIANTS[variant]
        )
        assert_sampler_matches_plane_by_plane(controller, 6)

    @pytest.mark.parametrize("chunk", [None, 5])
    def test_two_input_sampler_matches_sweep(self, chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(compiled, "_BUILD_CHUNK", chunk)
        assert_sampler_matches_plane_by_plane(two_input_controller(), 12)

    def test_sugeno_sampler_unchanged(self, flc):
        assert_sampler_matches_plane_by_plane(
            sugeno_from_mamdani(flc.rule_base), LUT_POINTS_PER_SEGMENT
        )

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(n=st.integers(1, 5000), limit=st.integers(3, 2048))
    def test_build_chunks_cover_without_lone_rows(self, n, limit):
        spans = compiled._spans(n, limit)
        assert spans[0][0] == 0 and spans[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        sizes = [hi - lo for lo, hi in spans]
        assert max(sizes) <= limit
        assert n < 2 or min(sizes) >= 2


class TestBuildMemory:
    #: tracemalloc peak of a cold paper-FLC build: 18.3 MiB with the
    #: plane-by-plane sampler; defuzzifying every distinct row in one
    #: call instead of in ``_BUILD_CHUNK`` chunks peaks near 69 MiB.
    PEAK_LIMIT = 24 * 2**20

    def test_cold_build_peak_pinned(self, flc, monkeypatch):
        monkeypatch.setattr(compiled, "_LUT_CACHE", {})
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            build_lut(flc)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak - base <= self.PEAK_LIMIT, (
            f"cold build peaked at {(peak - base) / 2**20:.1f} MiB"
        )


class TestChunkedReference:
    """The reference backend runs in balanced spans of at most
    ``_BUILD_CHUNK`` samples: the bytes of one call over the whole
    batch, and ``(samples, grid)`` surfaces that do not grow with it."""

    #: tracemalloc peak of one 20,000-sample reference call: 4.9 MiB in
    #: spans, 92.8 MiB as one call over the batch.
    PEAK_LIMIT = 12 * 2**20

    @pytest.mark.parametrize("n", [1, 2, 1023, 1024, 1025, 2049, 20000])
    def test_bytes_equal_one_call_over_the_batch(self, flc, n):
        cols = coerce_inputs(
            flc.input_names, box_samples(n, seed=n, margin=1.0)
        )
        whole = flc._defuzzify_batch(flc._term_activation_batch(cols))
        assert flc._reference_batch(cols).tobytes() == whole.tobytes()

    def test_peak_pinned(self, flc):
        cols = coerce_inputs(flc.input_names, box_samples(20000))
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            flc._reference_batch(cols)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak - base <= self.PEAK_LIMIT, (
            f"reference call peaked at {(peak - base) / 2**20:.1f} MiB"
        )


class TestConformanceMatrix:
    """Every backend vs the reference oracle over regions and shapes."""

    @pytest.mark.parametrize("n", [1, 7, 256])
    def test_batch_shapes(self, backend, flc, n):
        inputs = box_samples(n)
        expected = flc.evaluate_batch(inputs, backend="reference")
        got = flc.evaluate_batch(inputs, backend=backend)
        assert got.shape == (n,)
        assert got.dtype == np.float64
        np.testing.assert_allclose(
            got, expected, rtol=0, atol=tolerance_of(backend) or 1e-15
        )

    def test_out_of_universe_clipping(self, backend, flc):
        """Inputs beyond the universe saturate identically on every
        backend (the reference clips before fuzzification, the LUT
        clips to its grid edges — the same box)."""
        inputs = box_samples(128, seed=5, margin=25.0)
        expected = flc.evaluate_batch(inputs, backend="reference")
        got = flc.evaluate_batch(inputs, backend=backend)
        np.testing.assert_allclose(
            got, expected, rtol=0, atol=tolerance_of(backend) or 1e-15
        )

    def test_dense_threshold_region_sweep(self, backend, flc):
        """A dense sweep of the decision-relevant region (outputs near
        the 0.7 threshold) stays within the documented bound."""
        rng = np.random.default_rng(11)
        n = 4096
        inputs = {
            "CSSP": rng.uniform(-8.0, 0.0, n),
            "SSN": rng.uniform(-100.0, -85.0, n),
            "DMB": rng.uniform(0.5, 1.2, n),
        }
        expected = flc.evaluate_batch(inputs, backend="reference")
        got = flc.evaluate_batch(inputs, backend=backend)
        np.testing.assert_allclose(
            got, expected, rtol=0, atol=tolerance_of(backend) or 1e-15
        )

    def test_scalar_evaluate_routes_through_backend(self, backend, flc):
        batch = flc.evaluate_batch(
            {"CSSP": np.array([-6.0]), "SSN": np.array([-85.0]),
             "DMB": np.array([0.9])},
            backend=backend,
        )
        scalar = flc.evaluate(-6.0, -85.0, 0.9, backend=backend)
        assert scalar == float(batch[0])

    def test_batch_equals_rowwise(self, backend, flc):
        """Kernels are elementwise per sample: a stacked batch is the
        rows evaluated one at a time (exact on every backend — the
        interpolated kernels are deterministic per point)."""
        inputs = box_samples(32, seed=9)
        batched = flc.evaluate_batch(inputs, backend=backend)
        rowwise = np.array(
            [
                flc.evaluate_batch(
                    {k: v[i : i + 1] for k, v in inputs.items()},
                    backend=backend,
                )[0]
                for i in range(32)
            ]
        )
        np.testing.assert_allclose(batched, rowwise, rtol=0, atol=1e-12)

    def test_permuting_samples_permutes_outputs(self, backend, flc):
        inputs = box_samples(64, seed=13)
        perm = np.random.default_rng(17).permutation(64)
        permuted = flc.evaluate_batch(
            {k: v[perm] for k, v in inputs.items()}, backend=backend
        )
        np.testing.assert_allclose(
            permuted,
            flc.evaluate_batch(inputs, backend=backend)[perm],
            rtol=0,
            atol=1e-12,
        )

    def test_wavg_controller_conformance(self, backend):
        """The registry compiles any controller with the contract —
        here the sampling-free weighted-average Mamdani variant."""
        flc = build_handover_flc(defuzzifier="wavg")
        inputs = box_samples(256, seed=21)
        expected = flc.evaluate_batch(inputs, backend="reference")
        got = flc.evaluate_batch(inputs, backend=backend)
        np.testing.assert_allclose(
            got, expected, rtol=0, atol=tolerance_of(backend) or 1e-15
        )

    def test_sugeno_controller_conformance(self, backend):
        """SugenoController compiles through the same registry (the
        generic chunked-sweep LUT build path)."""
        tsk = sugeno_from_mamdani(build_handover_flc().rule_base)
        inputs = box_samples(256, seed=23)
        expected = tsk.evaluate_batch(inputs, backend="reference")
        got = tsk.evaluate_batch(inputs, backend=backend)
        np.testing.assert_allclose(
            got, expected, rtol=0, atol=tolerance_of(backend) or 1e-15
        )


class TestDecisionEquivalence:
    """ISSUE-5 satellite: the guard-banded decision path pins zero
    decision flips at the default grid resolution."""

    def threshold_straddling_inputs(self, flc, n=4096, seed=31):
        """Random box samples enriched with the samples whose reference
        outputs straddle the threshold — the flip-prone population."""
        inputs = box_samples(n, seed=seed)
        ref = flc.evaluate_batch(inputs, backend="reference")
        near = np.abs(ref - HANDOVER_THRESHOLD) <= 0.1
        # keep every near-threshold sample plus a thinned background
        keep = near | (np.arange(n) % 7 == 0)
        return {k: v[keep] for k, v in inputs.items()}, ref[keep]

    def test_zero_decision_flips_across_threshold(self, backend, flc):
        inputs, ref = self.threshold_straddling_inputs(flc)
        assert inputs["CSSP"].shape[0] > 100  # the sweep is non-trivial
        system = FuzzyHandoverSystem(flc=flc, flc_backend=backend)
        out = system.decision_outputs_batch(
            inputs["CSSP"], inputs["SSN"], inputs["DMB"]
        )
        flips = (out > system.threshold) != (ref > system.threshold)
        assert not flips.any(), (
            f"{int(flips.sum())} decision flips on backend {backend!r}"
        )

    def test_zero_flips_at_ablation_thresholds(self, backend, flc):
        """The guard band follows the system's threshold, so the
        threshold-sweep ablations stay decision-exact too."""
        inputs = box_samples(2048, seed=37)
        ref = flc.evaluate_batch(inputs, backend="reference")
        for threshold in (0.5, 0.6, 0.7, 0.8):
            system = FuzzyHandoverSystem(
                flc=flc, threshold=threshold, flc_backend=backend
            )
            out = system.decision_outputs_batch(
                inputs["CSSP"], inputs["SSN"], inputs["DMB"]
            )
            assert not (
                (out > threshold) != (ref > threshold)
            ).any(), f"flips at threshold {threshold} on {backend!r}"

    def test_guard_band_values_are_reference_exact(self, flc):
        """Inside the guard band the decision path returns the
        reference value itself, not the interpolant."""
        inputs, ref = self.threshold_straddling_inputs(flc, seed=41)
        system = FuzzyHandoverSystem(flc=flc, flc_backend="lut")
        out = system.decision_outputs_batch(
            inputs["CSSP"], inputs["SSN"], inputs["DMB"]
        )
        near = np.abs(out - system.threshold) <= LUT_ERROR_BOUND
        np.testing.assert_array_equal(out[near], ref[near])

    def test_controller_level_pin_reaches_decision_path(self, flc):
        """A backend pinned on the *controller* (no system-level pin)
        drives the decision path too — the precedence chain is system
        pin > controller pin > policy default."""
        from repro.fuzzy import FuzzyController

        pinned = FuzzyController(
            build_handover_flc().rule_base, backend="lut"
        )
        via_controller = FuzzyHandoverSystem(flc=pinned)
        via_system = FuzzyHandoverSystem(flc=flc, flc_backend="lut")
        inputs = box_samples(512, seed=47)
        np.testing.assert_array_equal(
            via_controller.decision_outputs_batch(
                inputs["CSSP"], inputs["SSN"], inputs["DMB"]
            ),
            via_system.decision_outputs_batch(
                inputs["CSSP"], inputs["SSN"], inputs["DMB"]
            ),
        )

    def test_scalar_decide_uses_guarded_path(self, flc):
        """The scalar pipeline's FLC stage routes through the same
        guarded outputs: borderline scalar decisions match reference."""
        ref_sys = FuzzyHandoverSystem(flc=flc)
        lut_sys = FuzzyHandoverSystem(flc=flc, flc_backend="lut")
        rng = np.random.default_rng(43)
        for _ in range(64):
            cssp = rng.uniform(-8.0, 0.0)
            ssn = rng.uniform(-100.0, -85.0)
            dmb = rng.uniform(0.5, 1.2)
            a = ref_sys.decision_outputs_batch(
                np.array([cssp]), np.array([ssn]), np.array([dmb])
            )[0]
            b = lut_sys.decision_outputs_batch(
                np.array([cssp]), np.array([ssn]), np.array([dmb])
            )[0]
            assert (a > ref_sys.threshold) == (b > lut_sys.threshold)


class TestGuardBandAudit:
    """Seeded audit of the table's global guard band: the bound is
    measured at cell midpoints, not proven for whole cells, so check
    decisions directly.  Every sample within 0.1 of the threshold (about
    18% of the box) plus a fixed 1-in-16 subsample of the rest goes
    through the guarded ``lut`` decision path and through
    ``reference``.  (Narrowing the band to 0.001 flips about 1 decision
    in 10^4 box samples; ``bench_x16`` records flips per band.)"""

    AUDIT_SAMPLES = 200_000

    def test_decisions_match_reference(self, flc):
        rng = np.random.default_rng(2017)
        n = self.AUDIT_SAMPLES
        cols = [
            rng.uniform(-10.0, 10.0, n),
            rng.uniform(-120.0, -80.0, n),
            rng.uniform(0.0, 1.5, n),
        ]
        approx = build_lut(flc)(cols)
        keep = (np.abs(approx - HANDOVER_THRESHOLD) <= 0.1) | (
            np.arange(n) % 16 == 0
        )
        cssp, ssn, dmb = (c[keep] for c in cols)
        system = FuzzyHandoverSystem(flc=flc, flc_backend="lut")
        out = system.decision_outputs_batch(cssp, ssn, dmb)
        ref = flc.evaluate_batch([cssp, ssn, dmb], backend="reference")
        flips = (out > system.threshold) != (ref > system.threshold)
        assert not flips.any(), f"{int(flips.sum())} decision flips"
        band = np.abs(approx[keep] - system.threshold) <= kernel_error_bound(
            flc, "lut"
        )
        assert band.any()
        assert out[band].tobytes() == ref[band].tobytes()


# ----------------------------------------------------------------------
# Hypothesis properties — the documented error bound over the whole box
# ----------------------------------------------------------------------
_PAPER = {}


def paper_flc_and_lut():
    """Lazily built (controller, lut) pair shared by the property
    tests — keeps the table compile out of collection time, so runs
    that deselect this module never pay it."""
    if not _PAPER:
        _PAPER["flc"] = build_handover_flc()
        _PAPER["lut"] = build_lut(_PAPER["flc"])
    return _PAPER["flc"], _PAPER["lut"]


def finite_floats(lo, hi):
    return st.floats(
        min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False
    )


class TestLUTErrorBoundProperty:
    @settings(max_examples=200, deadline=None)
    @given(
        cssp=finite_floats(-10.0, 10.0),
        ssn=finite_floats(-120.0, -80.0),
        dmb=finite_floats(0.0, 1.5),
    )
    def test_interpolation_error_within_documented_bound(
        self, cssp, ssn, dmb
    ):
        """|lut − reference| <= LUT_ERROR_BOUND everywhere in the
        (CSSP, SSN, DMB) input box at the default grid resolution."""
        flc, lut = paper_flc_and_lut()
        cols = [np.array([cssp]), np.array([ssn]), np.array([dmb])]
        got = float(lut(cols)[0])
        expected = float(flc._reference_batch(cols)[0])
        assert abs(got - expected) <= LUT_ERROR_BOUND

    @settings(
        max_examples=50,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        cssp=finite_floats(-40.0, 40.0),
        ssn=finite_floats(-160.0, -40.0),
        dmb=finite_floats(-1.0, 4.0),
    )
    def test_bound_extends_past_the_universe(self, cssp, ssn, dmb):
        """Clipping keeps the bound valid for saturated inputs too."""
        flc, lut = paper_flc_and_lut()
        cols = [np.array([cssp]), np.array([ssn]), np.array([dmb])]
        got = float(lut(cols)[0])
        expected = float(flc._reference_batch(cols)[0])
        assert abs(got - expected) <= LUT_ERROR_BOUND
