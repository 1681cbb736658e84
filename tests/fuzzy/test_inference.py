"""Mamdani inference-engine tests: hand-checked activations on a tiny
system plus operator-variant behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fuzzy import (
    Gaussian,
    LeftShoulder,
    LinguisticVariable,
    MamdaniInference,
    RightShoulder,
    Rule,
    RuleBase,
    Singleton,
    Term,
    Trapezoidal,
    Triangular,
    ruspini_partition,
)
from repro.fuzzy.defuzzify import centroid


def tiny_rule_base() -> RuleBase:
    a = ruspini_partition("A", [0.0, 1.0], ["LO", "HI"])
    b = ruspini_partition("B", [0.0, 1.0], ["LO", "HI"])
    out = ruspini_partition("OUT", [0.0, 0.5, 1.0], ["N", "M", "Y"])
    rules = [
        Rule({"A": "LO", "B": "LO"}, "N"),
        Rule({"A": "LO", "B": "HI"}, "M"),
        Rule({"A": "HI", "B": "LO"}, "M"),
        Rule({"A": "HI", "B": "HI"}, "Y"),
    ]
    return RuleBase([a, b], out, rules)


def memberships_for(rb: RuleBase, a_val: float, b_val: float):
    return [
        var.membership_matrix(np.array([v]))
        for var, v in zip(rb.input_variables, (a_val, b_val))
    ]


class TestRuleActivation:
    def test_min_conjunction_hand_computed(self):
        rb = tiny_rule_base()
        eng = MamdaniInference(rb)
        # A=0.25 -> LO 0.75 / HI 0.25; B=0.5 -> LO 0.5 / HI 0.5
        act = eng.rule_activations(memberships_for(rb, 0.25, 0.5))
        np.testing.assert_allclose(
            act[:, 0], [0.5, 0.5, 0.25, 0.25], atol=1e-12
        )

    def test_prod_conjunction_hand_computed(self):
        rb = tiny_rule_base()
        eng = MamdaniInference(rb, and_method="prod")
        act = eng.rule_activations(memberships_for(rb, 0.25, 0.5))
        np.testing.assert_allclose(
            act[:, 0], [0.375, 0.375, 0.125, 0.125], atol=1e-12
        )

    def test_prod_never_exceeds_min(self):
        rb = tiny_rule_base()
        e_min = MamdaniInference(rb, and_method="min")
        e_prod = MamdaniInference(rb, and_method="prod")
        rng = np.random.default_rng(7)
        xs = rng.uniform(0, 1, 50)
        ys = rng.uniform(0, 1, 50)
        m = [
            rb.input_variables[0].membership_matrix(xs),
            rb.input_variables[1].membership_matrix(ys),
        ]
        assert np.all(e_prod.rule_activations(m) <= e_min.rule_activations(m) + 1e-12)

    def test_rule_weights_scale_activation(self):
        a = ruspini_partition("A", [0.0, 1.0], ["LO", "HI"])
        out = ruspini_partition("OUT", [0.0, 1.0], ["N", "Y"])
        rb = RuleBase(
            [a],
            out,
            [Rule({"A": "LO"}, "N", weight=0.5), Rule({"A": "HI"}, "Y")],
        )
        eng = MamdaniInference(rb)
        act = eng.rule_activations([a.membership_matrix(np.array([0.0]))])
        assert act[0, 0] == pytest.approx(0.5)  # full LO grade x weight
        assert act[1, 0] == pytest.approx(0.0)

    def test_batch_shape(self):
        rb = tiny_rule_base()
        eng = MamdaniInference(rb)
        xs = np.linspace(0, 1, 17)
        m = [
            rb.input_variables[0].membership_matrix(xs),
            rb.input_variables[1].membership_matrix(xs),
        ]
        assert eng.rule_activations(m).shape == (4, 17)

    def test_mismatched_sample_counts_rejected(self):
        rb = tiny_rule_base()
        eng = MamdaniInference(rb)
        m = [
            rb.input_variables[0].membership_matrix(np.zeros(3)),
            rb.input_variables[1].membership_matrix(np.zeros(4)),
        ]
        with pytest.raises(ValueError, match="disagree"):
            eng.rule_activations(m)

    def test_wrong_variable_count_rejected(self):
        rb = tiny_rule_base()
        eng = MamdaniInference(rb)
        with pytest.raises(ValueError, match="expected 2"):
            eng.rule_activations(
                [rb.input_variables[0].membership_matrix(np.zeros(3))]
            )


class TestTermAggregation:
    def test_max_aggregation(self):
        rb = tiny_rule_base()
        eng = MamdaniInference(rb)
        # two rules share consequent M with activations 0.5 and 0.25
        act = eng.rule_activations(memberships_for(rb, 0.25, 0.5))
        term = eng.term_activations(act)
        assert term.shape == (3, 1)
        assert term[1, 0] == pytest.approx(0.5)  # max(0.5, 0.25)

    def test_bounded_sum_aggregation(self):
        rb = tiny_rule_base()
        eng = MamdaniInference(rb, agg_method="bsum")
        act = eng.rule_activations(memberships_for(rb, 0.25, 0.5))
        term = eng.term_activations(act)
        assert term[1, 0] == pytest.approx(0.75)  # 0.5 + 0.25

    def test_bounded_sum_clips_at_one(self):
        rb = tiny_rule_base()
        eng = MamdaniInference(rb, agg_method="bsum")
        fake = np.array([[0.9], [0.9], [0.9], [0.9]])
        term = eng.term_activations(fake)
        assert term[1, 0] == 1.0


class TestAggregateOutput:
    def test_surface_shape(self):
        rb = tiny_rule_base()
        eng = MamdaniInference(rb, resolution=51)
        res = eng.infer(memberships_for(rb, 0.25, 0.5))
        surf = eng.aggregate_output(res.term_activation)
        assert surf.shape == (1, 51)
        assert np.all(surf >= 0) and np.all(surf <= 1)

    def test_min_implication_clips(self):
        rb = tiny_rule_base()
        eng = MamdaniInference(rb, resolution=101)
        term = np.zeros((3, 1))
        term[2, 0] = 0.4  # only "Y" fires at 0.4
        surf = eng.aggregate_output(term)
        assert surf.max() == pytest.approx(0.4)

    def test_prod_implication_scales(self):
        rb = tiny_rule_base()
        eng = MamdaniInference(rb, implication="prod", resolution=101)
        term = np.zeros((3, 1))
        term[2, 0] = 0.4
        surf = eng.aggregate_output(term)
        # scaled shoulder: peak value = 0.4 * 1.0 at the saturated end
        assert surf.max() == pytest.approx(0.4)
        # scaling preserves shape: midpoint of the ramp is 0.2
        grid = eng.output_grid
        ramp_mid = np.argmin(np.abs(grid - 0.75))
        assert surf[0, ramp_mid] == pytest.approx(0.4 * 0.5, abs=0.02)

    def test_zero_activation_gives_zero_surface(self):
        rb = tiny_rule_base()
        eng = MamdaniInference(rb)
        surf = eng.aggregate_output(np.zeros((3, 2)))
        assert np.all(surf == 0.0)


class TestValidation:
    def test_bad_operator_names(self):
        rb = tiny_rule_base()
        with pytest.raises(ValueError):
            MamdaniInference(rb, and_method="avg")
        with pytest.raises(ValueError):
            MamdaniInference(rb, agg_method="sum")
        with pytest.raises(ValueError):
            MamdaniInference(rb, implication="lukasiewicz")
        with pytest.raises(ValueError):
            MamdaniInference(rb, resolution=2)

    def test_repr(self):
        rb = tiny_rule_base()
        r = repr(MamdaniInference(rb))
        assert "rules=4" in r


# ----------------------------------------------------------------------
# byte identity of the span-restricted union and the one-buffer centroid
# ----------------------------------------------------------------------
def full_grid_aggregate_output(engine, term_activation):
    """``aggregate_output`` as a full-grid union of every term — the
    implementation before term spans, kept verbatim as the byte oracle."""
    n_samples = term_activation.shape[1]
    out = np.zeros((n_samples, engine.resolution), dtype=float)
    for t in range(engine.n_output_terms):
        act = term_activation[t][:, None]  # (N, 1)
        shape = engine._term_samples[t][None, :]  # (1, P)
        if engine.implication == "min":
            clipped = np.minimum(act, shape)
        else:
            clipped = act * shape
        np.maximum(out, clipped, out=out)
    return out


def trapezoid_centroid(grid, surface):
    """``centroid`` through ``np.trapezoid`` — the implementation before
    the one scratch buffer, kept verbatim as the byte oracle."""
    area = np.trapezoid(surface, grid, axis=1)
    moment = np.trapezoid(surface * grid[None, :], grid, axis=1)
    out = np.full(surface.shape[0], 0.5 * float(grid[0] + grid[-1]))
    nz = area > 0.0
    out[nz] = moment[nz] / area[nz]
    return out


#: Activation values: exact zeros of both signs, one, subnormals, and
#: anything else in [0, 1].
ACTIVATIONS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 5e-324, 1e-310, 2.2250738585072014e-308]),
    st.floats(min_value=0.0, max_value=1.0),
)


@st.composite
def output_term(draw, lo, hi, grid):
    """One output membership function: a triangle, trapezoid, shoulder,
    Gaussian (nonzero on the whole grid) or a Singleton on or off the
    sampled grid."""
    kind = draw(st.sampled_from(
        ["tri", "trap", "left", "right", "gauss", "on_grid", "off_grid"]
    ))
    if kind == "on_grid":
        return Singleton(float(grid[draw(st.integers(0, grid.size - 1))]))
    if kind == "off_grid":
        i = draw(st.integers(0, grid.size - 2))
        return Singleton(0.5 * float(grid[i] + grid[i + 1]))
    # breakpoints on a 1/40 lattice reaching past both universe edges,
    # so some land on grid points and some between them
    span = hi - lo
    pts = sorted(draw(st.lists(
        st.integers(-8, 48), min_size=4, max_size=4, unique=True
    )))
    x = [lo + k * span / 40.0 for k in pts]
    if kind == "tri":
        return Triangular(x[0], x[1], x[2])
    if kind == "trap":
        return Trapezoidal(*x)
    if kind == "left":
        return LeftShoulder(x[0], x[1])
    if kind == "right":
        return RightShoulder(x[0], x[1])
    return Gaussian(x[1], draw(st.sampled_from([0.05, 0.3, 2.0])) * span)


class TestSpanAggregationBytes:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_full_grid_union_and_trapezoid_centroid(self, data):
        """The span-restricted union and the one-buffer centroid are
        byte-identical to the full-grid union and ``np.trapezoid``."""
        lo, hi = data.draw(st.sampled_from(
            [(0.0, 1.0), (-1.0, 1.0), (-3.0, 0.5)]
        ))
        resolution = data.draw(st.sampled_from([3, 4, 201, 1001]))
        grid = np.linspace(lo, hi, resolution)
        mfs = data.draw(st.lists(
            output_term(lo, hi, grid), min_size=1, max_size=5
        ))
        out_var = LinguisticVariable(
            "OUT", (lo, hi), [Term(f"T{i}", mf) for i, mf in enumerate(mfs)]
        )
        inp = ruspini_partition("X", [0.0, 1.0], ["LO", "HI"])
        rb = RuleBase([inp], out_var, [Rule({"X": "LO"}, "T0")])
        engine = MamdaniInference(
            rb,
            implication=data.draw(st.sampled_from(["min", "prod"])),
            resolution=resolution,
        )
        base = data.draw(st.lists(
            st.lists(ACTIVATIONS, min_size=len(mfs), max_size=len(mfs)),
            min_size=1, max_size=4,
        ))
        # repeated columns, in any order
        picks = data.draw(st.lists(
            st.integers(0, len(base) - 1), min_size=1, max_size=6
        ))
        activation = np.array([base[i] for i in picks], dtype=float).T.copy()

        surface = engine.aggregate_output(activation)
        expected = full_grid_aggregate_output(engine, activation)
        assert surface.tobytes() == expected.tobytes()
        assert (
            centroid(engine.output_grid, surface).tobytes()
            == trapezoid_centroid(engine.output_grid, expected).tobytes()
        )
