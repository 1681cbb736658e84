"""FuzzyController tests: scalar/batch parity, IO validation, surfaces,
explanations, and cross-defuzzifier behaviour on the paper controller."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build_handover_flc
from repro.fuzzy import FuzzyController, Rule, RuleBase, ruspini_partition


def small_controller(**kwargs) -> FuzzyController:
    a = ruspini_partition("A", [0.0, 1.0], ["LO", "HI"])
    b = ruspini_partition("B", [0.0, 1.0], ["LO", "HI"])
    out = ruspini_partition("OUT", [0.0, 0.5, 1.0], ["N", "M", "Y"])
    rules = [
        Rule({"A": "LO", "B": "LO"}, "N"),
        Rule({"A": "LO", "B": "HI"}, "M"),
        Rule({"A": "HI", "B": "LO"}, "M"),
        Rule({"A": "HI", "B": "HI"}, "Y"),
    ]
    return FuzzyController(RuleBase([a, b], out, rules), **kwargs)


class TestEvaluate:
    def test_corners(self):
        c = small_controller()
        assert c.evaluate(A=0.0, B=0.0) < 0.3
        assert c.evaluate(A=1.0, B=1.0) > 0.7
        mid = c.evaluate(A=1.0, B=0.0)
        assert 0.4 < mid < 0.6

    def test_positional_matches_keyword(self):
        c = small_controller()
        assert c.evaluate(0.3, 0.7) == pytest.approx(c.evaluate(A=0.3, B=0.7))

    def test_call_alias(self):
        c = small_controller()
        assert c(0.3, 0.7) == pytest.approx(c.evaluate(0.3, 0.7))

    def test_mixed_args_rejected(self):
        c = small_controller()
        with pytest.raises(TypeError, match="not both"):
            c.evaluate(0.3, B=0.7)

    def test_wrong_arity_rejected(self):
        c = small_controller()
        with pytest.raises(TypeError, match="expected 2"):
            c.evaluate(0.3)

    def test_missing_keyword_rejected(self):
        c = small_controller()
        with pytest.raises(ValueError, match="missing"):
            c.evaluate(A=0.3)

    def test_unknown_keyword_rejected(self):
        c = small_controller()
        with pytest.raises(ValueError, match="unknown"):
            c.evaluate(A=0.3, B=0.7, C=0.1)


class TestBatch:
    def test_batch_matches_scalar(self):
        c = small_controller()
        rng = np.random.default_rng(3)
        a = rng.uniform(0, 1, 64)
        b = rng.uniform(0, 1, 64)
        batch = c.evaluate_batch({"A": a, "B": b})
        scalars = np.array([c.evaluate(A=x, B=y) for x, y in zip(a, b)])
        np.testing.assert_allclose(batch, scalars, atol=1e-12)

    def test_positional_sequence_input(self):
        c = small_controller()
        a = np.array([0.1, 0.9])
        b = np.array([0.9, 0.1])
        np.testing.assert_allclose(
            c.evaluate_batch([a, b]), c.evaluate_batch({"A": a, "B": b})
        )

    def test_scalar_broadcast(self):
        c = small_controller()
        a = np.linspace(0, 1, 9)
        out = c.evaluate_batch({"A": a, "B": 0.5})
        assert out.shape == (9,)

    def test_length_mismatch_rejected(self):
        c = small_controller()
        with pytest.raises(ValueError, match="length"):
            c.evaluate_batch({"A": np.zeros(3), "B": np.zeros(4)})

    def test_2d_input_rejected(self):
        c = small_controller()
        with pytest.raises(ValueError, match="1-D"):
            c.evaluate_batch({"A": np.zeros((2, 2)), "B": np.zeros(4)})

    def test_paper_controller_batch_parity(self):
        flc = build_handover_flc()
        rng = np.random.default_rng(11)
        cssp = rng.uniform(-10, 10, 40)
        ssn = rng.uniform(-120, -80, 40)
        dmb = rng.uniform(0, 1.5, 40)
        batch = flc.evaluate_batch({"CSSP": cssp, "SSN": ssn, "DMB": dmb})
        scal = np.array(
            [flc.evaluate(CSSP=c, SSN=s, DMB=d)
             for c, s, d in zip(cssp, ssn, dmb)]
        )
        np.testing.assert_allclose(batch, scal, atol=1e-12)


class TestDefuzzifierVariants:
    @pytest.mark.parametrize(
        "name", ["centroid", "bisector", "mom", "som", "lom", "wavg"]
    )
    def test_all_defuzzifiers_produce_bounded_output(self, name):
        c = small_controller(defuzzifier=name)
        for a in (0.0, 0.3, 0.7, 1.0):
            v = c.evaluate(A=a, B=1.0 - a)
            assert 0.0 <= v <= 1.0

    def test_wavg_tracks_centroid_on_paper_controller(self):
        # the paper's HD terms peak inside the universe (0.2..0.8), so
        # the sampling-free weighted average stays close to the centroid
        c1 = build_handover_flc(defuzzifier="centroid")
        c2 = build_handover_flc(defuzzifier="wavg")
        for cssp, ssn, dmb in (
            (-6.0, -85.0, 0.9),
            (-1.0, -100.0, 0.4),
            (0.0, -95.0, 0.8),
            (5.0, -110.0, 0.2),
        ):
            assert c1.evaluate(CSSP=cssp, SSN=ssn, DMB=dmb) == pytest.approx(
                c2.evaluate(CSSP=cssp, SSN=ssn, DMB=dmb), abs=0.1
            )

    def test_unknown_defuzzifier_rejected(self):
        with pytest.raises(ValueError):
            small_controller(defuzzifier="nope")


class TestExplain:
    def test_structure(self):
        c = small_controller()
        ex = c.explain(A=0.25, B=0.75)
        assert set(ex.inputs) == {"A", "B"}
        assert set(ex.memberships) == {"A", "B"}
        assert set(ex.term_activation) == {"N", "M", "Y"}
        assert len(ex.firings) == 4
        assert ex.output == pytest.approx(c.evaluate(A=0.25, B=0.75))

    def test_top_rules_sorted(self):
        c = small_controller()
        ex = c.explain(A=0.9, B=0.9)
        tops = ex.top_rules(2)
        assert tops[0].activation >= tops[1].activation
        assert tops[0].rule.consequent == "Y"

    def test_describe_mentions_output(self):
        c = small_controller()
        text = c.explain(A=0.9, B=0.9).describe()
        assert "output:" in text
        assert "A=0.9" in text

    def test_missing_input_rejected(self):
        c = small_controller()
        with pytest.raises(ValueError, match="missing"):
            c.explain(A=0.5)

    def test_unknown_input_rejected(self):
        c = small_controller()
        with pytest.raises(ValueError, match="unknown input.*'C'"):
            c.explain(A=0.5, B=0.5, C=0.5)


class TestDecisionSurface:
    def test_1d_sweep(self):
        c = small_controller()
        xs = np.linspace(0, 1, 11)
        out = c.decision_surface({"A": xs}, fixed={"B": 0.5})
        assert out.shape == (11,)
        assert out[0] < out[-1]  # more A -> more output

    def test_2d_grid_shape_and_orientation(self):
        c = small_controller()
        xs = np.linspace(0, 1, 5)
        ys = np.linspace(0, 1, 7)
        out = c.decision_surface({"A": xs, "B": ys})
        assert out.shape == (5, 7)
        assert out[0, 0] < out[-1, -1]
        assert out[0, 0] == pytest.approx(c.evaluate(A=0.0, B=0.0))
        assert out[4, 6] == pytest.approx(c.evaluate(A=1.0, B=1.0))

    def test_missing_fixed_value_rejected(self):
        c = small_controller()
        with pytest.raises(ValueError, match="missing fixed"):
            c.decision_surface({"A": np.linspace(0, 1, 3)})

    def test_too_many_sweeps_rejected(self):
        c = small_controller()
        xs = np.linspace(0, 1, 3)
        with pytest.raises(ValueError):
            c.decision_surface({"A": xs, "B": xs, "C": xs})


class TestPaperControllerMonotonicity:
    """Directional sanity of the paper's full 64-rule controller."""

    @given(st.floats(-120, -80), st.floats(0.0, 1.5))
    @settings(max_examples=40, deadline=None)
    def test_output_nonincreasing_in_cssp(self, ssn, dmb):
        flc = PAPER_FLC
        outs = [
            flc.evaluate(CSSP=c, SSN=ssn, DMB=dmb)
            for c in (-10.0, -5.0, 0.0, 10.0)
        ]
        for lo, hi in zip(outs, outs[1:]):
            assert hi <= lo + 1e-9

    @given(st.floats(-10, 10), st.floats(0.0, 1.5))
    @settings(max_examples=40, deadline=None)
    def test_output_nondecreasing_in_ssn(self, cssp, dmb):
        flc = PAPER_FLC
        anchors = (-120.0, -120.0 + 40 / 3, -80.0 - 40 / 3, -80.0)
        outs = [flc.evaluate(CSSP=cssp, SSN=s, DMB=dmb) for s in anchors]
        for lo, hi in zip(outs, outs[1:]):
            assert hi >= lo - 1e-9


PAPER_FLC = build_handover_flc()
