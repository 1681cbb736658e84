"""Sugeno/TSK controller tests."""

import numpy as np
import pytest

from repro.core import build_handover_flc, build_handover_rule_base
from repro.fuzzy import (
    Rule,
    RuleBase,
    SugenoController,
    ruspini_partition,
    sugeno_from_mamdani,
)


def tiny_sugeno(and_method="min") -> SugenoController:
    a = ruspini_partition("A", [0.0, 1.0], ["LO", "HI"])
    b = ruspini_partition("B", [0.0, 1.0], ["LO", "HI"])
    # consequents: LO,LO->0.0; LO,HI->0.5; HI,LO->0.5; HI,HI->1.0
    ant = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
    out = np.array([0.0, 0.5, 0.5, 1.0])
    return SugenoController([a, b], ant, out, and_method=and_method,
                            fallback=0.5)


class TestEvaluate:
    def test_corners(self):
        c = tiny_sugeno()
        assert c.evaluate(A=0.0, B=0.0) == pytest.approx(0.0)
        assert c.evaluate(A=1.0, B=1.0) == pytest.approx(1.0)
        assert c.evaluate(A=1.0, B=0.0) == pytest.approx(0.5)

    def test_interpolation_midpoint(self):
        c = tiny_sugeno()
        assert c.evaluate(A=0.5, B=0.5) == pytest.approx(0.5)

    def test_hand_computed_weighted_average(self):
        c = tiny_sugeno()
        # A=0.25: LO .75/HI .25; B=0: LO 1/HI 0
        # min activations: [.75, 0, .25, 0] -> (0*.75 + .5*.25)/1.0
        assert c.evaluate(A=0.25, B=0.0) == pytest.approx(0.125 / 1.0)

    def test_prod_conjunction(self):
        c = tiny_sugeno(and_method="prod")
        # A=0.5,B=0.5: all activations 0.25 -> mean of outputs = 0.5
        assert c.evaluate(A=0.5, B=0.5) == pytest.approx(0.5)

    def test_positional_matches_keyword(self):
        c = tiny_sugeno()
        assert c.evaluate(0.3, 0.7) == pytest.approx(c.evaluate(A=0.3, B=0.7))

    def test_batch_matches_scalar(self):
        c = tiny_sugeno()
        rng = np.random.default_rng(1)
        a = rng.uniform(0, 1, 50)
        b = rng.uniform(0, 1, 50)
        batch = c.evaluate_batch({"A": a, "B": b})
        scal = np.array([c.evaluate(A=x, B=y) for x, y in zip(a, b)])
        np.testing.assert_allclose(batch, scal, atol=1e-12)

    def test_broadcasting(self):
        c = tiny_sugeno()
        out = c.evaluate_batch({"A": np.linspace(0, 1, 7), "B": np.array([0.5])})
        assert out.shape == (7,)

    def test_fallback_when_nothing_fires(self):
        a = ruspini_partition("A", [0.0, 1.0], ["LO", "HI"])
        # single rule on LO only; at A=1 the LO grade is 0
        c = SugenoController([a], np.array([[0]]), np.array([0.2]),
                             fallback=0.77)
        assert c.evaluate(A=1.0) == pytest.approx(0.77)

    def test_validation(self):
        a = ruspini_partition("A", [0.0, 1.0], ["LO", "HI"])
        with pytest.raises(ValueError, match="rule_antecedents"):
            SugenoController([a], np.zeros((2, 3), dtype=int), np.zeros(2))
        with pytest.raises(ValueError, match="rule_outputs"):
            SugenoController([a], np.zeros((2, 1), dtype=int), np.zeros(3))
        with pytest.raises(ValueError, match="out of range"):
            SugenoController([a], np.array([[5]]), np.zeros(1))
        with pytest.raises(ValueError, match="and_method"):
            SugenoController([a], np.array([[0]]), np.zeros(1),
                             and_method="avg")

    def test_arg_errors(self):
        c = tiny_sugeno()
        with pytest.raises(TypeError):
            c.evaluate(0.1, B=0.2)
        with pytest.raises(TypeError):
            c.evaluate(0.1)
        with pytest.raises(ValueError, match="missing"):
            c.evaluate_batch({"A": np.zeros(3)})


class TestFromMamdani:
    def test_paper_rule_base_converts(self):
        tsk = sugeno_from_mamdani(build_handover_rule_base())
        assert tsk.n_rules == 64
        assert tsk.input_names == ("CSSP", "SSN", "DMB")

    def test_tracks_mamdani_surface(self):
        tsk = sugeno_from_mamdani(build_handover_rule_base())
        mam = build_handover_flc()
        rng = np.random.default_rng(5)
        grid = {
            "CSSP": rng.uniform(-10, 10, 300),
            "SSN": rng.uniform(-120, -80, 300),
            "DMB": rng.uniform(0, 1.5, 300),
        }
        drift = np.abs(tsk.evaluate_batch(grid) - mam.evaluate_batch(grid))
        assert drift.mean() < 0.05
        assert drift.max() < 0.15

    def test_preserves_monotone_extremes(self):
        tsk = sugeno_from_mamdani(build_handover_rule_base())
        assert tsk.evaluate(CSSP=-10.0, SSN=-80.0, DMB=1.5) > 0.8
        assert tsk.evaluate(CSSP=10.0, SSN=-120.0, DMB=0.0) < 0.2

    def test_fallback_is_universe_midpoint(self):
        tsk = sugeno_from_mamdani(build_handover_rule_base())
        assert tsk.fallback == pytest.approx(0.5)

    def test_small_rule_base_round_trip(self):
        a = ruspini_partition("A", [0.0, 1.0], ["LO", "HI"])
        out = ruspini_partition("OUT", [0.0, 1.0], ["N", "Y"])
        rb = RuleBase(
            [a], out, [Rule({"A": "LO"}, "N"), Rule({"A": "HI"}, "Y")]
        )
        tsk = sugeno_from_mamdani(rb)
        # consequent constants are the term centroids
        assert tsk.evaluate(A=0.0) == pytest.approx(out["N"].mf.centroid)
        assert tsk.evaluate(A=1.0) == pytest.approx(out["Y"].mf.centroid)


#: the paper controller, Mamdani and converted to TSK
CONTROLLERS = {
    "mamdani": build_handover_flc,
    "sugeno": lambda: sugeno_from_mamdani(build_handover_flc().rule_base),
}

#: inputs every controller refuses, with the input its error names
BAD_INPUTS = {
    "unknown input": (
        {"CSSP": -5.0, "SSN": -100.0, "DMB": 0.5, "XYZ": 1.0}, "XYZ"
    ),
    "2-D input": (
        {"CSSP": np.full(4, -5.0), "SSN": np.full(4, -100.0),
         "DMB": np.full((1, 4), 0.5)},
        "DMB",
    ),
    "length mismatch": (
        {"CSSP": np.zeros(5), "SSN": np.full(5, -100.0),
         "DMB": np.full(3, 0.5)},
        "DMB",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
@pytest.mark.parametrize("kind", sorted(CONTROLLERS))
def test_both_controllers_refuse_bad_inputs_by_name(kind, case):
    """Both controller classes coerce inputs through one function, so a
    malformed batch raises the same ``ValueError`` naming the input."""
    inputs, name = BAD_INPUTS[case]
    with pytest.raises(ValueError, match=name):
        CONTROLLERS[kind]().evaluate_batch(inputs)
