#!/usr/bin/env python3
"""Extending the library: build a custom fuzzy handover controller.

The paper's controller is just one configuration of the generic
:mod:`repro.fuzzy` engine.  This example builds a *two-input* controller
(neighbour strength + distance only — no signal-change input), plugs it
into the same POTLC/PRTLC pipeline, and compares it with the paper's
three-input design on the frozen scenarios.  The point: CSSP is what
lets the paper's controller tell "transient fade at the boundary"
(ping-pong risk) apart from "sustained decay" (genuine departure).

Run:  python examples/custom_controller.py
"""

from repro.core import FuzzyHandoverSystem, build_dmb_variable, build_hd_variable, build_ssn_variable
from repro.experiments import SCENARIO_CROSSING, SCENARIO_PINGPONG
from repro.fuzzy import FuzzyController, Rule, RuleBase
from repro.sim import SimulationParameters, run_trace


def build_two_input_flc() -> FuzzyController:
    """A naive controller: hand over on (strong neighbour AND far out).

    Re-uses the paper's SSN/DMB/HD variables; the rule base maps the
    4x4 input grid to the output terms by simple intensity addition.
    """
    ssn = build_ssn_variable()
    dmb = build_dmb_variable()
    hd = build_hd_variable()
    intensity = {"WK": 0, "NSW": 1, "NO": 2, "ST": 3,
                 "NR": 0, "NSN": 1, "NSF": 2, "FA": 3}
    out_terms = ("VL", "LO", "LH", "HG")
    rules = []
    for s in ssn.term_names:
        for d in dmb.term_names:
            score = intensity[s] + intensity[d]          # 0..6
            consequent = out_terms[min(3, score // 2)]
            rules.append(Rule({"SSN": s, "DMB": d}, consequent))
    return FuzzyController(RuleBase([ssn, dmb], hd, rules))


def main() -> None:
    params = SimulationParameters()

    class TwoInputAdapter(FuzzyHandoverSystem):
        """Adapter: feed the two-input FLC from the same observations
        (CSSP computed but ignored by the controller)."""

        def __init__(self, **kwargs):
            super().__init__(flc=_Shim(build_two_input_flc()), **kwargs)

    class _Shim:
        """Present the 2-input controller under the pipeline's one
        controller call, ``evaluate_batch(inputs, backend=None)``."""

        def __init__(self, inner):
            self.inner = inner

        def evaluate_batch(self, inputs, backend=None):
            return self.inner.evaluate_batch(
                {"SSN": inputs["SSN"], "DMB": inputs["DMB"]}, backend=backend
            )

    print(f"{'scenario':<16} {'controller':<12} {'handovers':>9} "
          f"{'ping-pongs':>10}  serving sequence")
    for scenario in (SCENARIO_PINGPONG, SCENARIO_CROSSING):
        trace = scenario.generate(params)
        for label, system in (
            ("paper-3in", FuzzyHandoverSystem(cell_radius_km=1.0)),
            ("naive-2in", TwoInputAdapter(cell_radius_km=1.0)),
        ):
            result, metrics = run_trace(params, system, trace)
            print(f"{scenario.name:<16} {label:<12} "
                  f"{metrics.n_handovers:>9} {metrics.n_ping_pongs:>10}  "
                  f"{result.serving_sequence()}")
    print(
        "\nReading: without the CSSP input the controller cannot see that "
        "the serving signal recovered after the boundary graze, so it is "
        "at the mercy of the PRTLC alone — the paper's third input is "
        "what makes the decision robust."
    )


if __name__ == "__main__":
    main()
