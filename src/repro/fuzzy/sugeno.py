"""Takagi–Sugeno–Kang (TSK) controller — alternative inference engine.

The paper uses a Mamdani controller; zero-order Sugeno is the other
classic choice for embedded/real-time fuzzy control (each rule outputs a
crisp constant, the controller a firing-strength-weighted average — no
output universe sampling at all).  Provided for the X8 ablation bench:
how much of the handover behaviour is the *rule base* and how much the
inference machinery?

:func:`sugeno_from_mamdani` converts a Mamdani rule base by replacing
each consequent fuzzy set with its centroid, which preserves the rule
semantics up to defuzzification and makes the two engines directly
comparable.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..kernels import validate_backend_pin
from .compiled import (
    controller_evaluate,
    controller_evaluate_batch,
    variables_fingerprint,
)
from .inference import AndMethod
from .rules import RuleBase
from .variables import LinguisticVariable

__all__ = ["SugenoController", "sugeno_from_mamdani"]


class SugenoController:
    """Zero-order TSK controller over crisp rule consequents.

    Parameters
    ----------
    input_variables:
        The fuzzifier variables, in rule order.
    rule_antecedents:
        ``(n_rules, n_inputs)`` integer term indices (as produced by
        :meth:`RuleBase.compile_indices`).
    rule_outputs:
        ``(n_rules,)`` crisp consequent values.
    and_method:
        ``"min"`` or ``"prod"`` conjunction.
    fallback:
        Output when no rule fires at all.
    backend:
        Inference-backend pin, as on
        :class:`~repro.fuzzy.controller.FuzzyController`.
    """

    def __init__(
        self,
        input_variables: Sequence[LinguisticVariable],
        rule_antecedents: np.ndarray,
        rule_outputs: np.ndarray,
        and_method: AndMethod = "min",
        fallback: float = 0.0,
        backend: Optional[str] = None,
    ) -> None:
        self.input_variables = tuple(input_variables)
        ant = np.asarray(rule_antecedents, dtype=np.intp)
        out = np.asarray(rule_outputs, dtype=float)
        if ant.ndim != 2 or ant.shape[1] != len(self.input_variables):
            raise ValueError(
                f"rule_antecedents must be (n_rules, {len(self.input_variables)}), "
                f"got {ant.shape}"
            )
        if out.shape != (ant.shape[0],):
            raise ValueError(
                f"rule_outputs must be ({ant.shape[0]},), got {out.shape}"
            )
        for v, var in enumerate(self.input_variables):
            if ant[:, v].min() < 0 or ant[:, v].max() >= var.n_terms:
                raise ValueError(
                    f"rule antecedent term index out of range for {var.name}"
                )
        if and_method not in ("min", "prod"):
            raise ValueError(f"unknown and_method {and_method!r}")
        validate_backend_pin(backend)
        self._ant = ant
        self._out = out
        self.and_method = and_method
        self.fallback = float(fallback)
        self.backend = backend
        self._compiled: dict[str, object] = {}

    @property
    def input_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self.input_variables)

    @property
    def n_rules(self) -> int:
        return self._ant.shape[0]

    # ------------------------------------------------------------------
    def _reference_batch(self, cols: Sequence[np.ndarray]) -> np.ndarray:
        """The exact TSK weighted-average pipeline on coerced columns —
        this controller's ``reference`` inference backend."""
        n = cols[0].shape[0]
        memberships = [
            var.membership_matrix(col)
            for var, col in zip(self.input_variables, cols)
        ]
        act = memberships[0][self._ant[:, 0], :]
        if self.and_method == "min":
            for v in range(1, len(memberships)):
                act = np.minimum(act, memberships[v][self._ant[:, v], :])
        else:
            act = act.copy()
            for v in range(1, len(memberships)):
                act *= memberships[v][self._ant[:, v], :]
        total = act.sum(axis=0)
        weighted = (act * self._out[:, None]).sum(axis=0)
        out = np.full(n, self.fallback)
        nz = total > 0.0
        out[nz] = weighted[nz] / total[nz]
        return out

    def _structural_key(self) -> tuple:
        """LUT-cache fingerprint (see ``FuzzyController._structural_key``)."""
        return (
            "sugeno",
            variables_fingerprint(self.input_variables),
            self._ant.tobytes(),
            self._out.tobytes(),
            self.and_method,
            self.fallback,
        )

    # the dispatch both controller classes share
    evaluate_batch = controller_evaluate_batch
    evaluate = controller_evaluate

    def __repr__(self) -> str:
        return (
            f"SugenoController(inputs=[{', '.join(self.input_names)}], "
            f"rules={self.n_rules}, and={self.and_method!r})"
        )


def sugeno_from_mamdani(
    rule_base: RuleBase, and_method: AndMethod = "min"
) -> SugenoController:
    """Convert a Mamdani rule base to a zero-order TSK controller.

    Each rule's consequent fuzzy set is collapsed to its centroid; the
    fallback output is the output-universe midpoint (matching the
    Mamdani engines' empty-activation convention).
    """
    ant, con, _ = rule_base.compile_indices()
    centroids = np.array(
        [t.mf.centroid for t in rule_base.output_variable.terms]
    )
    lo, hi = rule_base.output_variable.universe
    return SugenoController(
        rule_base.input_variables,
        ant,
        centroids[con],
        and_method=and_method,
        fallback=0.5 * (lo + hi),
    )
