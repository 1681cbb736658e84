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

from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .compiled import (
    DEFAULT_FLC_BACKEND,
    controller_kernel,
    refuse_nan,
    resolve_flc_backend,
    validate_backend_pin,
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
        Inference-backend pin (``None`` = the
        :func:`~repro.fuzzy.compiled.resolve_flc_backend` policy), as
        on :class:`~repro.fuzzy.controller.FuzzyController`.
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
    def _coerce_batch(
        self, inputs: Union[Mapping[str, np.ndarray], Sequence[np.ndarray]]
    ) -> list[np.ndarray]:
        if isinstance(inputs, Mapping):
            missing = set(self.input_names) - set(inputs)
            if missing:
                raise ValueError(f"missing input(s): {sorted(missing)}")
            cols = [np.atleast_1d(np.asarray(inputs[n], dtype=float))
                    for n in self.input_names]
        else:
            cols = [np.atleast_1d(np.asarray(c, dtype=float)) for c in inputs]
            if len(cols) != len(self.input_names):
                raise ValueError(
                    f"expected {len(self.input_names)} inputs, got {len(cols)}"
                )
        n = max(c.shape[0] for c in cols)
        return [np.full(n, c[0]) if c.shape[0] == 1 else c for c in cols]

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

    def evaluate_batch(
        self,
        inputs: Union[Mapping[str, np.ndarray], Sequence[np.ndarray]],
        backend: Optional[str] = None,
    ) -> np.ndarray:
        """Weighted-average TSK output for a batch of crisp inputs.

        ``backend`` overrides the inference backend for this call, as
        on :meth:`FuzzyController.evaluate_batch`.
        """
        cols = self._coerce_batch(inputs)
        name = resolve_flc_backend(
            self.backend if backend is None else backend
        )
        if name == DEFAULT_FLC_BACKEND:
            return self._reference_batch(cols)
        refuse_nan(self.input_names, cols)
        return controller_kernel(self, name)(cols)

    def evaluate(
        self, *args: float, backend: Optional[str] = None, **kwargs: float
    ) -> float:
        """Scalar evaluation (positional in rule order, or by name)."""
        if args and kwargs:
            raise TypeError("pass inputs either positionally or by name")
        if kwargs:
            batch = {k: np.array([float(v)]) for k, v in kwargs.items()}
            return float(self.evaluate_batch(batch, backend=backend)[0])
        if len(args) != len(self.input_names):
            raise TypeError(
                f"expected {len(self.input_names)} inputs, got {len(args)}"
            )
        return float(
            self.evaluate_batch(
                [np.array([a]) for a in args], backend=backend
            )[0]
        )

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
