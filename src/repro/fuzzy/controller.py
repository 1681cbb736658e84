"""The fuzzy controller: fuzzifier → inference engine → defuzzifier.

:class:`FuzzyController` is the user-facing object of the generic fuzzy
substrate (paper Fig. 2).  It binds input/output
:class:`~repro.fuzzy.variables.LinguisticVariable` objects to a
:class:`~repro.fuzzy.rules.RuleBase` and exposes:

* :meth:`evaluate` — one crisp output for one set of crisp inputs;
* :meth:`evaluate_batch` — vectorised evaluation over ``(N,)`` input
  arrays, the hot path used by the simulator and the benchmarks;
* :meth:`explain` — a structured trace (grades, rule firings, output
  surface) for one sample, used by the examples and for debugging rule
  bases;
* :meth:`decision_surface` — dense grid evaluation for plotting /
  regression-testing the control surface.

Both evaluation paths are the dispatch of :mod:`repro.fuzzy.compiled`
that :class:`~repro.fuzzy.sugeno.SugenoController` shares: the
``backend`` pin (constructor argument or per-call override, under the
name policy of :mod:`repro.kernels`) selects between the exact
``reference`` grid pipeline (the default) and the precompiled
interpolation kernels (``lut``, optional ``numba``).  Compiled kernels
are built lazily on first use and cached per controller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from ..kernels import validate_backend_pin
from .compiled import (
    _BUILD_CHUNK,
    _spans,
    coerce_inputs,
    controller_evaluate,
    controller_evaluate_batch,
    variables_fingerprint,
)
from .defuzzify import get_defuzzifier, weighted_average
from .inference import AggMethod, AndMethod, ImplicationMethod, MamdaniInference
from .rules import Rule, RuleBase
from .variables import LinguisticVariable

__all__ = ["FuzzyController", "RuleFiring", "Explanation"]


@dataclass(frozen=True)
class RuleFiring:
    """One rule's contribution in an :class:`Explanation`."""

    rule: Rule
    activation: float


@dataclass(frozen=True)
class Explanation:
    """Structured trace of a single controller evaluation."""

    inputs: dict[str, float]
    memberships: dict[str, dict[str, float]]
    firings: tuple[RuleFiring, ...]
    term_activation: dict[str, float]
    output: float

    def top_rules(self, k: int = 5) -> list[RuleFiring]:
        """The ``k`` most strongly firing rules."""
        return sorted(self.firings, key=lambda f: -f.activation)[:k]

    def describe(self, max_rules: int = 5) -> str:
        """Human-readable multi-line trace."""
        lines = [
            "inputs: "
            + ", ".join(f"{k}={v:.4g}" for k, v in self.inputs.items()),
            "term activations: "
            + ", ".join(f"{k}={v:.3f}" for k, v in self.term_activation.items()),
        ]
        for f in self.top_rules(max_rules):
            if f.activation > 0:
                lines.append(f"  [{f.activation:.3f}] {f.rule.describe()}")
        lines.append(f"output: {self.output:.4f}")
        return "\n".join(lines)


class FuzzyController:
    """A complete Mamdani fuzzy controller.

    Parameters
    ----------
    rule_base:
        Bound rule base (carries the input/output variables).
    and_method, agg_method, implication:
        Inference operators; see :class:`MamdaniInference`.
    defuzzifier:
        ``"centroid"`` (default), ``"bisector"``, ``"mom"``, ``"som"``,
        ``"lom"`` — area-based on a sampled output universe — or
        ``"wavg"`` for the sampling-free weighted average of term
        centroids.
    resolution:
        Output-universe sample count for the area-based defuzzifiers.
    backend:
        Inference-backend pin for this controller (``None`` = the name
        policy of :mod:`repro.kernels`).  A name unknown on the
        executing host fails at first evaluation.
    """

    def __init__(
        self,
        rule_base: RuleBase,
        and_method: AndMethod = "min",
        agg_method: AggMethod = "max",
        implication: ImplicationMethod = "min",
        defuzzifier: str = "centroid",
        resolution: int = 201,
        backend: Optional[str] = None,
    ) -> None:
        validate_backend_pin(backend)
        self.backend = backend
        self._compiled: dict[str, object] = {}
        self.rule_base = rule_base
        self.engine = MamdaniInference(
            rule_base,
            and_method=and_method,
            agg_method=agg_method,
            implication=implication,
            resolution=resolution,
        )
        self.defuzzifier_name = defuzzifier
        if defuzzifier == "wavg":
            self._area_defuzz = None
        else:
            self._area_defuzz = get_defuzzifier(defuzzifier)
        out = rule_base.output_variable
        self._term_centroids = np.array([t.mf.centroid for t in out.terms])
        self._output_fallback = 0.5 * (out.universe[0] + out.universe[1])

    # ------------------------------------------------------------------
    @property
    def input_variables(self) -> tuple[LinguisticVariable, ...]:
        return self.rule_base.input_variables

    @property
    def output_variable(self) -> LinguisticVariable:
        return self.rule_base.output_variable

    @property
    def input_names(self) -> tuple[str, ...]:
        return self.rule_base.variable_names

    # ------------------------------------------------------------------
    def _reference_batch(self, cols: Sequence[np.ndarray]) -> np.ndarray:
        """The exact grid Mamdani pipeline on coerced input columns —
        the ``reference`` backend of :mod:`repro.fuzzy.compiled` and the
        conformance oracle every compiled kernel is pinned against.

        Runs in balanced spans of at most ``_BUILD_CHUNK`` samples, so
        its ``(samples, grid)`` surfaces stay about 1.6 MiB each for any
        batch; a sample's output depends on its own activations alone,
        and no span holds a lone sample, so the bytes are those of one
        call over the whole batch.
        """
        n = cols[0].shape[0]
        out = np.empty(n)
        for lo, hi in _spans(n, _BUILD_CHUNK):
            out[lo:hi] = self._defuzzify_batch(
                self._term_activation_batch([c[lo:hi] for c in cols])
            )
        return out

    def _term_activation_batch(self, cols: Sequence[np.ndarray]) -> np.ndarray:
        """``(n_output_terms, N)`` output-term activations of coerced
        input columns: fuzzification plus rule inference."""
        memberships = [
            var.membership_matrix(col)
            for var, col in zip(self.input_variables, cols)
        ]
        return self.engine.infer(memberships).term_activation

    def _defuzzify_batch(self, term_activation: np.ndarray) -> np.ndarray:
        """Crisp outputs of ``(n_output_terms, N)`` term activations.

        A sample's output depends on its activation column alone, which
        is what lets :func:`~repro.fuzzy.compiled.build_lut` defuzzify
        each distinct column once.
        """
        if self._area_defuzz is None:
            return weighted_average(
                self._term_centroids, term_activation, self._output_fallback
            )
        surface = self.engine.aggregate_output(term_activation)
        return self._area_defuzz(self.engine.output_grid, surface)

    def _structural_key(self) -> tuple:
        """Hashable fingerprint of everything that shapes the decision
        surface — the process-wide LUT cache key, so structurally equal
        controllers (every shard of a fleet) share one compiled table."""
        rb = self.rule_base
        ant, con, w = rb.compile_indices()
        return (
            "mamdani",
            variables_fingerprint((*rb.input_variables, rb.output_variable)),
            ant.tobytes(),
            con.tobytes(),
            w.tobytes(),
            self.engine.and_method,
            self.engine.agg_method,
            self.engine.implication,
            self.engine.resolution,
            self.defuzzifier_name,
        )

    # the dispatch both controller classes share, bound in this class's
    # own namespace, where perfbench's tracer wraps evaluate_batch
    evaluate_batch = controller_evaluate_batch
    evaluate = controller_evaluate
    __call__ = evaluate

    # ------------------------------------------------------------------
    def explain(self, **inputs: float) -> Explanation:
        """Full trace of a single evaluation (for humans)."""
        cols = coerce_inputs(
            self.input_names, {n: float(v) for n, v in inputs.items()}
        )
        memberships = [
            var.membership_matrix(col)
            for var, col in zip(self.input_variables, cols)
        ]
        result = self.engine.infer(memberships)
        crisp = float(self._defuzzify_batch(result.term_activation)[0])
        firings = tuple(
            RuleFiring(rule, float(result.rule_activation[i, 0]))
            for i, rule in enumerate(self.rule_base.rules)
        )
        grades = {
            var.name: {
                t.name: float(m[j, 0]) for j, t in enumerate(var.terms)
            }
            for var, m in zip(self.input_variables, memberships)
        }
        term_act = {
            t.name: float(result.term_activation[j, 0])
            for j, t in enumerate(self.output_variable.terms)
        }
        return Explanation(
            inputs={n: float(inputs[n]) for n in self.input_names},
            memberships=grades,
            firings=firings,
            term_activation=term_act,
            output=crisp,
        )

    # ------------------------------------------------------------------
    def decision_surface(
        self,
        sweep: Mapping[str, np.ndarray],
        fixed: Mapping[str, float] | None = None,
        backend: Optional[str] = None,
    ) -> np.ndarray:
        """Evaluate the controller on a dense grid.

        Parameters
        ----------
        sweep:
            Mapping of one to three variable names to 1-D sample arrays.
        fixed:
            Crisp values for the remaining variables.
        backend:
            Inference-backend override, as in :meth:`evaluate_batch`.

        Returns
        -------
        1-D array (one sweep variable) or an N-D array with one axis
        per sweep variable in mapping order (the first varies along
        rows).
        """
        fixed = dict(fixed or {})
        sweep_names = list(sweep)
        if not (1 <= len(sweep_names) <= len(self.input_names)):
            raise ValueError(
                "decision_surface sweeps between one and "
                f"{len(self.input_names)} variables"
            )
        needed = set(self.input_names) - set(sweep_names) - set(fixed)
        if needed:
            raise ValueError(f"missing fixed value(s) for: {sorted(needed)}")
        axes = [np.asarray(sweep[n], dtype=float) for n in sweep_names]
        if len(axes) == 1:
            batch = {sweep_names[0]: axes[0]}
            size = axes[0].shape[0]
        else:
            mesh = np.meshgrid(*axes, indexing="ij")
            batch = {n: m.ravel() for n, m in zip(sweep_names, mesh)}
            size = mesh[0].size
        for k, v in fixed.items():
            batch[k] = np.full(size, v)
        out = self.evaluate_batch(batch, backend=backend)
        if len(axes) == 1:
            return out
        return out.reshape(tuple(a.shape[0] for a in axes))

    def __repr__(self) -> str:
        return (
            f"FuzzyController(inputs=[{', '.join(self.input_names)}], "
            f"output={self.output_variable.name!r}, "
            f"rules={len(self.rule_base)}, "
            f"defuzzifier={self.defuzzifier_name!r})"
        )
