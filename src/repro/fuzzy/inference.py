"""Mamdani inference engine.

Given fuzzified inputs and a compiled rule base, the engine computes

1. **rule activations** — the firing strength of every rule (conjunction
   of antecedent grades via ``min`` or ``prod``, scaled by rule weight);
2. **output-term activations** — per output term, the aggregate of the
   activations of all rules concluding in that term (``max`` or bounded
   sum);
3. optionally an **aggregated output membership** sampled on the output
   universe (clip/``min`` implication + ``max`` aggregation), which is
   what area-based defuzzifiers (centroid, bisector, xOM) consume.

The batch path is fully vectorised: for ``N`` samples, ``R`` rules,
``V`` input variables, ``T`` output terms and ``P`` universe sample
points it runs in a handful of NumPy kernels — activation is a fancy-
indexed ``(V, R, N)`` gather reduced over ``V``; aggregation loops only
over the (small, fixed) ``T``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .rules import RuleBase

__all__ = ["MamdaniInference", "InferenceResult"]

AndMethod = Literal["min", "prod"]
AggMethod = Literal["max", "bsum"]
ImplicationMethod = Literal["min", "prod"]


@dataclass(frozen=True)
class InferenceResult:
    """Outcome of one batch inference pass.

    Attributes
    ----------
    rule_activation:
        ``(n_rules, n_samples)`` firing strengths.
    term_activation:
        ``(n_terms, n_samples)`` aggregated activation per output term.
    """

    rule_activation: np.ndarray
    term_activation: np.ndarray


class MamdaniInference:
    """Compiled Mamdani inference over a :class:`~repro.fuzzy.rules.RuleBase`.

    Parameters
    ----------
    rule_base:
        The bound rule base.
    and_method:
        T-norm for the rule conjunction: ``"min"`` (paper default) or
        ``"prod"`` (used by the X4 ablation).
    agg_method:
        S-norm aggregating rules that share a consequent: ``"max"``
        (paper default) or ``"bsum"`` (bounded sum).
    implication:
        How a rule's activation shapes its consequent set on the sampled
        universe: ``"min"`` (clipping, paper default) or ``"prod"``
        (scaling).
    resolution:
        Number of sample points of the output universe used for
        area-based defuzzification.
    """

    def __init__(
        self,
        rule_base: RuleBase,
        and_method: AndMethod = "min",
        agg_method: AggMethod = "max",
        implication: ImplicationMethod = "min",
        resolution: int = 201,
    ) -> None:
        if and_method not in ("min", "prod"):
            raise ValueError(f"unknown and_method {and_method!r}")
        if agg_method not in ("max", "bsum"):
            raise ValueError(f"unknown agg_method {agg_method!r}")
        if implication not in ("min", "prod"):
            raise ValueError(f"unknown implication {implication!r}")
        if resolution < 3:
            raise ValueError(f"resolution must be >= 3, got {resolution}")
        self.rule_base = rule_base
        self.and_method = and_method
        self.agg_method = agg_method
        self.implication = implication
        self.resolution = int(resolution)

        ant, con, w = rule_base.compile_indices()
        self._ant = ant  # (R, V) term index per rule per variable
        self._con = con  # (R,) output term index per rule
        self._weights = w  # (R,)
        self.n_rules = ant.shape[0]
        self.n_inputs = ant.shape[1]
        self.n_output_terms = rule_base.output_variable.n_terms

        # Pre-sample every output-term membership on the shared grid.
        out_var = rule_base.output_variable
        self.output_grid = out_var.sample(self.resolution)  # (P,)
        self._term_samples = out_var.membership_matrix(self.output_grid)  # (T, P)
        # [lo, hi) span of each term's nonzero grid columns, the only
        # columns aggregate_output visits (empty for a Singleton that
        # falls between grid points) — except the last term's, which is
        # the whole grid (see aggregate_output)
        self._term_spans: list[tuple[int, int]] = []
        for row in self._term_samples:
            nz = np.flatnonzero(row)
            self._term_spans.append(
                (int(nz[0]), int(nz[-1]) + 1) if nz.size else (0, 0)
            )
        self._term_spans[-1] = (0, self.resolution)

        # Rules grouped by consequent term (term -> rule index array),
        # used by the term-activation reduction.
        self._rules_of_term: list[np.ndarray] = [
            np.nonzero(con == t)[0] for t in range(self.n_output_terms)
        ]

    # ------------------------------------------------------------------
    def rule_activations(self, memberships: Sequence[np.ndarray]) -> np.ndarray:
        """Firing strength of every rule for a batch of samples.

        Parameters
        ----------
        memberships:
            One ``(n_terms_v, n_samples)`` matrix per input variable, in
            rule-base variable order (the output of
            :meth:`LinguisticVariable.membership_matrix`).

        Returns
        -------
        ``(n_rules, n_samples)`` float array.
        """
        if len(memberships) != self.n_inputs:
            raise ValueError(
                f"expected {self.n_inputs} membership matrices, "
                f"got {len(memberships)}"
            )
        n_samples = memberships[0].shape[1]
        for v, m in enumerate(memberships):
            if m.shape[1] != n_samples:
                raise ValueError(
                    "membership matrices disagree on sample count: "
                    f"{m.shape[1]} vs {n_samples} (variable {v})"
                )
        # Gather the grade of the rule's chosen term for every variable:
        # picked[v] has shape (R, N).
        act = memberships[0][self._ant[:, 0], :]
        if self.and_method == "min":
            for v in range(1, self.n_inputs):
                act = np.minimum(act, memberships[v][self._ant[:, v], :])
        else:  # prod
            act = act.copy()
            for v in range(1, self.n_inputs):
                act *= memberships[v][self._ant[:, v], :]
        if not np.all(self._weights == 1.0):
            act = act * self._weights[:, None]
        elif self.and_method == "min":
            act = act.copy()  # decouple from the gathered view
        return act

    def term_activations(self, rule_activation: np.ndarray) -> np.ndarray:
        """Aggregate rule activations into per-output-term activations.

        Returns ``(n_output_terms, n_samples)``.
        """
        n_samples = rule_activation.shape[1]
        out = np.zeros((self.n_output_terms, n_samples), dtype=float)
        for t, idx in enumerate(self._rules_of_term):
            if idx.size == 0:
                continue
            block = rule_activation[idx, :]
            if self.agg_method == "max":
                out[t] = block.max(axis=0)
            else:  # bounded sum
                out[t] = np.minimum(block.sum(axis=0), 1.0)
        return out

    def infer(self, memberships: Sequence[np.ndarray]) -> InferenceResult:
        """Run activation + aggregation for a batch."""
        ra = self.rule_activations(memberships)
        ta = self.term_activations(ra)
        return InferenceResult(rule_activation=ra, term_activation=ta)

    def aggregate_output(self, term_activation: np.ndarray) -> np.ndarray:
        """Aggregated output membership on the sampled universe.

        Parameters
        ----------
        term_activation:
            ``(n_terms, n_samples)``, expected finite (the engine's
            activations lie in ``[0, 1]``).

        Returns
        -------
        ``(n_samples, resolution)`` membership surface; row ``i`` is the
        clipped/scaled union of consequent sets for sample ``i``.

        Notes
        -----
        Each term is clipped and max-ed in only over its span of nonzero
        grid columns.  Outside it the full-grid union would take
        ``max(out, min(a, 0))`` (or ``max(out, a * 0)``), which leaves
        ``out``'s value unchanged for any finite ``a``.  The last term
        still runs over the whole grid: ``np.maximum`` returns its second
        operand when both are zeros, so the last term's clipped zero
        (``+0.0`` or ``-0.0``) is the byte every column that no term
        lifts above zero ends with.
        """
        n_samples = term_activation.shape[1]
        out = np.zeros((n_samples, self.resolution), dtype=float)
        for t, (lo, hi) in enumerate(self._term_spans):
            if lo == hi:
                continue
            act = term_activation[t][:, None]  # (N, 1)
            shape = self._term_samples[t][None, lo:hi]  # (1, span)
            if self.implication == "min":
                clipped = np.minimum(act, shape)
            else:
                clipped = act * shape
            seg = out[:, lo:hi]
            np.maximum(seg, clipped, out=seg)
        return out

    def __repr__(self) -> str:
        return (
            f"MamdaniInference(rules={self.n_rules}, and={self.and_method!r}, "
            f"agg={self.agg_method!r}, implication={self.implication!r}, "
            f"resolution={self.resolution})"
        )
