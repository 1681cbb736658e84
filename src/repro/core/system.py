"""The complete fuzzy handover system (paper Fig. 4, Sec. 4).

The decision pipeline around the FLC:

1. **POTLC** (post test-loop controller): after the MS reports its
   measurements, check the serving signal.  "If the signal strength is
   still good enough the handover is not carried out" — no FLC
   evaluation at all above the gate threshold.
2. **FLC**: from CSSP, SSN and DMB decide whether a handover is
   *warranted* (defuzzified output > 0.7).
3. **PRTLC** (pre test-loop controller): "another check of the signal
   strength … the present signal strength is compared with the previous
   signal strength.  When the present signal strength is lower than the
   strength of the previous signal, the handover procedure is carried
   out" — i.e. the handover only executes if the serving signal is
   still falling, which suppresses handovers triggered by a transient
   fade that already recovered.

:class:`FuzzyHandoverSystem` is stateful across an MS's measurement
epochs (it remembers the previous serving power for CSSP/PRTLC); call
:meth:`reset` between traces.  It implements the generic
:class:`HandoverPolicy` protocol shared with the baselines so the
simulator can drive either interchangeably.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Protocol, runtime_checkable

import numpy as np

from ..fuzzy.compiled import kernel_error_bound, resolve_flc_backend
from ..fuzzy.controller import FuzzyController
from ..kernels import validate_backend_pin
from .flc import HANDOVER_THRESHOLD, build_handover_flc
from .inputs import HandoverInputs, inputs_from_observation

__all__ = [
    "Observation",
    "Decision",
    "HandoverPolicy",
    "FuzzyHandoverSystem",
    "Stage",
]

Cell = tuple[int, int]


class Stage:
    """Pipeline stage labels recorded on every decision (diagnostics)."""

    POTLC_PASS = "potlc-pass"        # serving signal good enough; FLC skipped
    FLC_REJECT = "flc-reject"        # FLC output below the threshold
    PRTLC_REJECT = "prtlc-reject"    # signal recovered; handover cancelled
    HANDOVER = "handover"            # handover executed
    NO_NEIGHBOR = "no-neighbor"      # nothing to hand over to
    WARMUP = "warmup"                # first epoch; no CSSP history yet


@dataclass(frozen=True)
class Observation:
    """One measurement epoch as seen by a handover policy.

    Powers are *unpenalised* dBW measurements; policies that model the
    speed degradation (the fuzzy system does, per the paper) apply it
    themselves.
    """

    position_km: np.ndarray
    serving_cell: Cell
    serving_power_dbw: float
    neighbor_cells: tuple[Cell, ...]
    neighbor_powers_dbw: np.ndarray
    distance_to_serving_km: float
    speed_kmh: float = 0.0
    step_index: int = 0

    def __post_init__(self) -> None:
        pos = np.asarray(self.position_km, dtype=float)
        if pos.shape != (2,):
            raise ValueError(f"position_km must have shape (2,), got {pos.shape}")
        object.__setattr__(self, "position_km", pos)
        powers = np.asarray(self.neighbor_powers_dbw, dtype=float)
        if powers.ndim != 1 or powers.shape[0] != len(self.neighbor_cells):
            raise ValueError(
                f"{len(self.neighbor_cells)} neighbour cells but "
                f"powers shape {powers.shape}"
            )
        object.__setattr__(self, "neighbor_powers_dbw", powers)
        if not math.isfinite(self.serving_power_dbw):
            raise ValueError("serving_power_dbw must be finite")
        if self.distance_to_serving_km < 0:
            raise ValueError("distance_to_serving_km must be >= 0")
        if self.speed_kmh < 0:
            raise ValueError("speed_kmh must be >= 0")

    def best_neighbor(self) -> tuple[Cell, float]:
        """Strongest neighbour cell and its power."""
        if len(self.neighbor_cells) == 0:
            raise ValueError("observation has no neighbours")
        k = int(np.argmax(self.neighbor_powers_dbw))
        return self.neighbor_cells[k], float(self.neighbor_powers_dbw[k])


@dataclass(frozen=True)
class Decision:
    """Outcome of one policy evaluation."""

    handover: bool
    target: Optional[Cell] = None
    output: Optional[float] = None
    stage: str = ""
    inputs: Optional[HandoverInputs] = None

    def __post_init__(self) -> None:
        if self.handover and self.target is None:
            raise ValueError("a handover decision must name a target cell")


@runtime_checkable
class HandoverPolicy(Protocol):
    """Common interface of the fuzzy system and the baselines."""

    def reset(self) -> None:
        """Clear per-trace state before a new run."""
        ...

    def decide(self, obs: Observation) -> Decision:
        """Evaluate one measurement epoch."""
        ...


class FuzzyHandoverSystem:
    """POTLC → FLC → PRTLC pipeline around the paper's controller.

    Parameters
    ----------
    flc:
        The fuzzy controller; defaults to the paper configuration
        (:func:`~repro.core.flc.build_handover_flc`).  Any object with
        ``evaluate_batch(inputs, backend=None)``, ``inputs`` mapping
        ``CSSP``/``SSN``/``DMB`` to ``(N,)`` arrays, else a ``TypeError``.
    threshold:
        FLC output above which a handover is warranted (paper: 0.7).
    potlc_gate_dbw:
        Serving power above which the POTLC skips the FLC entirely
        ("signal still good enough").  Default −85 dBW sits just above
        the SSN "Strong" anchor: while the serving signal is in the
        Strong band there is nothing to decide.
    prtlc_enabled:
        If False the PRTLC check is skipped (X-series ablation: how many
        extra handovers does the second look suppress?).
    cell_radius_km:
        Normalisation radius for DMB.
    cssp_lag:
        Number of measurement epochs over which CSSP is differenced
        (default 1: present vs. previous sample, the paper's wording).
        Larger lags emulate a longer measurement-reporting interval —
        the paper's printed CSSP values (−1…−8 dB) correspond to ~one
        0.6 km walk leg — and make the controller more eager; the
        lag ablation bench quantifies the trade-off.  Early epochs
        (history shorter than the lag) difference against the oldest
        sample available on the current serving cell.
    flc_backend:
        FLC inference-backend pin for every controller evaluation this
        pipeline makes (``None`` = the controller's pin, then the name
        policy of :mod:`repro.kernels`).  Approximate backends
        (``lut``/``numba``) never change a *decision*: outputs within
        the backend's documented error bound of ``threshold`` are
        re-evaluated through the reference kernel (see
        :meth:`decision_outputs_batch`).
    """

    def __init__(
        self,
        flc: Optional[FuzzyController] = None,
        threshold: float = HANDOVER_THRESHOLD,
        potlc_gate_dbw: float = -85.0,
        prtlc_enabled: bool = True,
        cell_radius_km: float = 1.0,
        cssp_lag: int = 1,
        flc_backend: Optional[str] = None,
    ) -> None:
        if not (0.0 < threshold < 1.0):
            raise ValueError(f"threshold must be in (0, 1), got {threshold}")
        if not math.isfinite(potlc_gate_dbw):
            raise ValueError("potlc_gate_dbw must be finite")
        if cell_radius_km <= 0:
            raise ValueError(
                f"cell_radius_km must be positive, got {cell_radius_km}"
            )
        if cssp_lag < 1:
            raise ValueError(f"cssp_lag must be >= 1, got {cssp_lag}")
        validate_backend_pin(flc_backend, field="flc_backend")
        self.flc = flc if flc is not None else build_handover_flc()
        if not callable(getattr(self.flc, "evaluate_batch", None)):
            raise TypeError(
                "flc must have evaluate_batch(inputs, backend=None), got "
                f"{type(self.flc).__name__}"
            )
        self.flc_backend = flc_backend
        self.threshold = float(threshold)
        self.potlc_gate_dbw = float(potlc_gate_dbw)
        self.prtlc_enabled = bool(prtlc_enabled)
        self.cell_radius_km = float(cell_radius_km)
        self.cssp_lag = int(cssp_lag)
        # serving-power history since camping on the current cell,
        # newest last; bounded to cssp_lag samples
        self._history: list[float] = []
        self._serving_cell: Optional[Cell] = None

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget measurement history (call between traces)."""
        self._history = []
        self._serving_cell = None

    def _remember(self, obs: Observation) -> None:
        if self._serving_cell != obs.serving_cell:
            self._history = []
            self._serving_cell = obs.serving_cell
        self._history.append(obs.serving_power_dbw)
        # keep exactly `cssp_lag` past samples: the oldest entry is then
        # the serving power from `cssp_lag` epochs before the current one
        if len(self._history) > self.cssp_lag:
            del self._history[0]

    # ------------------------------------------------------------------
    def decide(self, obs: Observation) -> Decision:
        """Run the full POTLC → FLC → PRTLC pipeline for one epoch."""
        # The CSSP history only makes sense while camped on the same BS;
        # after a handover (or at trace start) the first epoch is warm-up.
        if self._serving_cell != obs.serving_cell or not self._history:
            self._remember(obs)
            return Decision(handover=False, stage=Stage.WARMUP)

        if len(obs.neighbor_cells) == 0:
            self._remember(obs)
            return Decision(handover=False, stage=Stage.NO_NEIGHBOR)

        # --- POTLC -----------------------------------------------------
        if obs.serving_power_dbw >= self.potlc_gate_dbw:
            self._remember(obs)
            return Decision(handover=False, stage=Stage.POTLC_PASS)

        # --- FLC -------------------------------------------------------
        # CSSP over the reporting interval: difference against the sample
        # `cssp_lag` epochs back (or the oldest available on this cell).
        reference = self._history[0]
        previous = self._history[-1]  # last epoch, for the PRTLC check
        inputs = inputs_from_observation(obs, reference, self.cell_radius_km)
        output = float(
            self.decision_outputs_batch(
                np.array([inputs.cssp_db]),
                np.array([inputs.ssn_db]),
                np.array([inputs.dmb]),
            )[0]
        )
        if output <= self.threshold:
            self._remember(obs)
            return Decision(
                handover=False,
                output=output,
                stage=Stage.FLC_REJECT,
                inputs=inputs,
            )

        # --- PRTLC -----------------------------------------------------
        if self.prtlc_enabled and obs.serving_power_dbw >= previous:
            # serving signal stopped falling: transient fade, cancel
            self._remember(obs)
            return Decision(
                handover=False,
                output=output,
                stage=Stage.PRTLC_REJECT,
                inputs=inputs,
            )

        target, _ = obs.best_neighbor()
        # handover: history restarts on the new serving cell
        self._history = []
        self._serving_cell = None
        return Decision(
            handover=True,
            target=target,
            output=output,
            stage=Stage.HANDOVER,
            inputs=inputs,
        )

    # ------------------------------------------------------------------
    def resolved_flc_backend(self) -> str:
        """The concrete FLC backend batch decisions run on: the system
        pin, else the controller's, else the name policy."""
        name = self.flc_backend
        if name is None:
            name = getattr(self.flc, "backend", None)
        return resolve_flc_backend(name)

    def decision_outputs_batch(
        self, cssp_db: np.ndarray, ssn_db: np.ndarray, dmb: np.ndarray,
        threshold: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """FLC outputs for the *decision* path (``output > threshold``),
        exact by construction on every backend; ``threshold`` holds each
        sample's own threshold (``None``: :attr:`threshold`).

        The pinned backend evaluates the whole batch; when it is an
        approximate kernel (``lut``/``numba``), every sample whose
        output lands within the backend's documented error bound of
        its threshold is re-evaluated through the ``reference`` kernel.
        Outside the band, ``|output − reference| <= bound`` means both
        sides of the threshold comparison agree; inside the band the
        value *is* the reference's — so handover decisions (and hence
        handover/ping-pong counts) are provably identical to an
        all-reference run whenever the bound holds.  This is the path
        the scalar and batch simulators take.
        """
        # the name must resolve to a concrete backend here (the guard
        # band needs its error bound)
        name = self.resolved_flc_backend()
        out = self.flc.evaluate_batch(
            {"CSSP": cssp_db, "SSN": ssn_db, "DMB": dmb}, backend=name
        )
        # the guard band follows the compiled kernel's own validated
        # bound (never below the registry's documented default)
        band = kernel_error_bound(self.flc, name)
        if band > 0.0:
            if threshold is None:
                threshold = self.threshold
            near = np.abs(out - threshold) <= band
            if near.any():
                out[near] = self.flc.evaluate_batch(
                    {
                        "CSSP": np.asarray(cssp_db, dtype=float)[near],
                        "SSN": np.asarray(ssn_db, dtype=float)[near],
                        "DMB": np.asarray(dmb, dtype=float)[near],
                    },
                    backend="reference",
                )
        return out

    def __repr__(self) -> str:
        backend = (
            f", flc_backend={self.flc_backend!r}" if self.flc_backend else ""
        )
        return (
            f"FuzzyHandoverSystem(threshold={self.threshold:g}, "
            f"potlc_gate_dbw={self.potlc_gate_dbw:g}, "
            f"prtlc_enabled={self.prtlc_enabled}, "
            f"cell_radius_km={self.cell_radius_km:g}{backend})"
        )
