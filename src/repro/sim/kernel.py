"""The per-UE handover epoch kernel shared by every fleet engine.

A fleet's per-UE state, each UE's handover policy included, lives in
one :class:`EpochState`, and :func:`step` advances any subset of its
UEs by one epoch each through the paper's pipeline: the POTLC gate, the
FLC on CSSP/SSN/DMB (through the guard-banded
``decision_outputs_batch``), the PRTLC check, the CSSP-history slide
and the :class:`~repro.sim.metrics.FleetMetricsAccumulator` counter
updates.  The offline :class:`~repro.sim.batch.BatchSimulator` steps
every active UE of a tile epoch; the online
:class:`~repro.serve.engine.StreamingFleetEngine` steps the UEs whose
reports a closed service epoch carried.

**Byte-identity argument.**  Every per-UE quantity of the step is
elementwise in the UE, policy included: the serving-power gather, the
stage masks, the FLC inputs (``reference``/``previous`` from the UE's
own history, the neighbour argmax over the UE's own power row,
``cssp``/``ssn``/``dmb``), the guard-banded FLC call (elementwise, each
sample banded around its own threshold, so subset evaluation is
bit-identical to one-sample evaluation), the PRTLC test, the history
slide and every counter update.  The epoch index only ever appears per
UE (dwell gaps, the ``prev_strongest`` comparison), and :func:`step`
reads it from the UE's own local epoch counter.  Every UE starts at
local epoch 0, so stepping UEs in *any* grouping — the batch engine's
lockstep epochs, where a UE's local epoch equals the global one, or the
service's epochs with staggered joins and pauses — reproduces the same
per-UE state and metrics bit-for-bit, as long as each UE's measurements
arrive in its own epoch order and none are skipped.  The ``serve`` and
``resilience`` identity suites pin this against the batch engine, which
the ``sim`` suites pin against the scalar
:class:`~repro.sim.engine.Simulator` and :func:`~repro.sim.metrics.
compute_fleet_metrics`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..core.system import FuzzyHandoverSystem
from ..geometry.layout import CellLayout
from ..radio.fading import speed_penalty_db
from .metrics import (
    DEFAULT_OUTAGE_DBW,
    DEFAULT_WINDOW_KM,
    FleetMetricsAccumulator,
)

__all__ = ["EpochState", "Handovers", "speed_penalties", "step"]


def speed_penalties(speed_kmh) -> np.ndarray:
    """Per-UE speed penalties (dB) of a scalar or 1-D speed array.

    The one place a UE speed is validated: NaN or infinite speeds would
    turn the FLC's SSN input into NaN/-inf, and negative ones have no
    penalty.  Strings and booleans are refused rather than converted.
    """
    raw = np.asarray(speed_kmh)
    if raw.dtype.kind in "bSU":
        got = repr(speed_kmh) if raw.ndim == 0 else f"dtype {raw.dtype}"
        raise ValueError(f"speed_kmh must be a real number, got {got}")
    try:
        speeds = np.atleast_1d(np.asarray(speed_kmh, dtype=float))
    except OverflowError:
        raise ValueError(
            "speed_kmh must be finite and >= 0, got an integer too large "
            "for a float"
        ) from None
    if speeds.ndim != 1:
        raise ValueError(
            f"speed_kmh must be a scalar or 1-D, got shape {speeds.shape}"
        )
    bad = ~(np.isfinite(speeds) & (speeds >= 0))
    if bad.any():
        raise ValueError(
            f"speed_kmh must be finite and >= 0, got {speeds[bad][0]}"
        )
    return np.asarray(speed_penalty_db(speeds), dtype=float)


class Handovers(NamedTuple):
    """The handovers one :func:`step` executed, in stepped-row order:
    ``index`` positions in the stepped ``rows``, the source/target BS
    indices, the FLC outputs and the UEs' local epochs."""

    index: np.ndarray
    source: np.ndarray
    target: np.ndarray
    output: np.ndarray
    local_epoch: np.ndarray


_NONE = np.zeros(0, dtype=np.intp)
_NO_HANDOVERS = Handovers(_NONE, _NONE, _NONE, np.zeros(0), _NONE)


class EpochState:
    """A fleet's per-UE epoch state.

    Holds the pipeline configuration (``system``: the FLC, the cell
    radius and the default policy; the layout's neighbour table) and
    one row per UE of every array in :attr:`ARRAYS`: serving BS, CSSP
    history window and length, local epoch, speed penalty and the
    :class:`~repro.sim.metrics.FleetMetricsAccumulator` counters, which
    ``metrics`` updates and reduces; and of the :attr:`POLICY` columns,
    from each UE's ``policies`` entry (``None``: the system's values).
    ``penalty`` sizes a fixed fleet; :meth:`add` appends UEs one at a
    time (the serve engine).
    """

    #: every per-UE array, name -> (dtype, fill); ``hist`` carries a
    #: trailing axis of :attr:`width`, the longest lag
    ARRAYS = {
        # serving BS (-1 until the UE's first epoch picks the strongest)
        "serving": (np.intp, -1),
        # serving-power history, oldest first, ``hist_len`` valid
        # entries, cleared on handover
        "hist": (float, 0.0),
        "hist_len": (np.intp, 0),
        "epochs": (np.intp, 0),
        "penalty": (float, 0.0),
        # the FleetMetricsAccumulator counters, named as
        # FleetMetrics.from_per_ue takes them (dwell aside)
        "handovers": (np.intp, 0),
        "ping_pongs": (np.intp, 0),
        "necessary": (np.intp, 0),
        "wrong_epochs": (np.intp, 0),
        "outage_epochs": (np.intp, 0),
        "dwell_sum": (np.intp, 0),
        "dwell_count": (np.intp, 0),
        "last_event": (np.intp, 0),
        "prev_src": (np.intp, -1),
        "prev_tgt": (np.intp, -1),
        "prev_dist": (float, 0.0),
        "output_sums": (float, 0.0),
        "output_counts": (np.intp, 0),
        "output_maxes": (float, -np.inf),
        "prev_strongest": (np.intp, -1),
    }

    #: the per-UE policy columns, named as ``PolicyConfig``'s fields;
    #: configuration, not state, so :meth:`state_dict` leaves them out
    POLICY = {
        "threshold": (float, 0.0),
        "potlc_gate_dbw": (float, 0.0),
        "prtlc_enabled": (bool, False),
        "cssp_lag": (np.intp, 1),
    }

    def __init__(
        self,
        system: FuzzyHandoverSystem,
        layout: CellLayout,
        penalty: np.ndarray = (),
        policies=None,
        *,
        window_km: float = DEFAULT_WINDOW_KM,
        outage_dbw: float = DEFAULT_OUTAGE_DBW,
    ) -> None:
        self.system = system
        self.nbr_idx, self.nbr_mask, self.nbr_deg = layout.neighbor_table()
        self.bs = layout.bs_positions
        self.metrics = FleetMetricsAccumulator(window_km, outage_dbw)
        penalty = np.asarray(penalty, dtype=float)
        n = penalty.shape[0]
        columns = self._policy_columns(policies, n)
        # hist holds the longest lag, the system's included: a function
        # of the policies, so a rebuilt state has the same shape
        self.n = 0
        self._resize(n, int(columns["cssp_lag"].max(initial=system.cssp_lag)))
        self.n = n
        self.penalty[:] = penalty
        for name, column in columns.items():
            getattr(self, name)[:] = column
        self.metrics.begin(self)

    def _policy_columns(self, policies, n: int) -> dict[str, np.ndarray]:
        """The :attr:`POLICY` columns of ``n`` UEs: each ``policies``
        entry's values, the system's for ``None``."""
        if policies is not None and len(policies) != n:
            raise ValueError(f"{n} UEs but {len(policies)} policies")
        # without policies, the system's one row repeats (no per-UE pass)
        rows = (self.system,) if policies is None else [
            self.system if p is None else p for p in policies
        ]
        return {
            name: np.resize(np.array([getattr(r, name) for r in rows], t), n)
            for name, (t, _) in self.POLICY.items()
        }

    def _resize(self, capacity: int, width: int) -> None:
        """Reallocate every array at ``capacity`` rows (``hist`` at
        ``width`` columns), keeping the first ``n`` rows; new rows and
        columns hold their pristine fill."""
        for name, (dtype, fill) in {**self.ARRAYS, **self.POLICY}.items():
            shape = (capacity, width) if name == "hist" else (capacity,)
            new = np.full(shape, fill, dtype=dtype)
            if self.n:
                old = getattr(self, name)[: self.n]
                new[tuple(map(slice, old.shape))] = old
            setattr(self, name, new)
        self.width = width

    def add(self, speed_kmh: float, policy=None) -> int:
        """Append one UE under ``policy`` (``None``: the system's);
        returns its row.  Capacity doubles, so adding N UEs one by one
        costs O(N); a longer lag than any so far widens ``hist``."""
        if np.ndim(speed_kmh):
            raise ValueError(f"speed_kmh must be a scalar, got {speed_kmh!r}")
        (penalty,) = speed_penalties(speed_kmh)
        columns = self._policy_columns((policy,), 1)
        width = max(self.width, int(columns["cssp_lag"][0]))
        if self.n == self.serving.shape[0] or width > self.width:
            self._resize(max(8, 2 * self.n), width)
        row = self.n
        self.penalty[row] = penalty
        for name, column in columns.items():
            getattr(self, name)[row] = column[0]
        self.n += 1
        return row

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """A deep snapshot of every per-UE array (configuration stays
        with the live object)."""
        return {
            name: getattr(self, name)[: self.n].copy() for name in self.ARRAYS
        }

    def load_state_dict(self, snapshot: dict) -> None:
        """Restore a :meth:`state_dict` snapshot taken over the same UEs
        and policies; every array's shape is checked before any is
        written."""
        missing = self.ARRAYS.keys() - snapshot.keys()
        if missing:
            raise ValueError(f"state snapshot lacks {sorted(missing)}")
        for name in self.ARRAYS:
            want = getattr(self, name)[: self.n].shape
            got = np.shape(snapshot[name])
            if got != want:
                raise ValueError(
                    f"state array {name} has shape {got}, expected {want} "
                    "— the snapshot belongs to a different fleet or policy"
                )
        for name in self.ARRAYS:
            getattr(self, name)[: self.n] = snapshot[name]


def step(
    state: EpochState,
    rows: np.ndarray,
    power: np.ndarray,
    positions: np.ndarray,
    distance: np.ndarray,
    observer=None,
) -> Handovers:
    """Advance the UEs ``rows`` of ``state`` by one local epoch each.

    ``power`` ``(m, n_cells)``, ``positions`` ``(m, 2)`` and
    ``distance`` ``(m,)`` are those UEs' measurements, in ``rows``
    order (``rows`` must not repeat a UE).  ``state.metrics`` — and
    ``observer``, when given — receive the epoch through the
    accumulator's callbacks: ``k`` is always the stepped UEs' local
    epochs and the index arrays are state rows.  Returns the executed
    handovers.
    """
    sys = state.system
    consumers = (state.metrics,) if observer is None else (
        state.metrics, observer
    )
    m = rows.shape[0]
    arange = np.arange(m)
    k = state.epochs[rows]
    serving = state.serving[rows]
    unset = serving < 0
    if unset.any():
        # a UE's first epoch: serve the strongest BS
        serving[unset] = power[unset].argmax(axis=1)
    p_serv = power[arange, serving]
    hist = state.hist[rows]
    hist_len = state.hist_len[rows]

    warm = hist_len == 0
    considered = ~warm
    no_nbr = (state.nbr_deg[serving] == 0) & considered
    considered &= ~no_nbr
    gated = (p_serv >= state.potlc_gate_dbw[rows]) & considered
    flc_mask = ~gated & considered
    for c in consumers:
        c.on_stage_masks(k, rows, warm, no_nbr, gated)

    remembered = np.ones(m, dtype=bool)
    handovers = _NO_HANDOVERS
    if flc_mask.any():
        idx = np.nonzero(flc_mask)[0]
        mm = idx.shape[0]
        reference = hist[idx, 0]
        previous = hist[idx, hist_len[idx] - 1]
        srv = serving[idx]
        nb = state.nbr_idx[srv]  # (mm, max_degree)
        nb_p = np.where(
            state.nbr_mask[srv], power[idx[:, None], nb], -np.inf
        )
        best_col = nb_p.argmax(axis=1)  # first max: the scalar
        best_idx = nb[np.arange(mm), best_col]  # tie-break
        best_p = nb_p[np.arange(mm), best_col]
        delta = positions[idx] - state.bs[srv]
        d_serv = np.hypot(delta[:, 0], delta[:, 1])

        flc_k, flc_ues = k[idx], rows[idx]
        cssp = p_serv[idx] - reference
        ssn = best_p - state.penalty[flc_ues]
        dmb = d_serv / sys.cell_radius_km
        threshold = state.threshold[flc_ues]
        # the guard-banded decision path: compiled FLC kernels (lut/
        # numba) evaluate the bulk, borderline outputs are re-evaluated
        # exactly — decisions match the reference backend
        out = sys.decision_outputs_batch(cssp, ssn, dmb, threshold)

        rej_flc = out <= threshold
        # PRTLC (when enabled): cancel unless the serving power fell
        prtlc = state.prtlc_enabled[flc_ues]
        rej_prtlc = ~rej_flc & (p_serv[idx] >= previous) & prtlc
        handed = ~rej_flc & ~rej_prtlc
        for c in consumers:
            c.on_flc(flc_k, flc_ues, cssp, ssn, dmb, out, rej_flc, rej_prtlc)

        if handed.any():
            ho = idx[handed]
            handovers = Handovers(
                ho, serving[ho], best_idx[handed], out[handed], k[ho]
            )
            for c in consumers:
                c.on_handover(
                    handovers.local_epoch,
                    rows[ho],
                    handovers.source,
                    handovers.target,
                    handovers.output,
                    distance[ho],
                )
            serving[ho] = handovers.target
            hist_len[ho] = 0  # the history restarts, and the
            remembered[ho] = False  # handover epoch is not kept

    # slide the lag window for every non-handover UE (full rows shift,
    # short rows append)
    lag = state.cssp_lag[rows]
    full = (hist_len == lag) & remembered
    if full.any():
        r = np.nonzero(full)[0]
        hist[r, :-1] = hist[r, 1:]
        hist[r, lag[r] - 1] = p_serv[r]
    short = (hist_len < lag) & remembered
    if short.any():
        r = np.nonzero(short)[0]
        hist[r, hist_len[r]] = p_serv[r]
        hist_len[r] += 1

    for c in consumers:
        c.end_epoch(k, rows, serving, power)
    state.serving[rows] = serving
    state.hist[rows] = hist
    state.hist_len[rows] = hist_len
    state.epochs[rows] = k + 1
    return handovers
