"""The in-process decision service.

:class:`DecisionService` wires the deterministic pieces together — the
:class:`~repro.serve.epochs.EpochScheduler` in front, the
:class:`~repro.serve.engine.StreamingFleetEngine` behind — and adds the
operational surface: per-status report counters, watermark auto-close,
forced (deadline / explicit) close, per-epoch decision-latency
tracking, and bounded fan-out queues for command subscribers.

The service core is synchronous and single-threaded by design: the
asyncio server (:mod:`repro.serve.server`) drives it from one event
loop, and the in-process tests drive it directly.  Listener queues are
the only async touchpoint — a :class:`CommandListener` sheds its
*oldest* pending epoch batches when full and counts the drops, so a
slow consumer can never block or slow the decision loop.
"""

from __future__ import annotations

import numbers
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional, Union

import asyncio

from ..core.system import FuzzyHandoverSystem
from ..resilience.faults import FaultPlan, make_clock
from ..sim.config import SimulationParameters
from ..sim.metrics import DEFAULT_OUTAGE_DBW, DEFAULT_WINDOW_KM, FleetMetrics
from ..sim.population import PolicyConfig, policy_system
from .engine import HandoverCommand, StreamingFleetEngine
from .epochs import DEFAULT_RING_CAPACITY, EpochScheduler
from .protocol import Report, check_index

__all__ = [
    "CommandListener",
    "DecisionService",
    "EpochCommands",
    "ServiceStats",
    "DEFAULT_LISTENER_CAPACITY",
    "MAX_LISTENER_CAPACITY",
    "check_capacity",
]

#: Default bound on a listener's pending epoch batches.
DEFAULT_LISTENER_CAPACITY = 256

#: The largest capacity a wire ``listen`` request may ask for, in epoch
#: batches.  A consumer this far behind sheds instead: at the default
#: 50 m spacing, 4,096 epochs is 205 km of one UE's travel.  A pending
#: batch costs about 128 bytes plus about 240 per command, so a full
#: listener holds about 0.5 MiB plus about 1 MiB for each command an
#: epoch emits.  In process (:class:`CommandListener`,
#: :meth:`DecisionService.attach_listener`, ``listener_capacity``) any
#: integer from 1 up is taken: a replay that keeps every epoch attaches
#: ``max_epochs + 1``.
MAX_LISTENER_CAPACITY = 4_096

#: Cap on the retained per-epoch latency samples (the percentiles only
#: need a bounded reservoir; counters keep exact totals regardless).
_MAX_LATENCY_SAMPLES = 65536


@dataclass
class ServiceStats:
    """Monotonic operational counters of one service instance."""

    reports_accepted: int = 0
    reports_late: int = 0
    reports_duplicate: int = 0
    reports_overflow: int = 0
    reports_rejected: int = 0
    epochs_closed: int = 0
    watermark_closes: int = 0
    forced_closes: int = 0
    commands_emitted: int = 0
    commands_dropped: int = 0
    transport_errors: int = 0
    connections_total: int = 0
    # degraded-mode counters: the silent-UE policy and the supervisor's
    # crash-recovery loop
    ues_silenced: int = 0
    reports_held: int = 0
    loop_restarts: int = 0
    reports_dropped_crash: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "reports_accepted": self.reports_accepted,
            "reports_late": self.reports_late,
            "reports_duplicate": self.reports_duplicate,
            "reports_overflow": self.reports_overflow,
            "reports_rejected": self.reports_rejected,
            "epochs_closed": self.epochs_closed,
            "watermark_closes": self.watermark_closes,
            "forced_closes": self.forced_closes,
            "commands_emitted": self.commands_emitted,
            "commands_dropped": self.commands_dropped,
            "transport_errors": self.transport_errors,
            "connections_total": self.connections_total,
            "ues_silenced": self.ues_silenced,
            "reports_held": self.reports_held,
            "loop_restarts": self.loop_restarts,
            "reports_dropped_crash": self.reports_dropped_crash,
        }


@dataclass(frozen=True)
class EpochCommands:
    """One closed epoch's handover commands, fanned out to listeners
    (empty-command epochs included, so subscribers observe every epoch
    boundary)."""

    epoch: int
    commands: tuple[HandoverCommand, ...]


def check_capacity(
    name: str, value: object, maximum: Optional[int] = None
) -> int:
    """``value`` as a listener capacity: an integer (NumPy integers
    included, ``bool`` not) of at least 1 and, if ``maximum`` is given,
    at most ``maximum``.  Anything else raises a :class:`ValueError`
    naming ``name`` and the allowed range."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or value < 1
        or (maximum is not None and value > maximum)
    ):
        allowed = ">= 1" if maximum is None else f"from 1 to {maximum}"
        raise ValueError(f"{name} must be an integer {allowed}, got {value!r}")
    return int(value)


class CommandListener:
    """A bounded subscriber queue with shed-oldest backpressure.

    ``push`` never blocks: when the queue is full the oldest pending
    epoch batch is dropped and :attr:`dropped` incremented.  Consumers
    either poll :meth:`pop_all` (sync) or await :meth:`get_all`
    (asyncio) — the wakeup event binds to the running loop lazily, so
    the listener is usable from fully synchronous tests too.
    ``capacity`` is any integer from 1 up.
    """

    def __init__(self, capacity: int = DEFAULT_LISTENER_CAPACITY) -> None:
        self.capacity = check_capacity("capacity", capacity)
        self._queue: deque[EpochCommands] = deque()
        self.dropped = 0
        self.closed = False
        self._event = asyncio.Event()

    def push(self, batch: EpochCommands) -> int:
        """Enqueue one epoch batch; returns how many pending batches
        were shed (oldest first) to make room."""
        shed = 0
        while len(self._queue) >= self.capacity:
            self._queue.popleft()
            self.dropped += 1
            shed += 1
        self._queue.append(batch)
        self._event.set()
        return shed

    def close(self) -> None:
        """Mark the listener detached and wake any waiting consumer."""
        self.closed = True
        self._event.set()

    def pending(self) -> int:
        return len(self._queue)

    def pop_all(self) -> list[EpochCommands]:
        """Drain all pending batches without waiting."""
        out = list(self._queue)
        self._queue.clear()
        self._event.clear()
        return out

    async def get_all(self) -> list[EpochCommands]:
        """Wait until at least one batch is pending and drain them all;
        returns ``[]`` once the listener is closed and drained."""
        while not self._queue:
            if self.closed:
                return []
            self._event.clear()
            await self._event.wait()
        return self.pop_all()


class DecisionService:
    """The streaming handover-decision service (in-process API).

    Parameters
    ----------
    params:
        Physics configuration — defines the cell layout the reports'
        power vectors index, the default pipeline's cell radius, and
        the FLC inference backend.
    system:
        Optional default pipeline override: its FLC and cell radius
        serve every UE, its threshold, POTLC gate, PRTLC switch and
        CSSP lag every UE subscribed without a policy; per-UE policy
        overrides ride in through :meth:`subscribe`.
    window_km / outage_dbw:
        Metric definitions (ping-pong distance window, outage
        sensitivity), as in the offline engine.
    ring_capacity:
        Per-UE report look-ahead window, in epochs.
    epoch_deadline_s:
        Optional deadline for the timer-close path: once the current
        epoch has had a report pending this long, the server's
        watchdog forces a close.  ``None`` closes on watermark (or
        explicit ``close_epoch``) only.
    listener_capacity:
        Default bound for attached command listeners: any integer from
        1 up (only a wire ``listen`` request is held to
        :data:`MAX_LISTENER_CAPACITY`).
    silent_after / silent_policy:
        Degraded-mode serving.  When ``silent_after=M`` is set, a
        subscribed UE that misses M consecutive *forced* epoch closes
        (it never misses watermark closes by definition) is treated as
        silent: policy ``"unsubscribe"`` drops it from the watermark so
        the rest of the fleet stops waiting on it
        (:attr:`ServiceStats.ues_silenced`), policy ``"hold"`` keeps it
        subscribed and replays its last seen report into each closing
        epoch (:attr:`ServiceStats.reports_held`).
    fault_plan:
        Optional :class:`~repro.resilience.faults.FaultPlan`.
        ``"deadline"``-scope jitter rules perturb the effective epoch
        deadline per epoch; ``"clock"``-scope skew rules scale the
        service's monotonic clock.  Both are deterministic in the plan
        seed and affect *timing* only — never decisions or metrics.
    clock:
        Injectable monotonic time source (tests); defaults to
        :func:`time.monotonic`, composed with any clock-skew rules.
    """

    def __init__(
        self,
        params: Optional[SimulationParameters] = None,
        *,
        system: Optional[FuzzyHandoverSystem] = None,
        window_km: float = DEFAULT_WINDOW_KM,
        outage_dbw: float = DEFAULT_OUTAGE_DBW,
        ring_capacity: int = DEFAULT_RING_CAPACITY,
        epoch_deadline_s: Optional[float] = None,
        listener_capacity: int = DEFAULT_LISTENER_CAPACITY,
        silent_after: Optional[int] = None,
        silent_policy: str = "unsubscribe",
        fault_plan: Optional[FaultPlan] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.params = params if params is not None else SimulationParameters()
        if system is None:
            system = policy_system(None, self.params)
        if epoch_deadline_s is not None and epoch_deadline_s <= 0:
            raise ValueError(
                f"epoch_deadline_s must be positive, got {epoch_deadline_s}"
            )
        if silent_after is not None and silent_after < 1:
            raise ValueError(
                f"silent_after must be >= 1, got {silent_after}"
            )
        if silent_policy not in ("unsubscribe", "hold"):
            raise ValueError(
                f"silent_policy must be 'unsubscribe' or 'hold', "
                f"got {silent_policy!r}"
            )
        self.engine = StreamingFleetEngine(
            self.params.make_layout(),
            system,
            window_km=window_km,
            outage_dbw=outage_dbw,
        )
        self._n_cells = self.engine.layout.n_cells
        self.scheduler = EpochScheduler(ring_capacity=ring_capacity)
        self.stats = ServiceStats()
        self.epoch_deadline_s = epoch_deadline_s
        self.listener_capacity = check_capacity(
            "listener_capacity", listener_capacity
        )
        self.silent_after = silent_after
        self.silent_policy = silent_policy
        self.fault_plan = fault_plan
        self._clock = make_clock(
            fault_plan, base=clock if clock is not None else time.monotonic
        )
        self._deadline_injector = (
            fault_plan.injector("deadline") if fault_plan is not None else None
        )
        self._listeners: list[CommandListener] = []
        self._latencies: list[float] = []
        self._epoch_opened_at: Optional[float] = None
        self._missed: dict[int, int] = {}
        self._last_report: dict[int, Report] = {}
        self._started_at = self._clock()

    # ------------------------------------------------------------------
    # subscriptions
    # ------------------------------------------------------------------
    def subscribe(
        self,
        ue: int,
        speed_kmh: float = 0.0,
        cohort: Optional[str] = None,
        policy: Optional[Union[PolicyConfig, dict]] = None,
    ) -> None:
        """Subscribe a UE to the epoch watermark (and register it with
        the decision engine on first sight).

        ``policy`` — a :class:`~repro.sim.population.PolicyConfig` or
        its field dict (the JSON wire form) — sets the UE's threshold,
        POTLC gate, PRTLC switch and CSSP lag; a bad one is refused with
        a :class:`ValueError` and registers nothing, as is a bad speed.
        A UE that unsubscribed earlier may re-subscribe and continues
        from its retained state; its original speed/cohort/policy stay
        authoritative.
        """
        ue = check_index("ue", ue)
        if not self.engine.knows(ue):
            if isinstance(policy, dict):
                try:
                    policy = PolicyConfig(**policy)
                except TypeError as exc:
                    raise ValueError(
                        f"invalid policy payload: {exc}"
                    ) from None
            elif policy is not None and not isinstance(policy, PolicyConfig):
                raise ValueError(
                    "policy must be a PolicyConfig or its field dict, "
                    f"got {type(policy).__name__}"
                )
            self.engine.add_ue(
                ue, speed_kmh=speed_kmh, policy=policy, cohort=cohort
            )
        self.scheduler.subscribe(ue)

    def unsubscribe(self, ue: int) -> bool:
        """Drop a UE from the watermark; reports it already buffered
        still close with their epochs, and its metric state is kept."""
        return self.scheduler.unsubscribe(check_index("ue", ue))

    # ------------------------------------------------------------------
    # ingest + close
    # ------------------------------------------------------------------
    def submit(self, report: Report) -> str:
        """Offer one report; auto-close every epoch whose watermark it
        completes.  Returns the scheduler's verdict (``accepted`` /
        ``late`` / ``duplicate`` / ``overflow`` / ``rejected``), counted
        in the matching ``reports_*`` stat.

        A report whose power vector is not as long as the layout has
        cells is refused with a :class:`ValueError` before it is
        offered.  The closes a report triggers run in this call, so it
        returns after their commands are fanned out.
        """
        if report.power_dbw.shape[0] != self._n_cells:
            # reject before buffering so one bad report can't poison the
            # epoch close for the whole fleet
            raise ValueError(
                f"UE {report.ue} reported {report.power_dbw.shape[0]} "
                f"cells, layout has {self._n_cells}"
            )
        scheduler = self.scheduler
        status = scheduler.offer(report)
        if status != "accepted":
            counter = f"reports_{status}"
            setattr(self.stats, counter, getattr(self.stats, counter) + 1)
            return status
        self.stats.reports_accepted += 1
        if self._epoch_opened_at is None and scheduler.has_current_reports():
            self._epoch_opened_at = self._clock()
        while scheduler.watermark_reached():
            self._close_now(watermark=True)
        return status

    def force_close(self) -> int:
        """Close the current epoch unconditionally (deadline/explicit
        path) — reports still missing simply skip this epoch and would
        arrive ``late``.  Returns the closed epoch index."""
        return self._close_now(watermark=False)

    def epoch_age_s(self) -> float:
        """Seconds the current epoch has been open with at least one
        pending report (0.0 when idle)."""
        if self._epoch_opened_at is None:
            return 0.0
        return self._clock() - self._epoch_opened_at

    def effective_deadline_s(self, epoch: Optional[int] = None) -> Optional[float]:
        """The deadline applied to ``epoch`` (default: the current one)
        after any ``"deadline"``-scope jitter rules.  Jitter is a
        deterministic per-epoch perturbation of *when* the watchdog
        fires, clamped positive so a deadline never fires instantly."""
        if self.epoch_deadline_s is None:
            return None
        if self._deadline_injector is None:
            return self.epoch_deadline_s
        if epoch is None:
            epoch = self.scheduler.current_epoch
        frac = self._deadline_injector.jitter(int(epoch))
        return max(self.epoch_deadline_s * (1.0 + frac), 1e-6)

    def deadline_expired(self) -> bool:
        deadline = self.effective_deadline_s()
        return (
            deadline is not None
            and self._epoch_opened_at is not None
            and self.epoch_age_s() >= deadline
        )

    def _close_now(self, watermark: bool) -> int:
        t0 = time.perf_counter()
        epoch, reports = self.scheduler.close_epoch()
        if self.silent_after is not None:
            reports = self._apply_silent_policy(reports, watermark)
        commands = self.engine.step_epoch(reports, epoch=epoch)
        elapsed = time.perf_counter() - t0
        if len(self._latencies) < _MAX_LATENCY_SAMPLES:
            self._latencies.append(elapsed)
        self.stats.epochs_closed += 1
        if watermark:
            self.stats.watermark_closes += 1
        else:
            self.stats.forced_closes += 1
        self.stats.commands_emitted += len(commands)
        batch = EpochCommands(epoch=epoch, commands=tuple(commands))
        for listener in self._listeners:
            self.stats.commands_dropped += listener.push(batch)
        # restart the deadline clock for the (possibly pre-filled) next
        # epoch
        self._epoch_opened_at = (
            self._clock() if self.scheduler.has_current_reports() else None
        )
        return epoch

    def _apply_silent_policy(
        self, reports: list[Report], watermark: bool
    ) -> list[Report]:
        """Track per-UE missed closes and degrade silent UEs.

        Watermark closes reset every reporter's miss counter (and, by
        definition, have no missing subscribers).  Forced closes charge
        each subscribed non-reporter one miss; at ``silent_after``
        misses the UE is either unsubscribed or its last seen report is
        held into the closing epoch, depending on ``silent_policy``.
        Held reports keep the merged list in ascending UE order so the
        engine sweep stays deterministic.
        """
        reported = {r.ue for r in reports}
        if self.silent_policy == "hold":
            for r in reports:
                # a held report outlives its epoch: keep no view that
                # would pin a wire run's whole column block
                self._last_report[r.ue] = r.detached()
        for ue in reported:
            self._missed.pop(ue, None)
        if watermark:
            return reports
        held: list[Report] = []
        for ue in sorted(self.scheduler.subscribed):
            if ue in reported:
                continue
            misses = self._missed.get(ue, 0) + 1
            self._missed[ue] = misses
            if misses < self.silent_after:
                continue
            if self.silent_policy == "unsubscribe":
                if self.scheduler.unsubscribe(ue):
                    self.stats.ues_silenced += 1
                self._missed.pop(ue, None)
            else:
                if misses == self.silent_after:
                    # first crossing into silence: count the UE once
                    self.stats.ues_silenced += 1
                last = self._last_report.get(ue)
                if last is not None:
                    held.append(last)
                    self.stats.reports_held += 1
        if not held:
            return reports
        return sorted(list(reports) + held, key=lambda r: r.ue)

    # ------------------------------------------------------------------
    # fan-out
    # ------------------------------------------------------------------
    def attach_listener(
        self, capacity: Optional[int] = None
    ) -> CommandListener:
        """A new listener bounded at ``capacity`` pending epoch batches
        (``listener_capacity`` if ``None``): any integer from 1 up; the
        server holds a wire ``listen`` to
        :data:`MAX_LISTENER_CAPACITY`."""
        listener = CommandListener(
            self.listener_capacity if capacity is None else capacity
        )
        self._listeners.append(listener)
        return listener

    def detach_listener(self, listener: CommandListener) -> None:
        try:
            self._listeners.remove(listener)
        except ValueError:
            return
        listener.close()

    @property
    def n_listeners(self) -> int:
        return len(self._listeners)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def metrics(self) -> FleetMetrics:
        """The fleet metrics accumulated so far (see
        :meth:`StreamingFleetEngine.metrics`)."""
        return self.engine.metrics()

    def latency_summary(self) -> dict[str, float]:
        """Per-epoch decision-sweep latency percentiles (seconds)."""
        if not self._latencies:
            return {"count": 0}
        samples = sorted(self._latencies)
        n = len(samples)

        def pct(q: float) -> float:
            return samples[min(n - 1, int(q * n))]

        return {
            "count": n,
            "p50_s": pct(0.50),
            "p99_s": pct(0.99),
            "max_s": samples[-1],
            "mean_s": sum(samples) / n,
        }

    def stats_payload(self) -> dict:
        """The full JSON-safe stats snapshot (service counters,
        scheduler counters, latency summary, fleet shape)."""
        return {
            **self.stats.as_dict(),
            "scheduler": self.scheduler.counters(),
            "current_epoch": self.scheduler.current_epoch,
            "pending_reports": self.scheduler.pending_reports(),
            "subscribed": self.scheduler.n_subscribed,
            "known_ues": self.engine.n_ues,
            "latency": self.latency_summary(),
        }

    def health_payload(self) -> dict:
        """Health/readiness snapshot for orchestration probes.

        ``status`` is ``"ok"`` until the service has degraded a UE or
        restarted its decision loop after a crash, then ``"degraded"``
        — still ``ready``, since degraded mode keeps serving the
        responsive fleet.
        """
        degraded = (
            self.stats.ues_silenced > 0 or self.stats.loop_restarts > 0
        )
        return {
            "status": "degraded" if degraded else "ok",
            "ready": True,
            "uptime_s": self._clock() - self._started_at,
            "current_epoch": self.scheduler.current_epoch,
            "subscribed": self.scheduler.n_subscribed,
            "known_ues": self.engine.n_ues,
            "pending_reports": self.scheduler.pending_reports(),
            "epochs_closed": self.stats.epochs_closed,
            "ues_silenced": self.stats.ues_silenced,
            "reports_held": self.stats.reports_held,
            "loop_restarts": self.stats.loop_restarts,
            "silent_after": self.silent_after,
            "silent_policy": (
                self.silent_policy if self.silent_after is not None else None
            ),
            "epoch_deadline_s": self.epoch_deadline_s,
        }
