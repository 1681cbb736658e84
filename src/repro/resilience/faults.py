"""The deterministic fault runtime.

A :class:`FaultPlan` is a *seeded, declarative schedule of faults*: a
tuple of :class:`FaultRule` entries, each naming a scope (worker task
handling, serve-transport frames, UE report emission, epoch deadlines,
the service clock, checkpoint writes, epoch processing), a failure mode,
and a trigger (the N-th event of that scope, optionally repeating,
optionally probabilistic).  Every probabilistic decision and every drawn
magnitude derives from ``default_rng([plan.seed, rule_index, event])``
— a pure function of the plan and the event count, never of wall-clock
time — so replaying the same plan against the same workload fires the
same faults in the same places, and the fired-counter bookkeeping of a
chaos run is byte-reproducible.

Injection points across the repo consume the plan through
:meth:`FaultPlan.injector`:

* :class:`~repro.sim.distributed.WorkerServer` polls a ``"worker"``
  injector per received task (exit / drop / hang);
* :func:`misbehaving_client` drives serve-transport chaos from
  ``"frame"`` rules (abrupt exit, truncated frame, garbage frame,
  silent hang, delay) — the shared scaffolding the serve fault tests
  run on;
* ``"report"`` rules silence a UE's report stream during replays;
* :class:`~repro.serve.service.DecisionService` derives per-epoch
  deadline jitter from ``"deadline"`` rules and a skewed monotonic
  clock from ``"clock"`` rules (via :func:`make_clock`);
* the checkpoint runner (``"checkpoint"``) and the serve supervisor
  (``"epoch"``) crash on schedule to exercise recovery paths.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "FAULT_SCOPES",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "make_clock",
    "misbehaving_client",
    "silence_filter",
]


# ----------------------------------------------------------------------
# the declarative plan
# ----------------------------------------------------------------------
#: Valid ``scope -> modes`` pairs.  Scopes name *event streams* (each
#: injector counts one stream); modes name what happens when a rule
#: fires on an event of that stream.
FAULT_SCOPES: dict[str, tuple[str, ...]] = {
    # worker task handling (WorkerServer): process exit, dropped
    # connection, silent hang
    "worker": ("exit", "drop", "hang"),
    # serve-transport frames (misbehaving_client): connection chaos
    "frame": ("exit", "drop", "corrupt", "hang", "delay"),
    # UE report emission during replays: silence
    "report": ("silence",),
    # serve epoch deadlines: ± jitter on the effective deadline
    "deadline": ("jitter",),
    # the service's monotonic clock: rate skew
    "clock": ("skew",),
    # checkpoint writes (run_fleet_checkpointed): simulated kill
    "checkpoint": ("crash",),
    # serve epoch processing (SupervisedDecisionService): loop crash
    "epoch": ("crash",),
}


@dataclass(frozen=True)
class FaultRule:
    """One scheduled fault.

    Parameters
    ----------
    scope:
        Which event stream the rule watches (see :data:`FAULT_SCOPES`).
    mode:
        What happens when the rule fires; valid modes depend on the
        scope.
    after:
        Fire on the ``after``-th event of the scope (1-based).  For
        ``"deadline"`` rules the event index is the epoch number + 1,
        and the rule applies from that epoch on (jitter is per-epoch,
        not consumed).
    repeat:
        Fire on *every* event from ``after`` on instead of exactly once.
    probability:
        Chance the rule fires on an otherwise-due event; decided
        deterministically from the plan seed, the rule index, and the
        event count.
    magnitude:
        Mode-specific size: jitter half-width as a fraction of the base
        deadline (``"jitter"``), clock rate skew (``"skew"``; +0.25 runs
        25 % fast), sleep seconds (``"delay"`` / ``"hang"``).
    ue:
        Restrict the rule to one UE (``"report"`` scope); ``None``
        matches any.
    """

    scope: str
    mode: str
    after: int = 1
    repeat: bool = False
    probability: float = 1.0
    magnitude: float = 0.0
    ue: Optional[int] = None

    def __post_init__(self) -> None:
        if self.scope not in FAULT_SCOPES:
            raise ValueError(
                f"unknown fault scope {self.scope!r}; "
                f"expected one of {sorted(FAULT_SCOPES)}"
            )
        if self.mode not in FAULT_SCOPES[self.scope]:
            raise ValueError(
                f"mode {self.mode!r} is not valid for scope "
                f"{self.scope!r}; expected one of "
                f"{FAULT_SCOPES[self.scope]}"
            )
        if self.after < 1:
            raise ValueError(f"after must be >= 1, got {self.after}")
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError(
                f"probability must lie in [0, 1], got {self.probability}"
            )
        if not np.isfinite(self.magnitude) or self.magnitude < 0.0:
            raise ValueError(
                f"magnitude must be finite and >= 0, got {self.magnitude}"
            )
        if self.ue is not None and self.ue < 0:
            raise ValueError(f"ue must be >= 0, got {self.ue}")

    # -- JSON schema ---------------------------------------------------
    def to_payload(self) -> dict:
        """JSON-safe dict form (the FaultPlan schema's rule entry)."""
        return {
            "scope": self.scope,
            "mode": self.mode,
            "after": self.after,
            "repeat": self.repeat,
            "probability": self.probability,
            "magnitude": self.magnitude,
            "ue": self.ue,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "FaultRule":
        return cls(
            scope=str(payload["scope"]),
            mode=str(payload["mode"]),
            after=int(payload.get("after", 1)),
            repeat=bool(payload.get("repeat", False)),
            probability=float(payload.get("probability", 1.0)),
            magnitude=float(payload.get("magnitude", 0.0)),
            ue=(None if payload.get("ue") is None else int(payload["ue"])),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded schedule of :class:`FaultRule` entries.

    The plan itself is immutable and free of runtime state; injection
    points each obtain a counting :class:`FaultInjector` for their scope
    via :meth:`injector`.  Determinism contract: two runs that process
    the same event streams against the same plan fire the same rules on
    the same events and draw the same magnitudes.
    """

    seed: int = 0
    rules: tuple[FaultRule, ...] = ()

    def __post_init__(self) -> None:
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        object.__setattr__(self, "rules", tuple(self.rules))
        for rule in self.rules:
            if not isinstance(rule, FaultRule):
                raise TypeError(
                    f"rules must be FaultRule instances, got {rule!r}"
                )

    def injector(
        self, scope: str, ue: Optional[int] = None
    ) -> "FaultInjector":
        """A fresh counting injector over this plan's ``scope`` rules
        (optionally narrowed to one UE for ``"report"`` streams)."""
        if scope not in FAULT_SCOPES:
            raise ValueError(
                f"unknown fault scope {scope!r}; "
                f"expected one of {sorted(FAULT_SCOPES)}"
            )
        return FaultInjector(self, scope, ue=ue)

    def rules_for(self, scope: str) -> tuple[tuple[int, FaultRule], ...]:
        """``(plan_index, rule)`` pairs of one scope, in plan order."""
        return tuple(
            (i, r) for i, r in enumerate(self.rules) if r.scope == scope
        )

    # -- JSON schema ---------------------------------------------------
    def to_payload(self) -> dict:
        """JSON-safe dict form: ``{"seed": int, "rules": [rule...]}``
        (see README for the documented schema)."""
        return {
            "seed": self.seed,
            "rules": [r.to_payload() for r in self.rules],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "FaultPlan":
        return cls(
            seed=int(payload.get("seed", 0)),
            rules=tuple(
                FaultRule.from_payload(p) for p in payload.get("rules", ())
            ),
        )


class FaultInjector:
    """Counts one scope's events and fires the plan's rules on them.

    ``poll()`` records one event and returns the rule that fires on it
    (first matching rule in plan order), or ``None``.  The injector
    keeps per-rule fired counters — the observable that the
    replay-determinism tests compare across runs.
    """

    def __init__(
        self, plan: FaultPlan, scope: str, ue: Optional[int] = None
    ) -> None:
        self.plan = plan
        self.scope = scope
        self.ue = ue
        self._rules = [
            (i, r)
            for i, r in plan.rules_for(scope)
            if ue is None or r.ue is None or r.ue == ue
        ]
        self.events = 0
        self.fired: dict[int, int] = {i: 0 for i, _ in self._rules}

    # ------------------------------------------------------------------
    def poll(self) -> Optional[FaultRule]:
        """Record one event of the scope; the rule firing on it, if any."""
        self.events += 1
        for i, rule in self._rules:
            due = (
                self.events >= rule.after
                if rule.repeat
                else self.events == rule.after
            )
            if not due:
                continue
            if rule.probability < 1.0:
                rng = np.random.default_rng(
                    [self.plan.seed, i, self.events]
                )
                if rng.random() >= rule.probability:
                    continue
            self.fired[i] += 1
            return rule
        return None

    def jitter(self, index: int) -> float:
        """Total signed jitter fraction at event ``index`` (e.g. epoch
        number) across this scope's ``"jitter"`` rules — a pure function
        of ``(plan.seed, rule, index)``, consuming no events."""
        total = 0.0
        for i, rule in self._rules:
            if rule.mode != "jitter":
                continue
            if index + 1 < rule.after or (
                not rule.repeat and index + 1 != rule.after
            ):
                continue
            rng = np.random.default_rng([self.plan.seed, i, index])
            total += float(rng.uniform(-rule.magnitude, rule.magnitude))
        return total

    def counters(self) -> dict:
        """The replay-comparable observable: events seen and per-rule
        fired counts (keyed by plan rule index)."""
        return {"events": self.events, "fired": dict(self.fired)}

    def __repr__(self) -> str:
        return (
            f"FaultInjector(scope={self.scope!r}, events={self.events}, "
            f"rules={len(self._rules)})"
        )


# ----------------------------------------------------------------------
# clock skew
# ----------------------------------------------------------------------
def make_clock(
    plan: Optional[FaultPlan],
    base: Callable[[], float] = time.monotonic,
) -> Callable[[], float]:
    """A monotonic clock with the plan's ``"clock"`` skew applied.

    ``"skew"`` rules scale elapsed time by ``(1 + magnitude)`` — the
    service under a fast clock hits its epoch deadlines early, a slow
    one late.  Without clock rules the base clock is returned as-is.
    """
    if plan is None:
        return base
    skew = sum(
        r.magnitude for r in plan.rules if r.scope == "clock"
    )
    if skew == 0.0:
        return base
    t0 = base()
    rate = 1.0 + skew

    def skewed() -> float:
        return t0 + (base() - t0) * rate

    return skewed


# ----------------------------------------------------------------------
# serve-transport chaos client
# ----------------------------------------------------------------------
async def misbehaving_client(
    host: str,
    port: int,
    plan: FaultPlan,
    reports: Sequence,
    *,
    ue: int,
    speed_kmh: float = 30.0,
) -> FaultInjector:
    """Stream ``reports`` to a serve server, misbehaving per the plan.

    The shared scaffolding of the serve transport-fault tests: connects,
    subscribes ``ue``, then sends one report frame per entry of
    ``reports``, polling a ``"frame"`` injector *after* each send — so a
    rule with ``after=N`` lets ``N`` good frames through and misbehaves
    in place of the ``N+1``-th:

    * ``"exit"`` — abruptly close the connection (no shutdown frame);
    * ``"drop"`` — send a deliberately truncated frame, then close;
    * ``"corrupt"`` — send an undecodable body under a valid length
      prefix, then close;
    * ``"hang"`` — go silent for ``magnitude`` seconds (default 0.2),
      then close without a farewell;
    * ``"delay"`` — sleep ``magnitude`` seconds and keep streaming.

    Returns the frame injector so callers can assert fired counters.
    """
    from .. import wire
    from ..serve.protocol import encode_frame, read_frame

    injector = plan.injector("frame")
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(
            encode_frame(
                {"type": "subscribe", "ue": ue, "speed_kmh": speed_kmh}
            )
        )
        await writer.drain()
        # the subscribe ack is the only frame this connection reads
        await read_frame(wire.FrameReader(reader))
        for report in reports:
            # Report.to_payload() is already the typed wire message
            frame = encode_frame(report.to_payload())
            writer.write(frame)
            await writer.drain()
            rule = injector.poll()
            if rule is None:
                continue
            if rule.mode == "delay":
                await asyncio.sleep(rule.magnitude)
                continue
            if rule.mode == "drop":
                # half a frame: length prefix promises more than we send
                writer.write(frame[: max(5, len(frame) // 2)])
                await writer.drain()
            elif rule.mode == "corrupt":
                writer.write(wire.frame(b"Jnot json at all"))
                await writer.drain()
            elif rule.mode == "hang":
                await asyncio.sleep(rule.magnitude or 0.2)
            return injector  # exit / drop / corrupt / hang: abandon
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return injector


def silence_filter(
    plan: Optional[FaultPlan], ue_ids: Iterable[int]
) -> Callable[[int, int], bool]:
    """A ``(ue, epoch) -> should_send`` predicate from the plan's
    ``"report"`` silence rules.

    Each UE gets its own counting injector (one event per epoch), so a
    ``silence`` rule with ``after=K, repeat=True`` mutes the UE from its
    K-th report on — the canonical silent-UE chaos driver.  Without a
    plan every report is sent.
    """
    if plan is None:
        return lambda ue, epoch: True
    injectors = {ue: plan.injector("report", ue=ue) for ue in ue_ids}

    def should_send(ue: int, epoch: int) -> bool:
        injector = injectors.get(ue)
        if injector is None:
            return True
        rule = injector.poll()
        return not (rule is not None and rule.mode == "silence")

    return should_send
