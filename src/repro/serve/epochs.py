"""Deterministic epoch scheduling over epoch-indexed report buckets.

The :class:`EpochScheduler` is the pure (asyncio-free) core of the
service's epoch semantics: UEs subscribe and unsubscribe, reports are
offered into per-epoch buckets (``{epoch: {ue: Report}}``), and the
*current* epoch closes either on the **watermark** (every currently
subscribed UE has reported it) or when the caller forces a close (the
server's deadline timer, an explicit ``close_epoch`` request).

Each UE may buffer reports for the current epoch and up to
``ring_capacity - 1`` epochs ahead.  Every offer is classified as a
pure function of ``(report, current epoch, buffered reports,
subscriptions)``, so any replay of the same call sequence yields the
same verdicts:

* out-of-order and ahead-of-time reports within the window are
  buffered (``accepted``) and processed when their epoch closes;
* duplicates within an epoch: first report wins, later ones counted
  (``duplicate``);
* late reports (epoch already closed): dropped and counted (``late``);
* reports beyond the look-ahead window: dropped and counted
  (``overflow``);
* unsubscribe removes a UE from the watermark immediately, but reports
  it already buffered stay and are processed when their epochs close
  (so a UE can stream its full trace and leave without losing its tail);
* reports from never-subscribed or unsubscribed UEs are rejected and
  counted (``rejected``).

Two counters stay current through every call — the subscribed UEs still
missing from the current epoch, and the total buffered — so the
watermark and occupancy queries cost O(1) and a close costs only the
closed epoch's reports, at any fleet size.

Everything is a deterministic function of the call sequence — no
clocks, no tasks — which is what makes the watermark/timer semantics
testable without real time.
"""

from __future__ import annotations

from .protocol import Report

__all__ = ["DEFAULT_RING_CAPACITY", "EpochScheduler"]

#: Default per-UE look-ahead window, in epochs.
DEFAULT_RING_CAPACITY = 64


class EpochScheduler:
    """Aligns per-UE report streams into closable service epochs."""

    def __init__(
        self,
        ring_capacity: int = DEFAULT_RING_CAPACITY,
        start_epoch: int = 0,
    ) -> None:
        if ring_capacity < 1:
            raise ValueError(
                f"ring_capacity must be >= 1, got {ring_capacity}"
            )
        if start_epoch < 0:
            raise ValueError(f"start_epoch must be >= 0, got {start_epoch}")
        self.ring_capacity = int(ring_capacity)
        self.current_epoch = int(start_epoch)
        self._subscribed: set[int] = set()
        # only non-empty buckets exist; a bucket outlives its UEs'
        # subscriptions so already-buffered reports still close with
        # their epochs
        self._buckets: dict[int, dict[int, Report]] = {}
        self._missing = 0  # subscribed UEs not yet in the current bucket
        self._pending = 0  # reports buffered across all buckets
        self.accepted = 0
        self.late = 0
        self.duplicate = 0
        self.overflow = 0
        self.rejected = 0

    # ------------------------------------------------------------------
    @property
    def subscribed(self) -> frozenset[int]:
        return frozenset(self._subscribed)

    @property
    def n_subscribed(self) -> int:
        return len(self._subscribed)

    def is_subscribed(self, ue: int) -> bool:
        return ue in self._subscribed

    def _reported_current(self, ue: int) -> bool:
        return ue in self._buckets.get(self.current_epoch, ())

    def subscribe(self, ue: int) -> None:
        ue = int(ue)
        if ue < 0:
            raise ValueError(f"ue must be >= 0, got {ue}")
        if ue in self._subscribed:
            raise ValueError(f"UE {ue} is already subscribed")
        self._subscribed.add(ue)
        if not self._reported_current(ue):
            self._missing += 1

    def unsubscribe(self, ue: int) -> bool:
        """Remove ``ue`` from the watermark; its buffered reports stay.
        Returns whether the UE was subscribed."""
        ue = int(ue)
        if ue not in self._subscribed:
            return False
        self._subscribed.discard(ue)
        if not self._reported_current(ue):
            self._missing -= 1
        return True

    # ------------------------------------------------------------------
    def offer(self, report: Report) -> str:
        """Classify one report deterministically.

        Returns ``accepted`` / ``late`` / ``duplicate`` / ``overflow``
        / ``rejected`` (the last for UEs not currently subscribed) and
        bumps the matching counter.
        """
        ue, epoch = report.ue, report.epoch
        if ue not in self._subscribed:
            self.rejected += 1
            return "rejected"
        current = self.current_epoch
        if epoch < current:
            self.late += 1
            return "late"
        if epoch >= current + self.ring_capacity:
            self.overflow += 1
            return "overflow"
        bucket = self._buckets.get(epoch)
        if bucket is None:
            self._buckets[epoch] = bucket = {}
        elif ue in bucket:
            self.duplicate += 1
            return "duplicate"
        bucket[ue] = report
        self._pending += 1
        if epoch == current:
            self._missing -= 1
        self.accepted += 1
        return "accepted"

    def watermark_reached(self) -> bool:
        """Every currently subscribed UE has reported the current epoch
        (``False`` with no subscribers — an empty fleet never closes
        epochs on its own)."""
        return self._missing == 0 and bool(self._subscribed)

    def has_current_reports(self) -> bool:
        """At least one report is buffered for the current epoch."""
        return self.current_epoch in self._buckets

    def pending_reports(self) -> int:
        """Total buffered reports across all epochs."""
        return self._pending

    def current_report_count(self) -> int:
        """How many reports are buffered for the current epoch (the
        count a close would collect right now)."""
        return len(self._buckets.get(self.current_epoch, ()))

    # ------------------------------------------------------------------
    def close_epoch(self) -> tuple[int, list[Report]]:
        """Close the current epoch: collect its buffered reports (in
        ascending UE order — deterministic for any arrival order) and
        advance.  Empty closes are legal (a forced close before anyone
        reported)."""
        epoch = self.current_epoch
        bucket = self._buckets.pop(epoch, {})
        reports = [bucket[ue] for ue in sorted(bucket)]
        self._pending -= len(bucket)
        self.current_epoch = epoch + 1
        subscribed = self._subscribed
        self._missing = len(subscribed) - sum(
            ue in subscribed for ue in self._buckets.get(epoch + 1, ())
        )
        return epoch, reports

    def counters(self) -> dict[str, int]:
        return {
            "accepted": self.accepted,
            "late": self.late,
            "duplicate": self.duplicate,
            "overflow": self.overflow,
            "rejected": self.rejected,
        }

    def __repr__(self) -> str:
        return (
            f"EpochScheduler(epoch={self.current_epoch}, "
            f"subscribed={len(self._subscribed)}, "
            f"pending={self._pending})"
        )
