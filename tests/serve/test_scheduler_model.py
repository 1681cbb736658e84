"""Differential test: :class:`EpochScheduler` against a brute-force model.

The scheduler keeps its watermark and occupancy answers in incremental
counters.  :class:`ScanModel` keeps the same state the slow, obvious
way — one ``{epoch: report}`` dict per UE, every query a full scan — and
the test replays random operation sequences (subscribe, unsubscribe,
close, and offers behind, inside and past the look-ahead window,
duplicates included, from subscribed and unsubscribed UEs) through
both, comparing every verdict and every query after every step.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import EpochScheduler, Report

pytestmark = pytest.mark.serve

N_UES = 3
MAX_CAPACITY = 4


class ScanModel:
    """Per-UE epoch dicts and full scans: the reference algorithm."""

    def __init__(self, capacity: int, start_epoch: int) -> None:
        self.capacity = capacity
        self.current_epoch = start_epoch
        self.subscribed: set[int] = set()
        self.rings: dict[int, dict[int, Report]] = {}
        self.counts = dict.fromkeys(
            ("accepted", "late", "duplicate", "overflow", "rejected"), 0
        )

    def subscribe(self, ue: int) -> None:
        self.subscribed.add(ue)
        self.rings.setdefault(ue, {})

    def unsubscribe(self, ue: int) -> bool:
        if ue not in self.subscribed:
            return False
        self.subscribed.discard(ue)
        return True

    def offer(self, report: Report) -> str:
        ring = self.rings.get(report.ue)
        if report.ue not in self.subscribed:
            status = "rejected"
        elif report.epoch < self.current_epoch:
            status = "late"
        elif report.epoch >= self.current_epoch + self.capacity:
            status = "overflow"
        elif report.epoch in ring:
            status = "duplicate"
        else:
            ring[report.epoch] = report
            status = "accepted"
        self.counts[status] += 1
        return status

    def watermark_reached(self) -> bool:
        return bool(self.subscribed) and all(
            self.current_epoch in self.rings[ue] for ue in self.subscribed
        )

    def has_current_reports(self) -> bool:
        return self.current_report_count() > 0

    def current_report_count(self) -> int:
        return sum(self.current_epoch in r for r in self.rings.values())

    def pending_reports(self) -> int:
        return sum(len(r) for r in self.rings.values())

    def close_epoch(self) -> tuple[int, list[Report]]:
        epoch = self.current_epoch
        reports = [
            self.rings[ue].pop(epoch)
            for ue in sorted(self.rings)
            if epoch in self.rings[ue]
        ]
        self.current_epoch = epoch + 1
        return epoch, reports


# offers weighted up so most sequences interleave several of them with
# (un)subscribes and closes; an offer's epoch is an offset from the
# current epoch: behind the window (late), inside it, past it (overflow)
KINDS = ("offer", "offer", "offer", "subscribe", "unsubscribe", "close")
operations = st.lists(
    st.tuples(
        st.sampled_from(KINDS),
        st.integers(0, N_UES - 1),
        st.integers(-2, MAX_CAPACITY + 1),
    ),
    min_size=20,
    max_size=80,
)


def make_report(ue: int, epoch: int) -> Report:
    return Report(
        ue=ue,
        epoch=epoch,
        position_km=(0.0, 0.0),
        distance_km=0.0,
        power_dbw=np.full(1, -80.0),
    )


def assert_same_state(sched: EpochScheduler, model: ScanModel) -> None:
    assert sched.current_epoch == model.current_epoch
    assert sched.counters() == model.counts
    assert sched.subscribed == model.subscribed
    assert sched.watermark_reached() == model.watermark_reached()
    assert sched.has_current_reports() == model.has_current_reports()
    assert sched.current_report_count() == model.current_report_count()
    assert sched.pending_reports() == model.pending_reports()


@settings(derandomize=True, max_examples=100, deadline=None)
@given(
    capacity=st.integers(1, MAX_CAPACITY),
    start_epoch=st.integers(0, 2),
    ops=operations,
)
def test_scheduler_matches_scan_model(capacity, start_epoch, ops):
    sched = EpochScheduler(ring_capacity=capacity, start_epoch=start_epoch)
    model = ScanModel(capacity, start_epoch)
    for kind, ue, offset in ops:
        if kind == "subscribe":
            if ue in model.subscribed:
                with pytest.raises(ValueError):
                    sched.subscribe(ue)
            else:
                sched.subscribe(ue)
                model.subscribe(ue)
        elif kind == "unsubscribe":
            assert sched.unsubscribe(ue) == model.unsubscribe(ue)
        elif kind == "close":
            epoch, reports = sched.close_epoch()
            model_epoch, model_reports = model.close_epoch()
            assert epoch == model_epoch
            assert [id(r) for r in reports] == [id(r) for r in model_reports]
        else:
            report = make_report(ue, max(0, model.current_epoch + offset))
            assert sched.offer(report) == model.offer(report)
        assert_same_state(sched, model)
