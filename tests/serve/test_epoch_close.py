"""Deterministic watermark/timer epoch-close semantics.

These tests drive the pure :class:`EpochScheduler` and the in-process
:class:`DecisionService` with hand-built report sequences and pin the
classification rules: out-of-order and ahead-of-window buffering,
first-wins duplicates, late-after-close drops (counted), forced closes
with partial fleets, and mid-stream subscribe/unsubscribe churn.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.sim import SimulationParameters
from repro.serve import DecisionService, EpochScheduler, Report

pytestmark = pytest.mark.serve

N_CELLS = SimulationParameters().make_layout().n_cells


def make_report(ue: int, epoch: int, power: float = -80.0) -> Report:
    powers = np.full(N_CELLS, -120.0)
    powers[0] = power
    return Report(
        ue=ue,
        epoch=epoch,
        position_km=(1.0, 1.0),
        distance_km=0.1 * epoch,
        power_dbw=powers,
    )


# ----------------------------------------------------------------------
# look-ahead window classification
# ----------------------------------------------------------------------
def test_ring_statuses_are_deterministic():
    sched = EpochScheduler(ring_capacity=4)
    sched.subscribe(0)
    assert sched.offer(make_report(0, 0)) == "accepted"
    assert sched.offer(make_report(0, 0)) == "duplicate"
    assert sched.offer(make_report(0, 3)) == "accepted"
    assert sched.offer(make_report(0, 4)) == "overflow"
    assert sched.pending_reports() == 2
    sched.close_epoch()
    sched.close_epoch()
    assert sched.current_epoch == 2
    assert sched.offer(make_report(0, 1)) == "late"
    assert sched.pending_reports() == 1
    assert sched.counters() == {
        "accepted": 2, "late": 1, "duplicate": 1, "overflow": 1,
        "rejected": 0,
    }


def test_ring_duplicate_first_wins():
    sched = EpochScheduler(ring_capacity=4)
    sched.subscribe(0)
    first = make_report(0, 1, power=-70.0)
    second = make_report(0, 1, power=-60.0)
    sched.offer(first)
    sched.offer(second)
    assert sched.close_epoch() == (0, [])
    _, reports = sched.close_epoch()
    assert len(reports) == 1 and reports[0] is first


def test_ring_rejects_bad_capacity():
    with pytest.raises(ValueError):
        EpochScheduler(ring_capacity=0)


# ----------------------------------------------------------------------
# scheduler watermark
# ----------------------------------------------------------------------
def test_watermark_requires_every_subscribed_ue():
    sched = EpochScheduler()
    sched.subscribe(0)
    sched.subscribe(1)
    assert not sched.watermark_reached()
    sched.offer(make_report(0, 0))
    assert not sched.watermark_reached()
    sched.offer(make_report(1, 0))
    assert sched.watermark_reached()
    epoch, reports = sched.close_epoch()
    assert epoch == 0
    assert [r.ue for r in reports] == [0, 1]
    assert not sched.watermark_reached()


def test_empty_fleet_never_reaches_watermark():
    sched = EpochScheduler()
    assert not sched.watermark_reached()


def test_out_of_order_reports_buffer_until_their_epoch():
    sched = EpochScheduler()
    sched.subscribe(0)
    # epochs arrive 2, 0, 1
    assert sched.offer(make_report(0, 2)) == "accepted"
    assert not sched.watermark_reached()
    assert sched.offer(make_report(0, 0)) == "accepted"
    assert sched.offer(make_report(0, 1)) == "accepted"
    closed = []
    while sched.watermark_reached():
        epoch, reports = sched.close_epoch()
        closed.append((epoch, [r.epoch for r in reports]))
    assert closed == [(0, [0]), (1, [1]), (2, [2])]


def test_late_reports_are_dropped_and_counted():
    sched = EpochScheduler()
    sched.subscribe(0)
    sched.offer(make_report(0, 0))
    sched.close_epoch()
    assert sched.offer(make_report(0, 0)) == "late"
    assert sched.counters()["late"] == 1
    # the late report did not re-enter any buffer
    assert sched.pending_reports() == 0


def test_unsubscribed_reports_rejected_but_buffered_tail_survives():
    sched = EpochScheduler()
    sched.subscribe(0)
    sched.subscribe(1)
    sched.offer(make_report(0, 0))
    sched.offer(make_report(0, 1))  # buffered ahead
    assert sched.unsubscribe(0)
    # rejected from now on...
    assert sched.offer(make_report(0, 2)) == "rejected"
    # ...but the watermark now only needs UE 1, and UE 0's buffered
    # reports still ride along
    sched.offer(make_report(1, 0))
    assert sched.watermark_reached()
    _, reports = sched.close_epoch()
    assert [r.ue for r in reports] == [0, 1]
    sched.offer(make_report(1, 1))
    _, reports = sched.close_epoch()
    assert [r.ue for r in reports] == [0, 1]
    # tail consumed; only the subscribed UE reports from here on
    sched.offer(make_report(1, 2))
    _, reports = sched.close_epoch()
    assert [r.ue for r in reports] == [1]


def test_duplicate_subscribe_raises():
    sched = EpochScheduler()
    sched.subscribe(3)
    with pytest.raises(ValueError):
        sched.subscribe(3)
    assert not sched.unsubscribe(99)


# ----------------------------------------------------------------------
# service-level close semantics
# ----------------------------------------------------------------------
def test_forced_close_with_partial_fleet():
    service = DecisionService()
    service.subscribe(0)
    service.subscribe(1)
    assert service.submit(make_report(0, 0)) == "accepted"
    # watermark not reached; force the close with half the fleet
    assert service.stats.epochs_closed == 0
    epoch = service.force_close()
    assert epoch == 0
    assert service.stats.epochs_closed == 1
    assert service.stats.forced_closes == 1
    assert service.stats.watermark_closes == 0
    # UE 1's report for the closed epoch is now late
    assert service.submit(make_report(1, 0)) == "late"
    assert service.stats.reports_late == 1
    # UE 0 advanced one local epoch, UE 1 none
    metrics = service.metrics()
    np.testing.assert_array_equal(metrics.epochs_per_ue, [1, 0])


def test_watermark_close_cascades_through_buffered_epochs():
    service = DecisionService()
    service.subscribe(0)
    service.subscribe(1)
    # UE 0 streams three epochs ahead; nothing closes until UE 1 reports
    for k in range(3):
        service.submit(make_report(0, k))
    assert service.stats.epochs_closed == 0
    service.submit(make_report(1, 0))
    assert service.stats.epochs_closed == 1
    service.submit(make_report(1, 1))
    service.submit(make_report(1, 2))
    assert service.stats.epochs_closed == 3
    assert service.stats.watermark_closes == 3


def test_mid_stream_subscribe_starts_at_current_epoch():
    service = DecisionService()
    service.subscribe(0)
    service.submit(make_report(0, 0))
    assert service.stats.epochs_closed == 1
    # a newcomer joins at service epoch 1; its local epoch 0 report is
    # offered against service epochs >= 1 via the UE-local numbering
    service.subscribe(7)
    assert service.submit(make_report(7, 1)) == "accepted"
    service.submit(make_report(0, 1))
    assert service.stats.epochs_closed == 2
    metrics = service.metrics()
    # subscription order: UE 0 then UE 7
    np.testing.assert_array_equal(metrics.epochs_per_ue, [2, 1])


def test_resubscribe_continues_retained_state():
    service = DecisionService()
    service.subscribe(0)
    service.submit(make_report(0, 0))
    service.unsubscribe(0)
    assert service.stats.epochs_closed == 1
    service.subscribe(0)  # rejoins the watermark, state intact
    service.submit(make_report(0, 1))
    assert service.stats.epochs_closed == 2
    np.testing.assert_array_equal(service.metrics().epochs_per_ue, [2])


def test_bad_power_vector_rejected_before_buffering():
    service = DecisionService()
    service.subscribe(0)
    bad = Report(
        ue=0,
        epoch=0,
        position_km=(0.0, 0.0),
        distance_km=0.0,
        power_dbw=np.full(3, -80.0),  # wrong cell count
    )
    with pytest.raises(ValueError, match="cells"):
        service.submit(bad)
    assert service.scheduler.pending_reports() == 0


def test_deadline_close_fires_without_watermark():
    """The server's watchdog force-closes an epoch whose reports have
    been pending longer than the deadline."""
    from repro.serve import ServeClient, ServeServer

    async def run():
        service = DecisionService(epoch_deadline_s=0.05)
        server = ServeServer(service)
        host, port = await server.start()
        try:
            client = ServeClient(host, port)
            await client.connect()
            await client.subscribe(0)
            await client.subscribe(1)
            await client.report(make_report(0, 0))
            # UE 1 never reports epoch 0: only the deadline can close it
            deadline = asyncio.get_event_loop().time() + 5.0
            while True:
                stats = await client.stats()
                if stats["epochs_closed"] >= 1:
                    break
                assert asyncio.get_event_loop().time() < deadline, (
                    "deadline close never fired"
                )
                await asyncio.sleep(0.01)
            assert stats["forced_closes"] >= 1
            assert stats["watermark_closes"] == 0
            await client.close()
        finally:
            await server.stop()

    asyncio.run(run())
