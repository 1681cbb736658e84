"""Bounded-queue backpressure: slow consumers shed, never block.

A command listener has a fixed capacity; when its consumer falls
behind, the *oldest* pending epoch batches are dropped and counted, and
the decision loop's throughput and latency bookkeeping are untouched.
Disconnecting a TCP listener (or report client) must not stall the
epoch scheduler either.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.sim import SimulationParameters
from repro.serve import (
    MAX_LISTENER_CAPACITY,
    CommandListener,
    DecisionService,
    EpochCommands,
    Report,
    ServeClient,
    ServeServer,
)

pytestmark = pytest.mark.serve

N_CELLS = SimulationParameters().make_layout().n_cells


def make_report(ue: int, epoch: int) -> Report:
    powers = np.linspace(-120.0, -70.0, N_CELLS)
    return Report(
        ue=ue,
        epoch=epoch,
        position_km=(1.0 + 0.05 * epoch, 1.0),
        distance_km=0.05 * epoch,
        power_dbw=powers,
    )


def drive_epochs(service: DecisionService, n_epochs: int, ue: int = 0):
    for k in range(n_epochs):
        service.submit(make_report(ue, k))


# ----------------------------------------------------------------------
# listener-level shedding
# ----------------------------------------------------------------------
def test_listener_sheds_oldest_first():
    listener = CommandListener(capacity=3)
    for epoch in range(5):
        listener.push(EpochCommands(epoch=epoch, commands=()))
    assert listener.dropped == 2
    assert [b.epoch for b in listener.pop_all()] == [2, 3, 4]


def test_listener_push_never_blocks_without_consumer():
    listener = CommandListener(capacity=1)
    for epoch in range(100):
        listener.push(EpochCommands(epoch=epoch, commands=()))
    assert listener.dropped == 99
    assert listener.pending() == 1


#: capacities no listener takes, in process or on the wire: below one,
#: or not an integer
BAD_CAPACITIES = {
    "zero": 0,
    "negative": -3,
    "float": 2.5,
    "bool": True,
    "string": "8",
}

#: capacities only a wire ``listen`` is refused
PAST_BOUND_CAPACITIES = {
    "past-bound": MAX_LISTENER_CAPACITY + 1,
    "huge": 10**12,
}


def test_listener_capacity_validated():
    """Each bad capacity is refused by name with the allowed range, and
    a refused attach leaves no listener behind."""
    service = DecisionService()
    for capacity in BAD_CAPACITIES.values():
        with pytest.raises(ValueError, match="^capacity must be an integer >= 1"):
            CommandListener(capacity=capacity)
        with pytest.raises(ValueError, match="^capacity must be an integer >= 1"):
            service.attach_listener(capacity)
        with pytest.raises(
            ValueError, match="^listener_capacity must be an integer >= 1"
        ):
            DecisionService(listener_capacity=capacity)
    assert service.n_listeners == 0


def test_in_process_listener_capacity_has_no_upper_bound():
    """Only the wire holds a listener to ``MAX_LISTENER_CAPACITY``: in
    process a replay that keeps every epoch attaches ``max_epochs + 1``,
    whatever the trace's length."""
    service = DecisionService(listener_capacity=MAX_LISTENER_CAPACITY + 1)
    listener = service.attach_listener()
    for epoch in range(MAX_LISTENER_CAPACITY + 1):
        listener.push(EpochCommands(epoch=epoch, commands=()))
    assert listener.dropped == 0
    assert listener.pending() == MAX_LISTENER_CAPACITY + 1
    assert service.attach_listener(10**12).capacity == 10**12
    listener = service.attach_listener(np.int64(5))
    assert type(listener.capacity) is int and listener.capacity == 5


def test_slow_consumer_does_not_affect_decision_loop():
    service = DecisionService()
    service.subscribe(0)
    fast = service.attach_listener(capacity=1024)
    slow = service.attach_listener(capacity=4)  # nobody drains it

    drive_epochs(service, 32)

    assert service.stats.epochs_closed == 32
    assert service.latency_summary()["count"] == 32
    # the slow listener shed, oldest first; the fast one kept everything
    assert slow.dropped == 32 - 4
    assert [b.epoch for b in slow.pop_all()] == [28, 29, 30, 31]
    assert fast.dropped == 0
    assert [b.epoch for b in fast.pop_all()] == list(range(32))
    assert service.stats.commands_dropped == 28


def test_detach_listener_stops_fanout():
    service = DecisionService()
    service.subscribe(0)
    listener = service.attach_listener()
    drive_epochs(service, 2)
    service.detach_listener(listener)
    assert listener.closed
    before = listener.pending()
    service.submit(make_report(0, 2))
    assert listener.pending() == before
    # double-detach is a no-op
    service.detach_listener(listener)


def test_async_get_all_drains_and_ends_on_close():
    async def run():
        listener = CommandListener(capacity=8)
        listener.push(EpochCommands(epoch=0, commands=()))
        batches = await listener.get_all()
        assert [b.epoch for b in batches] == [0]

        async def close_soon():
            await asyncio.sleep(0.01)
            listener.close()

        closer = asyncio.ensure_future(close_soon())
        assert await listener.get_all() == []
        await closer

    asyncio.run(run())


# ----------------------------------------------------------------------
# TCP listeners and churn
# ----------------------------------------------------------------------
def test_tcp_listener_receives_commands_and_drop_counter():
    async def run():
        service = DecisionService()
        server = ServeServer(service)
        host, port = await server.start()
        try:
            feeder = await ServeClient(host, port).connect()
            await feeder.subscribe(0, speed_kmh=10.0)

            watcher = await ServeClient(host, port).connect()
            await watcher.listen(capacity=64)

            for k in range(5):
                await feeder.report(make_report(0, k))
            await feeder.stats()  # flush barrier

            seen = []
            while len(seen) < 5:
                frame = await asyncio.wait_for(
                    watcher.next_commands(), timeout=5.0
                )
                assert frame["type"] == "commands"
                assert frame["dropped"] == 0
                seen.append(frame["epoch"])
            assert seen == list(range(5))

            await watcher.close()
            await feeder.close()
        finally:
            await server.stop()

    asyncio.run(run())


WIRE_BAD_CAPACITIES = {**BAD_CAPACITIES, **PAST_BOUND_CAPACITIES}


@pytest.mark.parametrize("case", WIRE_BAD_CAPACITIES)
def test_wire_listen_capacity_refused_before_attaching(case):
    """A refused ``listen`` gets an ``error`` reply naming the field and
    its range, no listener is attached, and the fleet keeps closing
    epochs."""
    capacity = WIRE_BAD_CAPACITIES[case]
    refusal = (
        f"capacity must be an integer from 1 to {MAX_LISTENER_CAPACITY}"
    )

    async def run():
        service = DecisionService()
        server = ServeServer(service)
        host, port = await server.start()
        try:
            feeder = await ServeClient(host, port).connect()
            await feeder.subscribe(0)
            watcher = await ServeClient(host, port).connect()
            try:
                with pytest.raises(ValueError, match=refusal):
                    await watcher.listen(capacity=capacity)
                assert service.n_listeners == 0
            finally:
                await watcher.close()
            for k in range(3):
                await feeder.report(make_report(0, k))
            stats = await feeder.stats()
            await feeder.close()
            return stats
        finally:
            await server.stop()

    stats = asyncio.run(run())
    assert stats["epochs_closed"] == 3
    assert stats["commands_dropped"] == 0


def test_wire_listen_capacity_bound_is_inclusive():
    async def run():
        service = DecisionService()
        attached = []
        attach = service.attach_listener

        def spy(capacity=None):
            attached.append(attach(capacity))
            return attached[-1]

        service.attach_listener = spy
        server = ServeServer(service)
        host, port = await server.start()
        try:
            watcher = await ServeClient(host, port).connect()
            await watcher.listen(capacity=MAX_LISTENER_CAPACITY)
            await watcher.close()
        finally:
            await server.stop()
        return attached

    attached = asyncio.run(run())
    assert [listener.capacity for listener in attached] == [
        MAX_LISTENER_CAPACITY
    ]


def test_listener_disconnect_does_not_stall_the_scheduler():
    async def run():
        service = DecisionService()
        server = ServeServer(service)
        host, port = await server.start()
        try:
            feeder = await ServeClient(host, port).connect()
            await feeder.subscribe(0)

            watcher = await ServeClient(host, port).connect()
            await watcher.listen()
            # the watcher vanishes without reading a single command
            await watcher.close()

            for k in range(10):
                await feeder.report(make_report(0, k))
            stats = await feeder.stats()
            assert stats["epochs_closed"] == 10
            # the dead listener is eventually detached by its handler
            deadline = asyncio.get_event_loop().time() + 5.0
            while service.n_listeners and (
                asyncio.get_event_loop().time() < deadline
            ):
                await asyncio.sleep(0.01)
            assert service.n_listeners == 0
            await feeder.close()
        finally:
            await server.stop()

    asyncio.run(run())


def test_report_client_reconnect_continues_the_stream():
    async def run():
        service = DecisionService()
        server = ServeServer(service)
        host, port = await server.start()
        try:
            first = await ServeClient(host, port).connect()
            await first.subscribe(0)
            for k in range(3):
                await first.report(make_report(0, k))
            await first.stats()
            await first.close()

            # same UE resumes on a new connection; no re-subscribe
            # needed (the watermark kept it) and no state lost
            second = await ServeClient(host, port).connect()
            for k in range(3, 6):
                await second.report(make_report(0, k))
            stats = await second.stats()
            assert stats["epochs_closed"] == 6
            assert stats["reports_accepted"] == 6
            assert stats["connections_total"] == 2
            metrics = await second.metrics()
            np.testing.assert_array_equal(metrics.epochs_per_ue, [6])
            await second.close()
        finally:
            await server.stop()

    asyncio.run(run())
