"""Asyncio TCP front-end for the streaming decision service.

One :class:`ServeServer` wraps one :class:`~repro.serve.service.DecisionService`
behind length-prefixed JSON frames (:mod:`repro.serve.protocol`).
Connections are serviced concurrently; each connection's requests are
processed serially, and the service core itself runs on the single event
loop, so no locking is needed and epoch closes stay deterministic.

Request messages (dicts with a ``"type"`` key):

``subscribe``
    ``{"type": "subscribe", "ue": 3, "speed_kmh": 30.0, "cohort":
    "vehicular", "policy": {...}}`` — registers the UE; acked.
``report``
    a :class:`~repro.serve.protocol.Report` payload — **fire and
    forget**, no per-report ack (the hot path); verdict counters are
    visible through ``stats``.
``unsubscribe``
    removes the UE from the epoch watermark; acked.
``listen``
    turns this connection into a command subscriber: after the ack the
    server pushes ``{"type": "commands", "epoch": E, "commands":
    [...]}`` frames until the client disconnects.  The listener queue
    is bounded; a slow consumer sheds oldest epochs (counted) and never
    blocks the decision loop.  An optional ``"capacity"`` sets the
    bound: an integer from 1 to
    :data:`~repro.serve.service.MAX_LISTENER_CAPACITY`, else an
    ``error`` reply and no listener.
``close_epoch``
    forces the current epoch closed; acked with the closed index.
``stats`` / ``metrics`` / ``health``
    snapshot requests; because requests are serial per connection they
    double as flush barriers after a burst of reports.  ``health``
    returns the readiness payload (``ok`` vs ``degraded``).  The
    ``metrics`` reply carries the scalar summary
    (:meth:`~repro.sim.metrics.FleetMetrics.as_dict`) under
    ``"metrics"`` and the exact per-UE arrays and cohort labels
    (:meth:`~repro.sim.metrics.FleetMetrics.to_payload`) under
    ``"fleet"``; both are ``None`` before any epoch has closed.

Each read takes every frame a connection has delivered; the frames are
handled in order, and each run of consecutive reports is validated as
one block (:meth:`~repro.serve.protocol.Report.from_payloads`), so
replies, errors and counters are those of handling the frames one by
one.  A malformed, truncated or non-JSON frame
(:class:`~repro.serve.protocol.FrameError`)
increments ``transport_errors`` and closes *that* connection only; a
semantically invalid request gets an ``error`` reply and likewise closes
only its own connection.  Either way the reports before it are
submitted, nothing after it is processed, and the epoch scheduler is
otherwise untouched — the fault-injection tests pin that a client dying
mid-frame cannot stall or kill the service.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
from typing import Optional

from ..sim.metrics import FleetMetrics
from ..wire import FrameReader
from .protocol import (
    FrameError,
    Report,
    check_index,
    read_frame,
    typed_messages,
    write_frame,
)
from .service import MAX_LISTENER_CAPACITY, DecisionService, check_capacity

__all__ = ["ServeServer", "ServeClient", "DEADLINE_POLL_S"]

logger = logging.getLogger("repro.serve")

#: How often the deadline watchdog checks the current epoch's age.
DEADLINE_POLL_S = 0.005


class ServeServer:
    """TCP server around one :class:`DecisionService`."""

    def __init__(
        self,
        service: DecisionService,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.base_events.Server] = None
        self._watchdog: Optional[asyncio.Task] = None

    @property
    def address(self) -> tuple[str, int]:
        if self._server is None:
            raise RuntimeError("server is not started")
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    async def start(self) -> tuple[str, int]:
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        if self.service.epoch_deadline_s is not None:
            self._watchdog = asyncio.ensure_future(self._deadline_watchdog())
        return self.address

    async def serve_forever(self) -> None:
        assert self._server is not None
        async with self._server:
            await self._server.serve_forever()

    async def stop(self) -> None:
        if self._watchdog is not None:
            self._watchdog.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._watchdog
            self._watchdog = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _deadline_watchdog(self) -> None:
        """Force-close the current epoch once it has had reports pending
        longer than the service deadline (the timer half of the
        watermark-or-timer close rule)."""
        while True:
            await asyncio.sleep(DEADLINE_POLL_S)
            while self.service.deadline_expired():
                epoch = self.service.force_close()
                logger.debug("deadline close of epoch %d", epoch)

    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername")
        self.service.stats.connections_total += 1
        frames = FrameReader(reader)
        listener = None
        try:
            while payloads := await frames.read_payloads():
                listen = await self._dispatch(payloads, writer)
                if listen is not None:
                    capacity = listen.get("capacity")
                    if capacity is not None:
                        capacity = check_capacity(
                            "capacity", capacity, MAX_LISTENER_CAPACITY
                        )
                    listener = self.service.attach_listener(capacity)
                    await write_frame(writer, {"type": "ok"})
                    await self._drain_listener(listener, writer)
                    break
        except (KeyError, TypeError, ValueError) as exc:
            logger.warning("protocol error from %s: %s", peer, exc)
            with contextlib.suppress(Exception):
                await write_frame(writer, {"type": "error", "error": str(exc)})
        except FrameError as exc:
            self.service.stats.transport_errors += 1
            logger.warning("transport error from %s: %s", peer, exc)
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            if listener is not None:
                self.service.detach_listener(listener)
            # close() is enough; awaiting wait_closed() here would raise
            # spurious CancelledErrors when the server shuts down while
            # handlers are parked in read_payloads
            writer.close()

    async def _dispatch(
        self, payloads: list[bytes], writer: asyncio.StreamWriter
    ) -> Optional[dict]:
        """Handle one read's frames in order.  Consecutive reports
        collect into a run, validated and submitted as one block before
        the next other message, before a later bad frame's error, and at
        the end of the read.  Stops at a ``listen`` request and returns
        it (the frames after it are ignored), else returns ``None``."""
        run: list[dict] = []
        try:
            for message in typed_messages(payloads):
                kind = message["type"]
                if kind == "report":
                    run.append(message)  # hot path: no ack
                    continue
                self._submit(run)
                run = []
                if kind == "subscribe":
                    self.service.subscribe(
                        message["ue"],
                        speed_kmh=message.get("speed_kmh", 0.0),
                        cohort=message.get("cohort"),
                        policy=message.get("policy"),
                    )
                    reply = {"type": "ok"}
                elif kind == "unsubscribe":
                    removed = self.service.unsubscribe(message["ue"])
                    reply = {"type": "ok", "removed": removed}
                elif kind == "close_epoch":
                    epoch = self.service.force_close()
                    reply = {"type": "ok", "epoch": epoch}
                elif kind == "stats":
                    stats = self.service.stats_payload()
                    reply = {"type": "stats", "stats": stats}
                elif kind == "health":
                    health = self.service.health_payload()
                    reply = {"type": "health", "health": health}
                elif kind == "metrics":
                    reply = self._metrics_reply()
                elif kind == "listen":
                    return message
                else:
                    raise ValueError(f"unknown message type {kind!r}")
                await write_frame(writer, reply)
        except FrameError:
            self._submit(run)
            raise
        self._submit(run)
        return None

    def _submit(self, run: list[dict]) -> None:
        """Submit a run's valid prefix, then raise the first invalid
        report's error."""
        reports, error = Report.from_payloads(run)
        submit = self.service.submit
        for report in reports:
            submit(report)
        if error is not None:
            raise error

    def _metrics_reply(self) -> dict:
        try:
            metrics = self.service.metrics()
        except ValueError as exc:
            return {"type": "metrics", "metrics": None, "fleet": None,
                    "error": str(exc)}
        return {"type": "metrics", "metrics": metrics.as_dict(),
                "fleet": metrics.to_payload()}

    async def _drain_listener(self, listener, writer) -> None:
        while True:
            batches = await listener.get_all()
            if not batches:
                return
            for batch in batches:
                await write_frame(
                    writer,
                    {
                        "type": "commands",
                        "epoch": batch.epoch,
                        "dropped": listener.dropped,
                        "commands": [
                            c.to_payload() for c in batch.commands
                        ],
                    },
                )


class ServeClient:
    """Minimal asyncio client for one server connection."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = int(port)
        self._frames: Optional[FrameReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def connect(self) -> "ServeClient":
        reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        self._frames = FrameReader(reader)
        return self

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            with contextlib.suppress(Exception):
                await self._writer.wait_closed()
            self._writer = None
            self._frames = None

    async def _send(self, message: dict) -> None:
        assert self._writer is not None, "client is not connected"
        await write_frame(self._writer, message)

    async def _recv(self) -> dict:
        assert self._frames is not None, "client is not connected"
        message = await read_frame(self._frames)
        if message is None:
            raise ConnectionError("server closed the connection")
        if isinstance(message, dict) and message.get("type") == "error":
            raise ValueError(f"server error: {message.get('error')}")
        return message

    async def subscribe(
        self,
        ue: int,
        speed_kmh: float = 0.0,
        cohort: Optional[str] = None,
        policy: Optional[dict] = None,
    ) -> dict:
        msg = {
            "type": "subscribe",
            "ue": check_index("ue", ue),
            "speed_kmh": speed_kmh,
        }
        if cohort is not None:
            msg["cohort"] = cohort
        if policy is not None:
            msg["policy"] = policy
        await self._send(msg)
        return await self._recv()

    async def report(self, report: Report) -> None:
        """Fire-and-forget; pair with :meth:`stats` as a flush barrier."""
        await self._send(report.to_payload())

    async def unsubscribe(self, ue: int) -> dict:
        await self._send({"type": "unsubscribe", "ue": check_index("ue", ue)})
        return await self._recv()

    async def close_epoch(self) -> int:
        await self._send({"type": "close_epoch"})
        reply = await self._recv()
        return reply["epoch"]

    async def stats(self) -> dict:
        await self._send({"type": "stats"})
        reply = await self._recv()
        return reply["stats"]

    async def health(self) -> dict:
        """The service's health/readiness payload (``status`` is
        ``"ok"`` or ``"degraded"``)."""
        await self._send({"type": "health"})
        reply = await self._recv()
        return reply["health"]

    async def metrics(self) -> Optional[FleetMetrics]:
        """The service's exact fleet metrics (per-UE arrays and cohort
        labels included), or ``None`` before any epoch has closed."""
        await self._send({"type": "metrics"})
        reply = await self._recv()
        fleet = reply["fleet"]
        return None if fleet is None else FleetMetrics.from_payload(fleet)

    async def listen(self, capacity: Optional[int] = None) -> None:
        msg: dict = {"type": "listen"}
        if capacity is not None:
            msg["capacity"] = capacity
        await self._send(msg)
        await self._recv()

    async def next_commands(self) -> dict:
        """One ``commands`` frame from a ``listen``-mode connection."""
        return await self._recv()
