"""Transport-layer fault injection for the serve front-end.

Drives misbehaving clients from the shared
:class:`~repro.resilience.faults.FaultPlan` runtime (``"frame"``-scope
rules: abrupt exits, truncated and undecodable frames, silent hangs) —
plus raw-socket cases the plan can't express (garbage and oversized
length prefixes, half a header, a pickle payload).  In every case the
server counts the error, closes *that* connection only, and keeps
serving healthy clients — a dying client can never kill or stall the
decision loop.
"""

from __future__ import annotations

import asyncio
import json
import pickle
import struct

import numpy as np
import pytest

from repro.sim import SimulationParameters
from repro.resilience import FaultPlan, FaultRule, misbehaving_client
from repro.serve import (
    DecisionService,
    Report,
    ServeClient,
    ServeServer,
    encode_frame,
)
from repro.serve.protocol import MAX_FRAME_BYTES, decode_payload, read_frame
from repro.wire import FrameError, FrameReader, frame

pytestmark = pytest.mark.serve

N_CELLS = SimulationParameters().make_layout().n_cells


def make_report(ue: int, epoch: int) -> Report:
    return Report(
        ue=ue,
        epoch=epoch,
        position_km=(1.0, 1.0),
        distance_km=0.05 * epoch,
        power_dbw=np.linspace(-120.0, -70.0, N_CELLS),
    )


def frame_plan(mode: str, after: int = 2, seed: int = 3) -> FaultPlan:
    """A one-rule frame-chaos plan: ``after`` good frames, then
    misbehave."""
    return FaultPlan(
        seed=seed,
        rules=(FaultRule(scope="frame", mode=mode, after=after),),
    )


async def _send_ok(writer, message) -> None:
    writer.write(encode_frame(message))
    await writer.drain()


async def _open(host, port):
    """A raw connection: its frame reader and its writer."""
    reader, writer = await asyncio.open_connection(host, port)
    return FrameReader(reader), writer


async def _read_reply(frames):
    message = await read_frame(frames)
    assert message is not None
    return message


def run_with_server(coro_factory):
    async def run():
        service = DecisionService()
        server = ServeServer(service)
        host, port = await server.start()
        try:
            await coro_factory(service, host, port)
        finally:
            await server.stop()

    asyncio.run(run())


async def _await_transport_errors(service, n: int) -> None:
    deadline = asyncio.get_event_loop().time() + 5.0
    while service.stats.transport_errors < n:
        assert asyncio.get_event_loop().time() < deadline, (
            f"transport_errors stuck at {service.stats.transport_errors}, "
            f"wanted {n}"
        )
        await asyncio.sleep(0.01)


@pytest.mark.parametrize("mode", ["exit", "drop", "corrupt", "hang"])
def test_faulty_client_cannot_stall_healthy_traffic(mode):
    """A client that dies/truncates/corrupts/hangs mid-stream: healthy
    clients' reports keep closing epochs, and bad frames are counted."""

    async def scenario(service, host, port):
        injector = await misbehaving_client(
            host, port, frame_plan(mode), [make_report(990, k) for k in range(3)], ue=990
        )
        # the plan fired exactly its one rule — the determinism handle
        assert injector.counters() == {"events": 2, "fired": {0: 1}}
        if mode in ("drop", "corrupt"):
            await _await_transport_errors(service, 1)

        healthy = await ServeClient(host, port).connect()
        await healthy.subscribe(1)
        for k in range(4):
            await healthy.report(make_report(1, k))
        stats = await healthy.stats()
        assert stats["reports_accepted"] >= 4
        # UE 990 left the watermark? No — it never unsubscribed.  Its
        # silence must not stall UE 1's epochs: epoch closes here are
        # *forced* by the healthy client if needed.
        while stats["pending_reports"] > 0:
            await healthy.close_epoch()
            stats = await healthy.stats()
        assert stats["epochs_closed"] >= 4
        await healthy.close()

    run_with_server(scenario)


def test_truncated_header_counts_as_transport_error():
    async def scenario(service, host, port):
        _reader, writer = await asyncio.open_connection(host, port)
        writer.write(b"\x00\x00")  # half a length prefix
        await writer.drain()
        writer.close()
        await _await_transport_errors(service, 1)

    run_with_server(scenario)


def test_garbage_length_prefix_closes_only_that_connection():
    async def scenario(service, host, port):
        _reader, writer = await asyncio.open_connection(host, port)
        # length prefix far beyond MAX_FRAME_BYTES
        writer.write(struct.pack(">I", MAX_FRAME_BYTES + 1))
        writer.write(b"junk")
        await writer.drain()
        await _await_transport_errors(service, 1)
        writer.close()

        healthy = await ServeClient(host, port).connect()
        await healthy.subscribe(0)
        await healthy.report(make_report(0, 0))
        stats = await healthy.stats()
        assert stats["epochs_closed"] == 1
        await healthy.close()

    run_with_server(scenario)


def test_zero_length_frame_is_a_transport_error():
    async def scenario(service, host, port):
        _reader, writer = await asyncio.open_connection(host, port)
        writer.write(struct.pack(">I", 0))
        await writer.drain()
        await _await_transport_errors(service, 1)
        writer.close()

    run_with_server(scenario)


class _CreatesFile:
    """Unpickling this opens ``path`` for writing, creating the file."""

    def __init__(self, path) -> None:
        self.path = path

    def __reduce__(self):
        return open, (str(self.path), "w")


def test_pickle_frame_is_refused_before_unpickling(tmp_path):
    marker = tmp_path / "unpickled"

    async def scenario(service, host, port):
        _reader, writer = await asyncio.open_connection(host, port)
        writer.write(frame(b"P" + pickle.dumps(_CreatesFile(marker))))
        await writer.drain()
        await _await_transport_errors(service, 1)
        writer.close()

        healthy = await ServeClient(host, port).connect()
        await healthy.subscribe(0)
        await healthy.report(make_report(0, 0))
        stats = await healthy.stats()
        assert stats["epochs_closed"] == 1
        assert stats["transport_errors"] == 1
        await healthy.close()

    run_with_server(scenario)
    assert not marker.exists()


def test_serve_frames_are_tagged_json_only():
    message = {"type": "stats"}
    body = b"J" + json.dumps(message).encode("utf-8")
    assert encode_frame(message) == struct.pack(">I", len(body)) + body
    assert decode_payload(body) == (message, "json")
    with pytest.raises(ValueError, match="codec"):
        encode_frame(message, "pickle")
    with pytest.raises(FrameError, match="codec tag"):
        decode_payload(b"P" + pickle.dumps(message))


def test_undecodable_body_is_a_transport_error():
    async def scenario(service, host, port):
        _reader, writer = await asyncio.open_connection(host, port)
        body = b"Jnot json at all"
        writer.write(struct.pack(">I", len(body)) + body)
        await writer.drain()
        await _await_transport_errors(service, 1)
        writer.close()

    run_with_server(scenario)


#: JSON bodies the decoder refuses with something other than a
#: ``JSONDecodeError``: an integer past Python's digit limit for int
#: parsing, and arrays nested past the recursion limit.
UNPARSABLE = {
    "long-integer": b"J" + b"7" * 5000,
    "deep-nesting": b"J" + b"[" * 100_000 + b"]" * 100_000,
}


@pytest.mark.parametrize("body", UNPARSABLE.values(), ids=UNPARSABLE)
def test_json_past_the_decoder_limits_is_a_transport_error(body):
    with pytest.raises(FrameError, match="undecodable"):
        decode_payload(body)

    async def scenario(service, host, port):
        _reader, writer = await asyncio.open_connection(host, port)
        writer.write(frame(body))
        await writer.drain()
        await _await_transport_errors(service, 1)
        writer.close()

    run_with_server(scenario)


def test_unknown_message_type_gets_error_reply():
    async def scenario(service, host, port):
        frames, writer = await _open(host, port)
        await _send_ok(writer, {"type": "frobnicate"})
        reply = await _read_reply(frames)
        assert reply["type"] == "error"
        assert "frobnicate" in reply["error"]
        writer.close()
        # a protocol error is not a transport error
        assert service.stats.transport_errors == 0

    run_with_server(scenario)


def test_malformed_report_payload_gets_error_reply():
    async def scenario(service, host, port):
        frames, writer = await _open(host, port)
        await _send_ok(writer, {"type": "subscribe", "ue": 0})
        await _read_reply(frames)
        await _send_ok(
            writer, {"type": "report", "ue": 0}  # missing every field
        )
        reply = await _read_reply(frames)
        assert reply["type"] == "error"
        writer.close()
        # nothing was buffered
        assert service.scheduler.pending_reports() == 0

    run_with_server(scenario)


def test_wrong_cell_count_report_rejected_not_buffered():
    async def scenario(service, host, port):
        frames, writer = await _open(host, port)
        await _send_ok(writer, {"type": "subscribe", "ue": 0})
        await _read_reply(frames)
        payload = make_report(0, 0).to_payload()
        payload["power_dbw"] = payload["power_dbw"][:3]
        await _send_ok(writer, payload)
        reply = await _read_reply(frames)
        assert reply["type"] == "error"
        assert service.scheduler.pending_reports() == 0
        writer.close()

        # the fleet is unharmed: the same UE can report correctly on a
        # fresh connection
        healthy = await ServeClient(host, port).connect()
        await healthy.report(make_report(0, 0))
        stats = await healthy.stats()
        assert stats["epochs_closed"] == 1
        await healthy.close()

    run_with_server(scenario)
