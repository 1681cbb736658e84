"""Batched serve-wire ingest: one read takes every buffered frame.

:class:`~repro.wire.FrameReader` hands out every complete frame a
connection has delivered, keeps the partial tail, and refuses a bad
length as soon as its prefix is in.  The server then handles one read's
frames in order, validating each run of reports as one block.  These
tests pin that clients see what per-frame handling gave them: the
reports before a bad frame or an invalid report are submitted, the
frame's own error or reply follows, and nothing after it is processed.
"""

from __future__ import annotations

import asyncio
import math
import struct

import numpy as np
import pytest

from repro.serve import DecisionService, Report, ServeServer, encode_frame
from repro.serve.protocol import read_frame
from repro.sim import SimulationParameters
from repro.wire import (
    MAX_FRAME_BYTES,
    READ_CHUNK_BYTES,
    FrameError,
    FrameReader,
    frame,
)

pytestmark = pytest.mark.serve

N_CELLS = SimulationParameters().make_layout().n_cells


def report(ue: int, epoch: int = 0, **fields) -> dict:
    payload = Report(
        ue=ue,
        epoch=epoch,
        position_km=(1.0, 1.0),
        distance_km=0.05 * (epoch + 1),
        power_dbw=np.linspace(-120.0, -70.0, N_CELLS),
    ).to_payload()
    return {**payload, **fields}


# ----------------------------------------------------------------------
# the splitter
# ----------------------------------------------------------------------
def split(pieces, *, eof=True, calls=1, limit=None):
    """Feed ``pieces`` to a stream, then collect ``calls`` results of
    ``read_payloads(limit)`` (an exception ends the list)."""

    async def run():
        stream = asyncio.StreamReader()
        for piece in pieces:
            stream.feed_data(piece)
        if eof:
            stream.feed_eof()
        frames = FrameReader(stream)
        out = []
        for _ in range(calls):
            try:
                out.append(
                    await asyncio.wait_for(frames.read_payloads(limit), 2.0)
                )
            except FrameError as exc:
                out.append(exc)
                break
        return out

    return asyncio.run(run())


def test_one_read_takes_every_complete_frame():
    frames = [frame(b"a" * n) for n in (1, 7, 300)]
    tail = frame(b"tail")
    got = split([b"".join(frames) + tail[:3]], eof=False)
    assert got == [[b"a", b"a" * 7, b"a" * 300]]


def test_partial_tail_completes_on_a_later_read():
    body = frame(b"xyz" * 50)
    pieces = [body[:2], body[2:9], body[9:]]
    assert split(pieces, calls=2) == [[b"xyz" * 50], []]


def test_limit_hands_out_one_frame_per_call():
    got = split([frame(b"1") + frame(b"2") + frame(b"3")], calls=4, limit=1)
    assert got == [[b"1"], [b"2"], [b"3"], []]


def test_frame_larger_than_a_read_chunk_arrives_whole():
    body = bytes(range(256)) * (3 * READ_CHUNK_BYTES // 256 + 1)
    data = frame(body) + frame(b"next")
    pieces = [data[i:i + 7000] for i in range(0, len(data), 7000)]
    assert split(pieces, calls=2) == [[body, b"next"], []]


@pytest.mark.parametrize(
    "length, reason", [(0, "zero-length"), (MAX_FRAME_BYTES + 1, "exceeds")]
)
def test_bad_length_is_refused_before_its_body(length, reason):
    # no body byte and no EOF follow: waiting for either would time out
    (got,) = split([struct.pack(">I", length)], eof=False)
    assert isinstance(got, FrameError) and reason in str(got)


def test_bad_length_after_good_frames_raises_on_the_next_read():
    data = frame(b"ok") + struct.pack(">I", MAX_FRAME_BYTES + 1)
    first, second = split([data], eof=False, calls=2)
    assert first == [b"ok"]
    assert isinstance(second, FrameError) and "exceeds" in str(second)


@pytest.mark.parametrize(
    "data, reason",
    [
        (b"\x00\x00", "mid-header (2/4"),
        (frame(b"abcdef")[:7], "mid-frame (3/6"),
    ],
    ids=["header", "body"],
)
def test_eof_mid_frame_is_a_frame_error(data, reason):
    (got,) = split([data])
    assert isinstance(got, FrameError) and reason in str(got)


def test_clean_eof_ends_the_stream_for_good():
    assert split([frame(b"last")], calls=3) == [[b"last"], [], []]


# ----------------------------------------------------------------------
# ordering within one TCP write
# ----------------------------------------------------------------------
def run_with_server(scenario):
    async def run():
        service = DecisionService()
        server = ServeServer(service)
        host, port = await server.start()
        try:
            return service, await scenario(service, host, port)
        finally:
            await server.stop()

    return asyncio.run(run())


async def exchange(host, port, data: bytes, *, until_eof=True) -> list:
    """Send ``data`` in one write; the replies until the server closes
    the connection (or, with ``until_eof=False``, the first one)."""
    reader, writer = await asyncio.open_connection(host, port)
    frames = FrameReader(reader)
    replies = []
    try:
        writer.write(data)
        await writer.drain()
        while True:
            try:
                reply = await asyncio.wait_for(read_frame(frames), 5.0)
            except ConnectionResetError:
                break
            if reply is None:
                break
            replies.append(reply)
            if not until_eof:
                break
    finally:
        writer.close()
    return replies


BAD_FRAMES = {
    "undecodable": (frame(b"Jnot json at all"), None),
    "over-cap-prefix": (struct.pack(">I", MAX_FRAME_BYTES + 1), None),
    "json-non-dict": (frame(b"J[1, 2]"), None),
    "report-missing-field": (
        encode_frame({
            key: value for key, value in report(2).items()
            if key != "distance_km"
        }),
        "invalid report payload: 'distance_km'",
    ),
    "report-wrong-cells": (
        encode_frame(report(2, power_dbw=[-80.0] * 3)),
        f"UE 2 reported 3 cells, layout has {N_CELLS}",
    ),
}


@pytest.mark.parametrize("bad", BAD_FRAMES)
def test_one_write_stops_at_its_bad_frame(bad):
    """``[report UE 0, X, report UE 1]`` in one write: UE 0's report is
    accepted, X gets its transport error or ``error`` reply, and UE 1's
    report is never offered."""
    data, error = BAD_FRAMES[bad]

    async def scenario(service, host, port):
        for ue in (0, 1, 2):  # nobody's report closes epoch 0
            service.subscribe(ue)
        return await exchange(
            host, port,
            encode_frame(report(0)) + data + encode_frame(report(1)),
        )

    service, replies = run_with_server(scenario)
    assert service.stats.reports_accepted == 1
    assert service.scheduler.counters() == {
        "accepted": 1, "late": 0, "duplicate": 0, "overflow": 0,
        "rejected": 0,
    }
    assert service.scheduler.pending_reports() == 1
    if error is None:
        assert replies == []
        assert service.stats.transport_errors == 1
    else:
        assert replies == [{"type": "error", "error": error}]
        assert service.stats.transport_errors == 0


def test_one_write_bad_report_first_in_its_run():
    """The invalid report opens the run: nothing is accepted."""

    async def scenario(service, host, port):
        service.subscribe(0)
        service.subscribe(1)
        return await exchange(
            host, port,
            encode_frame(report(0, distance_km=math.inf))
            + encode_frame(report(1)),
        )

    service, replies = run_with_server(scenario)
    assert replies == [{
        "type": "error",
        "error": "invalid report payload: distance_km must be finite",
    }]
    assert service.scheduler.counters()["accepted"] == 0


def test_subscribe_between_report_runs_takes_effect_between_them():
    async def scenario(service, host, port):
        return await exchange(
            host, port,
            encode_frame(report(5))  # before the subscribe: rejected
            + encode_frame({"type": "subscribe", "ue": 5})
            + encode_frame(report(5))  # after it: accepted, closes epoch 0
            + encode_frame({"type": "stats"}),
            until_eof=False,
        )

    service, replies = run_with_server(scenario)
    (ack,) = replies
    assert ack == {"type": "ok"}
    stats = service.stats
    assert (stats.reports_rejected, stats.reports_accepted) == (1, 1)
    assert stats.epochs_closed == stats.watermark_closes == 1


def test_reports_of_one_write_close_epochs_as_frames_did():
    """A write holding three epochs of two UEs' reports closes each epoch
    on its watermark, in order, as per-frame handling did."""

    async def scenario(service, host, port):
        listener = service.attach_listener()
        data = b"".join(
            encode_frame(report(ue, epoch))
            for epoch in range(3) for ue in (0, 1)
        )
        for ue in (0, 1):
            service.subscribe(ue)
        replies = await exchange(
            host, port, data + encode_frame({"type": "stats"}),
            until_eof=False,
        )
        return replies, [batch.epoch for batch in listener.pop_all()]

    service, (replies, epochs) = run_with_server(scenario)
    assert replies[0]["type"] == "stats"
    assert replies[0]["stats"]["reports_accepted"] == 6
    assert epochs == [0, 1, 2]
    assert service.stats.watermark_closes == 3
