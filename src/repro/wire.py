"""The one wire layer of both TCP services.

The worker wire (:mod:`repro.sim.distributed`) and the decision-service
wire (:mod:`repro.serve.protocol`) frame every message the same way: a
4-byte big-endian payload length, then the payload (an untagged pickle
on the worker wire, ``J`` plus UTF-8 JSON on the serve wire).  Only this
module packs or parses that prefix.  Both readers (:func:`recv_payload`
on a blocking socket, :class:`FrameReader` on an asyncio stream) refuse a
zero or over-cap length as soon as its prefix is in, before reading any
body byte.  :class:`FrameError` is a :class:`ConnectionError`, so
transport-failure handlers catch it too.
"""

from __future__ import annotations

import asyncio
import os
import re
import socket
import struct
import subprocess
import sys
from contextlib import contextmanager
from typing import Iterator, Optional, Sequence

__all__ = ["MAX_FRAME_BYTES", "READ_CHUNK_BYTES", "FrameError",
           "FrameReader", "frame", "recv_payload", "local_endpoints"]

_LEN = struct.Struct(">I")

#: Hard ceiling on one frame's payload on both wires: a measurement
#: report is a few hundred bytes, a fleet shard or a full-fleet metrics
#: reply a few MiB; anything larger is a corrupt or hostile length prefix.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Bytes :class:`FrameReader` asks its stream for per read: about a
#: hundred measurement reports.
READ_CHUNK_BYTES = 64 * 1024


class FrameError(ConnectionError):
    """A malformed, truncated, oversized or undecodable wire frame."""


def frame(payload: bytes) -> bytes:
    """One complete frame: the length prefix, then ``payload``."""
    if not 0 < len(payload) <= MAX_FRAME_BYTES:
        raise FrameError(
            f"frame payload of {len(payload)} bytes is empty or exceeds "
            f"the {MAX_FRAME_BYTES}-byte limit"
        )
    return _LEN.pack(len(payload)) + payload


def _length(header, offset: int = 0) -> int:
    (length,) = _LEN.unpack_from(header, offset)
    if length == 0:
        raise FrameError("zero-length frame")
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame length {length} exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return length


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray(n)
    view = memoryview(buf)
    while view:
        got = sock.recv_into(view)
        if not got:
            raise FrameError(
                f"peer closed the connection ({n - len(view)}/{n} bytes read)"
            )
        view = view[got:]
    return bytes(buf)


def recv_payload(sock: socket.socket) -> bytes:
    """One frame's payload from a blocking socket.

    Raises :class:`FrameError` on a closed peer or a bad length prefix,
    and :class:`socket.timeout` when the socket's timeout elapses first.
    """
    return _recv_exact(sock, _length(_recv_exact(sock, _LEN.size)))


class FrameReader:
    """Splits an asyncio byte stream into frame payloads.

    Each :meth:`read_payloads` call hands out every complete frame
    buffered so far, reading one :data:`READ_CHUNK_BYTES` chunk at a time
    only while none is complete; a partial frame stays buffered for the
    next call.
    """

    def __init__(self, reader: asyncio.StreamReader) -> None:
        self._reader = reader
        self._buffer = bytearray()

    async def read_payloads(self, limit: Optional[int] = None) -> list[bytes]:
        """The payloads of the buffered complete frames, in order (at
        most ``limit``), or ``[]`` on a clean EOF at a frame boundary.

        A zero or over-cap length prefix raises :class:`FrameError` as
        soon as its 4 bytes are in, without reading its body; the frames
        before it are returned first and the next call raises.  EOF
        mid-frame raises :class:`FrameError` too.
        """
        buffer = self._buffer
        while not (payloads := self._split(limit)):
            chunk = await self._reader.read(READ_CHUNK_BYTES)
            if not chunk:
                if not buffer:
                    return []
                if len(buffer) < _LEN.size:
                    raise FrameError(
                        f"connection closed mid-header ({len(buffer)}/"
                        f"{_LEN.size} bytes)"
                    )
                raise FrameError(
                    f"connection closed mid-frame ({len(buffer) - _LEN.size}"
                    f"/{_length(buffer)} bytes)"
                )
            buffer += chunk
        return payloads

    def _split(self, limit: Optional[int]) -> list[bytes]:
        buffer = self._buffer
        payloads: list[bytes] = []
        start, end = 0, len(buffer)
        with memoryview(buffer) as view:
            while end - start >= _LEN.size and len(payloads) != limit:
                try:
                    length = _length(buffer, start)
                except FrameError:
                    if payloads:
                        break  # the next call raises, with nothing before it
                    raise
                stop = start + _LEN.size + length
                if stop > end:
                    break
                payloads.append(view[start + _LEN.size:stop].tobytes())
                start = stop
        del buffer[:start]
        return payloads


# ----------------------------------------------------------------------
# local endpoints (benchmarks, examples, tests, `repro replay --spawn`)
# ----------------------------------------------------------------------
_ANNOUNCE = re.compile(r"(?:listening|serving) on (\S+:\d+)")
_SRC = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@contextmanager
def local_endpoints(commands: Sequence[Sequence[str]]) -> Iterator[list[str]]:
    """Run ``python -m repro <command> --listen 127.0.0.1:0`` per entry
    of ``commands`` (each a ``repro`` argument list such as ``["worker",
    "--die-after", "1"]``) with this package's ``src/`` on
    ``PYTHONPATH``; yield the ``"host:port"`` each one announces
    (``listening on`` / ``serving on``); terminate them all on exit."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (_SRC, env.get("PYTHONPATH")))
    )
    procs: list[subprocess.Popen] = []
    try:
        for command in commands:
            procs.append(subprocess.Popen(
                [sys.executable, "-m", "repro", *command,
                 "--listen", "127.0.0.1:0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
                text=True,
            ))
        yield [_announced(proc) for proc in procs]
    finally:
        for proc in procs:
            proc.terminate()  # a no-op once the process has exited
        for proc in procs:
            try:
                proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:  # pragma: no cover
                proc.kill()
                proc.wait()
            proc.stdout.close()


def _announced(proc: subprocess.Popen) -> str:
    for line in proc.stdout:
        if match := _ANNOUNCE.search(line):
            return match.group(1)
    raise RuntimeError(
        f"{' '.join(proc.args[3:])} exited before announcing its "
        f"address (rc={proc.poll()})"
    )
