"""The one wire layer of both TCP services.

The worker wire (:mod:`repro.sim.distributed`) and the decision-service
wire (:mod:`repro.serve.protocol`) frame every message the same way: a
4-byte big-endian payload length, then the payload (an untagged pickle
on the worker wire, ``J`` plus UTF-8 JSON on the serve wire).  Only this
module packs or parses that prefix.  Both readers refuse a zero or
over-cap length before reading any body byte.  :class:`FrameError` is a
:class:`ConnectionError`, so transport-failure handlers catch it too.
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

__all__ = ["MAX_FRAME_BYTES", "FrameError", "frame", "recv_payload",
           "read_payload", "local_endpoints"]

_LEN = struct.Struct(">I")

#: Hard ceiling on one frame's payload on both wires: a measurement
#: report is a few hundred bytes, a fleet shard or a full-fleet metrics
#: reply a few MiB; anything larger is a corrupt or hostile length prefix.
MAX_FRAME_BYTES = 64 * 1024 * 1024


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


def _length(header: bytes) -> int:
    (length,) = _LEN.unpack(header)
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


async def read_payload(reader: asyncio.StreamReader) -> Optional[bytes]:
    """One frame's payload, or ``None`` on a clean EOF at a frame
    boundary.  EOF mid-frame and a bad length prefix raise
    :class:`FrameError`."""
    try:
        header = await reader.readexactly(_LEN.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise FrameError(
            f"connection closed mid-header ({len(exc.partial)}/"
            f"{_LEN.size} bytes)"
        ) from None
    length = _length(header)
    try:
        return await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise FrameError(
            f"connection closed mid-frame ({len(exc.partial)}/{length} bytes)"
        ) from None


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
