"""Wire protocol of the streaming decision service.

Every message is one :mod:`repro.wire` frame (a 4-byte big-endian
payload length, then the payload).  The payload is the tag ``J``
followed by the message as UTF-8 JSON, so clients in any language can
speak it.  A payload under any other tag is refused before its body is
looked at: the service never unpickles a client's bytes.

Messages are plain dicts with a ``"type"`` key (``subscribe``,
``report``, ``unsubscribe``, ``listen``, ``close_epoch``, ``stats``,
``metrics`` from clients; ``ok``, ``error``, ``commands``, ``stats``,
``metrics`` from the server).  Measurement reports travel as
:class:`Report` payloads.  JSON writes floats by ``repr``, which
round-trips IEEE-754 doubles exactly; that is what keeps the wire
stream byte-identical to the offline batch engine.

Truncated, oversized or undecodable frames raise :class:`FrameError` —
the server counts them and closes only the offending connection.
"""

from __future__ import annotations

import asyncio
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from ..wire import MAX_FRAME_BYTES, FrameError, frame, read_payload

__all__ = [
    "FrameError",
    "Report",
    "check_index",
    "MAX_FRAME_BYTES",
    "encode_frame",
    "decode_payload",
    "read_frame",
    "write_frame",
]

_TAG_JSON = b"J"


def encode_frame(message: object, codec: str = "json") -> bytes:
    """One complete frame (length prefix, ``J`` tag, JSON body)."""
    if codec != "json":
        raise ValueError(f"unknown codec {codec!r}; the serve wire is JSON")
    return frame(_TAG_JSON + json.dumps(message).encode("utf-8"))


def decode_payload(payload: bytes) -> tuple[object, str]:
    """``(message, "json")`` from one frame payload."""
    tag, body = payload[:1], payload[1:]
    if tag != _TAG_JSON:
        raise FrameError(f"unknown codec tag {tag!r}; the serve wire is JSON")
    try:
        return json.loads(body.decode("utf-8")), "json"
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"undecodable JSON frame: {exc}") from None


async def read_frame(reader: asyncio.StreamReader) -> object:
    """Read one message, or ``None`` on a clean EOF at a frame
    boundary.  EOF mid-frame raises :class:`FrameError`."""
    payload = await read_payload(reader)
    return None if payload is None else decode_payload(payload)[0]


async def write_frame(writer: asyncio.StreamWriter, message: object) -> None:
    """Encode and send one frame, honouring transport backpressure."""
    writer.write(encode_frame(message))
    await writer.drain()


# ----------------------------------------------------------------------
# measurement reports
# ----------------------------------------------------------------------
def check_index(name: str, value: object) -> int:
    """``value`` as a UE id or epoch: an integer (NumPy integers
    included, ``bool`` not) that is ``>= 0``.  Floats and strings are
    refused rather than truncated or parsed."""
    if type(value) is not int:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def _is_real(value: object) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _real(name: str, value: object) -> float:
    if type(value) is not float and not _is_real(value):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


_PLAIN_REALS = frozenset((float, int))


def _real_array(name: str, value: object) -> np.ndarray:
    """``value`` as a float array; strings and booleans are refused, in
    an array's dtype as much as in a JSON list."""
    if not isinstance(value, np.ndarray):
        if isinstance(value, (list, tuple)):
            if not _PLAIN_REALS.issuperset(map(type, value)):
                for item in value:
                    if not _is_real(item):
                        raise ValueError(
                            f"{name} must hold real numbers, got {item!r}"
                        )
            return np.asarray(value, dtype=float)
        value = np.asarray(value)
    if value.dtype.kind not in "fiu":
        raise ValueError(
            f"{name} must hold real numbers, got dtype {value.dtype}"
        )
    return value.astype(float, copy=False)


@dataclass(frozen=True)
class Report:
    """One UE's measurement report.

    ``epoch`` is the *service* epoch the report aligns to — the epoch
    scheduler buffers and closes by it.  The decision engine keeps its
    own per-UE local epoch counter and advances it by exactly one per
    processed report, which is what keeps the stream byte-identical to
    the offline lockstep run (where the two numberings coincide, since
    every UE starts at epoch 0).
    """

    ue: int
    epoch: int
    position_km: np.ndarray
    distance_km: float
    power_dbw: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "ue", check_index("ue", self.ue))
        object.__setattr__(self, "epoch", check_index("epoch", self.epoch))
        object.__setattr__(
            self, "position_km", _real_array("position_km", self.position_km)
        )
        object.__setattr__(
            self, "distance_km", _real("distance_km", self.distance_km)
        )
        object.__setattr__(
            self, "power_dbw", _real_array("power_dbw", self.power_dbw)
        )
        if self.position_km.shape != (2,):
            raise ValueError(
                f"position_km must be (2,), got {self.position_km.shape}"
            )
        if self.power_dbw.ndim != 1 or self.power_dbw.shape[0] < 1:
            raise ValueError(
                f"power_dbw must be a non-empty 1-D vector, "
                f"got shape {self.power_dbw.shape}"
            )
        if not np.isfinite(self.position_km).all():
            raise ValueError("position_km must be finite")
        if not math.isfinite(self.distance_km):
            raise ValueError("distance_km must be finite")
        if not np.isfinite(self.power_dbw).all():
            raise ValueError("power_dbw must be finite")

    def to_payload(self) -> dict:
        """The report as a JSON-safe ``report`` message dict."""
        return {
            "type": "report",
            "ue": self.ue,
            "epoch": self.epoch,
            "position_km": self.position_km.tolist(),
            "distance_km": self.distance_km,
            "power_dbw": self.power_dbw.tolist(),
        }

    @classmethod
    def from_payload(cls, message: dict) -> "Report":
        """Validate and rebuild a report from a ``report`` message."""
        try:
            return cls(
                ue=message["ue"],
                epoch=message["epoch"],
                position_km=message["position_km"],
                distance_km=message["distance_km"],
                power_dbw=message["power_dbw"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"invalid report payload: {exc}") from None
