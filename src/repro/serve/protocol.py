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

The server reads a connection in batches: :func:`typed_messages` decodes
every frame one read delivered, in order, and
:meth:`Report.from_payloads` validates each run of consecutive reports
once, as column blocks.
"""

from __future__ import annotations

import asyncio
import json
import math
import numbers
import operator
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from ..wire import MAX_FRAME_BYTES, FrameError, FrameReader, frame

__all__ = [
    "FrameError",
    "Report",
    "check_index",
    "MAX_FRAME_BYTES",
    "encode_frame",
    "decode_payload",
    "read_frame",
    "typed_messages",
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
    except (ValueError, RecursionError) as exc:
        # bad UTF-8 or JSON, an integer literal past Python's digit
        # limit, or arrays nested past the recursion limit
        raise FrameError(f"undecodable JSON frame: {exc}") from None


async def read_frame(frames: FrameReader) -> object:
    """Read one message, or ``None`` on a clean EOF at a frame
    boundary.  EOF mid-frame raises :class:`FrameError`."""
    payloads = await frames.read_payloads(1)
    return decode_payload(payloads[0])[0] if payloads else None


def typed_messages(payloads: Iterable[bytes]) -> Iterator[dict]:
    """Each payload's message, decoded only when the caller asks for it,
    so a frame that is undecodable or not a typed message (a dict with a
    ``"type"`` key) raises :class:`FrameError` after the messages before
    it have been handled."""
    for payload in payloads:
        message = decode_payload(payload)[0]
        if not isinstance(message, dict) or "type" not in message:
            raise FrameError(
                f"frame is not a typed message: {type(message).__name__}"
            )
        yield message


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


def _too_large(name: str) -> ValueError:
    return ValueError(
        f"{name} must be finite, got an integer too large for a float"
    )


def _real(name: str, value: object) -> float:
    if type(value) is not float and not _is_real(value):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise _too_large(name) from None


_PLAIN_REALS = frozenset((float, int))


def _check_row_shapes(position: tuple, power: tuple) -> None:
    """Refuse a report's array shapes unless ``position_km`` is ``(2,)``
    and ``power_dbw`` a non-empty vector."""
    if position != (2,):
        raise ValueError(f"position_km must be (2,), got {position}")
    if len(power) != 1 or power[0] < 1:
        raise ValueError(
            f"power_dbw must be a non-empty 1-D vector, got shape {power}"
        )


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
            try:
                return np.asarray(value, dtype=float)
            except OverflowError:
                raise _too_large(name) from None
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
        _check_row_shapes(self.position_km.shape, self.power_dbw.shape)
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

    def detached(self) -> "Report":
        """This report, with its own copies of arrays that are views.

        The reports of :meth:`from_payloads` hold rows of their run's
        blocks; whatever keeps a report for long keeps this instead, so
        it does not pin a whole block."""
        if self.position_km.base is None and self.power_dbw.base is None:
            return self
        return _unchecked_report(
            self.ue, self.epoch, self.position_km.copy(), self.distance_km,
            self.power_dbw.copy(),
        )

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

    @classmethod
    def from_payloads(
        cls, messages: Sequence[dict]
    ) -> tuple[list["Report"], Optional[ValueError]]:
        """Validate a run of ``report`` messages at once.

        Returns the reports of the messages before the first invalid one,
        and the :class:`ValueError` that :meth:`from_payload` raises for
        that message (``None`` when all are valid).  A run of plain JSON
        messages is type-checked element by element, then converted and
        checked for finiteness once per column; its reports' arrays are
        rows of those column blocks.  A run that fails a check, or holds
        anything but JSON's ints, floats and lists, goes through
        :meth:`from_payload` message by message instead.
        """
        try:
            reports = _validated_block(messages)
        except (KeyError, TypeError, ValueError, OverflowError):
            reports = None
        if reports is not None:
            return reports, None
        reports = []
        for message in messages:
            try:
                reports.append(cls.from_payload(message))
            except ValueError as exc:
                return reports, exc
        return reports, None


_new_report = object.__new__
_set = object.__setattr__


def _unchecked_report(
    ue, epoch, position_km, distance_km, power_dbw
) -> Report:
    """A :class:`Report` of already validated fields (no
    ``__post_init__``)."""
    report = _new_report(Report)
    _set(report, "ue", ue)
    _set(report, "epoch", epoch)
    _set(report, "position_km", position_km)
    _set(report, "distance_km", distance_km)
    _set(report, "power_dbw", power_dbw)
    return report


_FIELDS = operator.itemgetter(
    "ue", "epoch", "position_km", "distance_km", "power_dbw"
)
_INTS = frozenset((int,))
_LISTS = frozenset((list,))


def _validated_block(messages: Sequence[dict]) -> Optional[list[Report]]:
    """The reports of a run of plain JSON report messages, validated as
    :meth:`Report.from_payload` validates each, or ``None`` when a check
    fails."""
    if not messages:
        return []
    ues, epochs, positions, distances, powers = zip(*map(_FIELDS, messages))
    plain = (
        _INTS.issuperset(map(type, ues)) and min(ues) >= 0
        and _INTS.issuperset(map(type, epochs)) and min(epochs) >= 0
        and _PLAIN_REALS.issuperset(map(type, distances))
        and _LISTS.issuperset(map(type, positions))
        and set(map(len, positions)) == {2}
        and _PLAIN_REALS.issuperset(map(type, chain.from_iterable(positions)))
        and _LISTS.issuperset(map(type, powers))
        and len(cells := set(map(len, powers))) == 1 and 0 not in cells
        and _PLAIN_REALS.issuperset(map(type, chain.from_iterable(powers)))
    )
    if not plain:
        return None
    return _finite_reports(
        ues,
        epochs,
        np.array(positions, dtype=float),
        np.array(distances, dtype=float),
        np.array(powers, dtype=float),
    )


def _finite_reports(
    ues: Sequence[int],
    epochs: Iterable[int],
    position: np.ndarray,
    distance: np.ndarray,
    power: np.ndarray,
    rows: Optional[np.ndarray] = None,
) -> Optional[list[Report]]:
    """The reports of float64 column blocks, or ``None`` when a value
    they report is not finite.

    The blocks are ``position`` ``(n, 2)``, ``distance`` ``(n,)`` and
    ``power`` ``(n, n_cells)``.  Report ``j`` is UE ``ues[j]`` at
    ``epochs[j]``, from row ``rows[j]`` of each block (row ``j`` when
    ``rows`` is ``None``); only those rows are checked.  Each report's
    arrays are views of its rows, not copies.
    """
    if rows is None:
        checked = position, power
    else:
        checked = position[rows], power[rows]
        distance = distance[rows]
        picked = rows.tolist()
        position = map(position.__getitem__, picked)
        power = map(power.__getitem__, picked)
    if not (
        np.isfinite(distance).all()
        and all(np.isfinite(block).all() for block in checked)
    ):
        return None
    return list(map(
        _unchecked_report, ues, epochs, position, distance.tolist(), power
    ))
