"""Streaming handover-decision service.

The :mod:`repro.serve` package turns the offline batch engine into an
online service: per-UE measurement reports stream in (JSON frames over
TCP or the in-process API), an epoch scheduler aligns them into closable
service epochs (watermark or deadline), and each closed epoch runs one
batched FLC sweep through the exact ``BatchSimulator`` decision pipeline
— replaying a recorded run through the service yields
**byte-identical** handover / ping-pong decisions and fleet metrics to
the offline engine.

Layers, bottom-up:

* :mod:`~repro.serve.protocol` — JSON messages in :mod:`repro.wire`
  frames (nothing a client sends is ever unpickled) and the
  :class:`~repro.serve.protocol.Report` message;
* :mod:`~repro.serve.epochs` — epoch-indexed report buckets and
  deterministic epoch close semantics;
* :mod:`~repro.serve.engine` — the per-epoch vectorised decision sweep
  with streaming metric counters;
* :mod:`~repro.serve.service` — the in-process service (counters,
  latency tracking, bounded command fan-out);
* :mod:`~repro.serve.server` — the asyncio TCP front-end and client;
* :mod:`~repro.serve.replay` — trace replay (in-process and over TCP)
  and the identity-check helpers.
"""

from .engine import HandoverCommand, StreamingFleetEngine
from .epochs import DEFAULT_RING_CAPACITY, EpochScheduler
from .protocol import (
    FrameError,
    MAX_FRAME_BYTES,
    Report,
    encode_frame,
    decode_payload,
    read_frame,
    write_frame,
)
from .replay import (
    identity_report,
    iter_epoch_reports,
    metrics_identical,
    replay_in_process,
    replay_to_server,
    service_for_trace,
    spawned_server,
)
from .server import ServeClient, ServeServer
from .service import (
    DEFAULT_LISTENER_CAPACITY,
    MAX_LISTENER_CAPACITY,
    CommandListener,
    DecisionService,
    EpochCommands,
    ServiceStats,
)

__all__ = [
    "CommandListener",
    "DecisionService",
    "DEFAULT_LISTENER_CAPACITY",
    "DEFAULT_RING_CAPACITY",
    "EpochCommands",
    "EpochScheduler",
    "FrameError",
    "HandoverCommand",
    "MAX_FRAME_BYTES",
    "MAX_LISTENER_CAPACITY",
    "Report",
    "ServeClient",
    "ServeServer",
    "ServiceStats",
    "StreamingFleetEngine",
    "decode_payload",
    "encode_frame",
    "identity_report",
    "iter_epoch_reports",
    "metrics_identical",
    "read_frame",
    "replay_in_process",
    "replay_to_server",
    "service_for_trace",
    "spawned_server",
    "write_frame",
]
