"""Deterministic chaos runtime, crash-safe checkpointing, and
degraded-mode serving.

Three pillars, one seed discipline:

* :mod:`repro.resilience.faults` — the declarative :class:`FaultPlan`
  runtime: seeded fault schedules (worker exits, frame corruption,
  report silence, deadline jitter, clock skew, injected crashes) that
  replay identically everywhere they are injected;
* :mod:`repro.resilience.checkpoint` — crash-safe checkpoint/resume
  for fleet runs (``repro fleet --checkpoint DIR``): a ledger of
  finished shards, one file each, so a run killed at any point reruns
  only the shards without a file and ends byte-identical;
* :mod:`repro.resilience.supervisor` — a self-healing
  :class:`~repro.serve.service.DecisionService` that restarts a crashed
  decision loop from the last epoch boundary.  Import
  ``SupervisedDecisionService`` and ``InjectedCrash`` from that module:
  :mod:`repro.serve.service` imports the fault runtime from this
  package, and the supervisor imports :mod:`repro.serve.service`, so a
  re-export here would close an import cycle.
"""

from .checkpoint import (
    CHECKPOINT_SHARD_UES,
    CHECKPOINT_VERSION,
    CheckpointError,
    SimulatedCrash,
    checkpoint_ranges,
    load_checkpoint,
    run_fleet_checkpointed,
    shard_path,
)
from .faults import (
    FAULT_SCOPES,
    FaultInjector,
    FaultPlan,
    FaultRule,
    make_clock,
    misbehaving_client,
    silence_filter,
)
__all__ = [
    "CHECKPOINT_SHARD_UES",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "FAULT_SCOPES",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "SimulatedCrash",
    "checkpoint_ranges",
    "load_checkpoint",
    "make_clock",
    "misbehaving_client",
    "run_fleet_checkpointed",
    "shard_path",
    "silence_filter",
]

