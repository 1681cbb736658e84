"""Deterministic chaos runtime, crash-safe checkpointing, and
degraded-mode serving.

Three pillars, one seed discipline:

* :mod:`repro.resilience.faults` — the declarative :class:`FaultPlan`
  runtime: seeded fault schedules (worker exits, frame corruption,
  report silence, deadline jitter, clock skew, injected crashes) that
  replay identically everywhere they are injected;
* :mod:`repro.resilience.checkpoint` — crash-safe checkpoint/resume
  for streaming fleet runs (``repro fleet --checkpoint DIR``), with
  byte-identical resumption after a kill at any point;
* :mod:`repro.resilience.supervisor` — a self-healing
  :class:`~repro.serve.service.DecisionService` that restarts a crashed
  decision loop from the last epoch boundary.  Import
  ``SupervisedDecisionService`` and ``InjectedCrash`` from that module:
  :mod:`repro.serve.service` imports the fault runtime from this
  package, and the supervisor imports :mod:`repro.serve.service`, so a
  re-export here would close an import cycle.
"""

from .checkpoint import (
    CHECKPOINT_FILENAME,
    CHECKPOINT_VERSION,
    CheckpointError,
    SimulatedCrash,
    checkpoint_path,
    load_checkpoint,
    run_fleet_checkpointed,
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
    "CHECKPOINT_FILENAME",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "FAULT_SCOPES",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "SimulatedCrash",
    "checkpoint_path",
    "load_checkpoint",
    "make_clock",
    "misbehaving_client",
    "run_fleet_checkpointed",
    "silence_filter",
]

