"""Crash-safe checkpoint/resume for streaming fleet runs.

:func:`run_fleet_checkpointed` drives any
:class:`~repro.sim.fleet.FleetSpec` shard by shard — each one
:func:`~repro.sim.population.partition_fleet` range of its population —
through the epoch-tiled streaming engine, snapshotting resumable state
into a checkpoint file at tile boundaries.  A run killed at *any* point — even
``SIGKILL`` between checkpoints — resumes from the last snapshot and
finishes **byte-identical** to the uninterrupted run, because every
piece of state the epoch loop carries is captured exactly:

* the kernel's :class:`~repro.sim.kernel.EpochState`: per UE the
  serving cell, CSSP history window and length, local epoch, speed
  penalty and the :class:`~repro.sim.metrics.FleetMetricsAccumulator`
  counters (integer counters, float partial sums — restored
  bit-for-bit, so the remaining epochs extend the same accumulation
  sequence).  Each UE's policy columns are configuration, rebuilt from
  the spec on resume, so one snapshot per shard covers a mixed-policy
  shard too, and its ``hist`` width (the shard's longest CSSP lag)
  comes out the same;
* every fading UE's generator bit state and AR(1) boundary row in the
  tile stream's :class:`~repro.radio.fading.FadingBank`, so resumed
  fading continues the exact draw sequence;
* the next tile-boundary epoch and the per-shard completion ledger
  (finished shards store their final, cohort-labelled
  :class:`FleetMetrics`).

Checkpoint file format (``<dir>/fleet.ckpt``, an atomically replaced
pickle)::

    {
      "version":     2,
      "fingerprint": sha256 of (spec, n_shards, window, outage, tile),
      "n_shards":    int,
      "completed":   {shard_index: FleetMetrics, ...},
      "in_progress": None | {"shard": int, "snapshot": {
                       "next_epoch":   int   (tile boundary),
                       "state":        EpochState.state_dict(),
                       "fading_state": None | [None | {
                           "rng_state":        bit-generator state dict,
                           "last":             None | (n_cells,) array,
                           "last_distance_km": float,
                           "started":          bool,
                         }, ...]  (one entry per UE),
                     }},
      "result":      None | FleetMetrics (set once merged),
    }

``fading_state`` is :meth:`FadingBank.state_dict
<repro.radio.fading.FadingBank.state_dict>`: ``None`` for a UE that
does not fade (a cohort at ``shadow_sigma_db=0``), else exactly what
that UE's
:meth:`ShadowFadingStream.state_dict
<repro.radio.fading.ShadowFadingStream.state_dict>` holds, the layout
version-2 files were first written in (one stream per UE), so those
files resume unchanged.

The fingerprint binds a checkpoint to one exact workload; resuming with
a different spec, shard count, metrics window, or tile size raises
:class:`CheckpointError` instead of silently merging foreign state, and
so does a file of another format version (version 1 stored the loop's
``serving``/``hist``/``hist_len`` and the accumulator's arrays apart).

Writes are atomic (tmp file + fsync + ``os.replace``), so the file is
always either the previous or the next consistent snapshot — never a
torn one.  A ``"checkpoint"``-scope ``"crash"`` rule in a
:class:`~repro.resilience.faults.FaultPlan` raises
:class:`SimulatedCrash` *before* the due write, which is exactly the
kill-between-checkpoints window the resume tests exercise in-process.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import Optional, Union

from ..sim import measurement
from ..sim.fleet import FleetSpec
from ..sim.population import partition_fleet
from ..sim.metrics import (
    DEFAULT_OUTAGE_DBW,
    DEFAULT_WINDOW_KM,
    FleetMetrics,
    merge_fleet_metrics,
)
from .faults import FaultPlan

__all__ = [
    "CHECKPOINT_FILENAME",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "SimulatedCrash",
    "checkpoint_path",
    "load_checkpoint",
    "run_fleet_checkpointed",
]

CHECKPOINT_VERSION = 2
CHECKPOINT_FILENAME = "fleet.ckpt"


class CheckpointError(RuntimeError):
    """A checkpoint file is unreadable or belongs to another workload."""


class SimulatedCrash(RuntimeError):
    """Raised by a ``"checkpoint"``-scope crash rule: the in-process
    stand-in for a kill between checkpoint writes."""


def checkpoint_path(directory: Union[str, Path]) -> Path:
    """The checkpoint file inside ``directory``."""
    return Path(directory) / CHECKPOINT_FILENAME


def _atomic_write(path: Path, state: dict) -> None:
    """Write-then-rename so the file is never observed half-written,
    fsyncing before the rename so a machine crash cannot leave a
    renamed-but-empty file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            pickle.dump(state, fh, protocol=pickle.HIGHEST_PROTOCOL)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_checkpoint(directory: Union[str, Path]) -> Optional[dict]:
    """The checkpoint state in ``directory``, or ``None`` when absent."""
    path = checkpoint_path(directory)
    if not path.exists():
        return None
    try:
        with path.open("rb") as fh:
            state = pickle.load(fh)
    except (OSError, pickle.UnpicklingError, EOFError, AttributeError) as exc:
        raise CheckpointError(f"unreadable checkpoint {path}: {exc}") from exc
    if not isinstance(state, dict) or "version" not in state:
        raise CheckpointError(f"malformed checkpoint {path}")
    return state


def _fingerprint(
    spec: FleetSpec,
    n_shards: int,
    window_km: float,
    outage_dbw: float,
    tile_epochs: int,
) -> str:
    """Binds a checkpoint to one exact workload.  The spec, its
    population and their mobility models are frozen dataclasses, so
    their pickle is stable across processes of one interpreter
    version — good enough to catch every accidental mismatch loudly."""
    payload = pickle.dumps(
        (spec, int(n_shards), float(window_km), float(outage_dbw),
         int(tile_epochs)),
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    return hashlib.sha256(payload).hexdigest()


def run_fleet_checkpointed(
    spec: FleetSpec,
    *,
    checkpoint_dir: Union[str, Path],
    n_shards: int = 1,
    window_km: Optional[float] = None,
    outage_dbw: Optional[float] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> FleetMetrics:
    """Run (or resume) a fleet with crash-safe checkpointing.

    Shards run serially in-process (checkpointing owns the execution
    order; distribute *or* checkpoint, not both), each streamed in
    :data:`~repro.sim.measurement.DEFAULT_TILE_EPOCHS`-epoch tiles, read
    when the run starts as every fleet range does, with a snapshot at
    every tile boundary; the tile size is part of the fingerprint.  Call
    again with the same arguments after a crash and the run continues
    from the last checkpoint; the merged :class:`FleetMetrics` is
    byte-identical to the uninterrupted run and to
    :func:`~repro.sim.fleet.run_fleet` over the same spec.

    Each shard is one batch pass, every UE under its cohort's policy,
    so mixed-policy populations checkpoint like any other fleet.

    ``fault_plan`` lets ``"checkpoint"``-scope crash rules kill the run
    deterministically between writes (tests, the X20 recovery bench).
    """
    population = spec.population
    tile_epochs = measurement.DEFAULT_TILE_EPOCHS
    window = DEFAULT_WINDOW_KM if window_km is None else float(window_km)
    outage = DEFAULT_OUTAGE_DBW if outage_dbw is None else float(outage_dbw)

    shards = partition_fleet(spec.n_ues, n_shards)
    fingerprint = _fingerprint(spec, len(shards), window, outage, tile_epochs)
    path = checkpoint_path(checkpoint_dir)

    state = load_checkpoint(checkpoint_dir)
    if state is not None:
        if state["version"] != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint {path} has version {state['version']}, "
                f"expected {CHECKPOINT_VERSION}"
            )
        if state["fingerprint"] != fingerprint:
            raise CheckpointError(
                f"checkpoint {path} belongs to a different workload "
                "(spec/shards/window/outage/tile mismatch)"
            )
        if state.get("result") is not None:
            return state["result"]
    else:
        state = {
            "version": CHECKPOINT_VERSION,
            "fingerprint": fingerprint,
            "n_shards": len(shards),
            "completed": {},
            "in_progress": None,
            "result": None,
        }

    injector = (
        fault_plan.injector("checkpoint") if fault_plan is not None else None
    )
    for idx, (lo, hi) in enumerate(shards):
        if idx in state["completed"]:
            continue
        resume = None
        in_progress = state["in_progress"]
        if in_progress is not None and in_progress["shard"] == idx:
            resume = in_progress["snapshot"]

        stream = population.make_sampler().measure_batch_tiles(
            population.traces(lo, hi),
            tile_epochs,
            fading_profiles=population.fading_profiles(lo, hi),
        )
        sim = population.simulator(lo, hi)

        def on_tile_end(next_epoch, epoch_state):
            if injector is not None:
                rule = injector.poll()
                if rule is not None and rule.mode == "crash":
                    # crash *before* the due write: the on-disk state
                    # stays one-or-more tiles behind, exactly the
                    # SIGKILL-between-checkpoints window
                    raise SimulatedCrash(
                        f"fault plan killed shard {idx} before the "
                        f"checkpoint at epoch {next_epoch}"
                    )
            state["in_progress"] = {
                "shard": idx,
                "snapshot": {
                    "next_epoch": int(next_epoch),
                    "state": epoch_state.state_dict(),
                    "fading_state": stream.fading_state(),
                },
            }
            _atomic_write(path, state)

        metrics = sim.drive(
            stream,
            window_km=window,
            outage_dbw=outage,
            resume=resume,
            on_tile_end=on_tile_end,
        ).metrics.finalize()
        state["completed"][idx] = metrics.with_cohorts(
            population.cohort_ids(lo, hi),
            population.cohort_names,
        )
        state["in_progress"] = None
        _atomic_write(path, state)

    merged = merge_fleet_metrics(
        [state["completed"][i] for i in range(len(shards))]
    )
    state["result"] = merged
    _atomic_write(path, state)
    return merged
