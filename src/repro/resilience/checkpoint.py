"""Crash-safe checkpoint/resume for fleet runs: a ledger of finished
shards.

:func:`run_fleet_checkpointed` splits a :class:`~repro.sim.fleet.
FleetSpec`'s population into :func:`checkpoint_ranges`:
:func:`~repro.sim.population.partition_fleet` ranges of at most
:data:`CHECKPOINT_SHARD_UES` UEs, and at least as many as the caller's
``n_shards``.  Each range runs through :meth:`PopulationSpec.run_metrics
<repro.sim.population.PopulationSpec.run_metrics>`, the call every
:func:`~repro.sim.fleet.run_fleet` shard makes, and its metrics are
written to a file of its own, ``<dir>/shard-<lo>-<hi>.json``::

    {
      "version":     3,
      "fingerprint": sha256 of (spec, ranges, window, outage),
      "range":       [lo, hi],
      "metrics":     FleetMetrics.to_payload(),
    }

A resumed run loads the ranges whose files exist, reruns the others
from their first epoch and merges in range order.  Every UE is seeded
by its global index and the merge is exact, so the result is
**byte-identical** to the uninterrupted run and to ``run_fleet`` over
the same spec.  A crash loses at most the range in flight, 2,000 UEs.

Crash model.  A shard file is written under a temporary name, fsynced,
then renamed to its own name, which no earlier write used: no file is
ever replaced.  Process death (``SIGKILL``, or :class:`SimulatedCrash`
in process) keeps every renamed file, since the kernel holds it
whatever the process does; a write it cuts short leaves only a
temporary file, which no run reads.  Power loss may lose a rename,
because the directory is not fsynced; that costs a rerun of the range,
never a torn file, because the data was fsynced before the rename.

The fingerprint binds a shard file to one workload: the spec, the
ranges, the ping-pong window and the outage threshold (not the tile
size, which no result depends on).  Every ``shard-*.json`` file in the
directory must belong to the run, so a file that is unreadable, of
another format version or of another workload is refused with a
:class:`CheckpointError` naming it, and so is a directory holding
``fleet.ckpt``, the single-file format of versions 1 and 2 (mid-shard
snapshots).  A ``"checkpoint"``-scope ``"crash"`` rule of a
:class:`~repro.resilience.faults.FaultPlan` counts shard writes and
raises :class:`SimulatedCrash` *before* the due one, after its range
has run.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pickle
import re
import tempfile
from pathlib import Path
from typing import Optional, Union

import numpy as np

from ..sim.fleet import FleetSpec
from ..sim.metrics import (
    DEFAULT_OUTAGE_DBW,
    DEFAULT_WINDOW_KM,
    FleetMetrics,
    merge_fleet_metrics,
)
from ..sim.population import partition_fleet
from .faults import FaultPlan

__all__ = [
    "CHECKPOINT_SHARD_UES",
    "CHECKPOINT_VERSION",
    "CheckpointError",
    "SimulatedCrash",
    "checkpoint_ranges",
    "load_checkpoint",
    "run_fleet_checkpointed",
    "shard_path",
]

CHECKPOINT_VERSION = 3

#: Most UEs in one checkpointed range: the most work a crash can lose
#: (a 2,000-UE range runs in about 0.2-0.35 s of one CPU).
CHECKPOINT_SHARD_UES = 2000

#: The single-file checkpoint of format versions 1 and 2.
LEGACY_FILENAME = "fleet.ckpt"

_SHARD_NAME = re.compile(r"shard-(\d+)-(\d+)\.json")
_KEYS = ("version", "fingerprint", "range", "metrics")


class CheckpointError(RuntimeError):
    """A checkpoint file is unreadable or belongs to another workload."""


class SimulatedCrash(RuntimeError):
    """Raised by a ``"checkpoint"``-scope crash rule: the in-process
    stand-in for a kill between shard writes."""


def checkpoint_ranges(n_ues: int, n_shards: int = 1) -> list[tuple[int, int]]:
    """The ``[lo, hi)`` ranges a checkpointed run of ``n_ues`` UEs
    writes: at least ``n_shards``, none above
    :data:`CHECKPOINT_SHARD_UES` UEs."""
    return partition_fleet(
        n_ues, max(n_shards, -(-n_ues // CHECKPOINT_SHARD_UES))
    )


def shard_path(directory: Union[str, Path], lo: int, hi: int) -> Path:
    """The file of range ``[lo, hi)`` inside ``directory``."""
    return Path(directory) / f"shard-{lo}-{hi}.json"


def _ledger(spec, n_shards, window_km, outage_dbw):
    """A run's ranges, window, outage threshold and fingerprint.  The
    spec, its population and their mobility models are frozen
    dataclasses, so their pickle is stable across processes of one
    interpreter version."""
    window = DEFAULT_WINDOW_KM if window_km is None else float(window_km)
    outage = DEFAULT_OUTAGE_DBW if outage_dbw is None else float(outage_dbw)
    ranges = checkpoint_ranges(spec.n_ues, n_shards)
    blob = pickle.dumps(
        (spec, tuple(ranges), window, outage),
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    return ranges, window, outage, hashlib.sha256(blob).hexdigest()


def _read_shard(path, window, outage, fingerprint):
    """``((lo, hi), metrics)`` of one shard file, checked against the
    run."""

    def refuse(why: str) -> CheckpointError:
        return CheckpointError(f"checkpoint file {path} {why}")

    match = _SHARD_NAME.fullmatch(path.name)
    if match is None:
        raise refuse("is not named shard-<lo>-<hi>.json")
    lo, hi = int(match[1]), int(match[2])
    try:
        text = path.read_bytes().decode("utf-8")
    except OSError as exc:
        raise refuse(f"is unreadable: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise refuse(f"is not UTF-8 text: {exc}") from exc
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        raise refuse(f"is not JSON: {exc}") from exc
    if not isinstance(record, dict):
        raise refuse(f"holds a JSON {type(record).__name__}, not an object")
    missing = [key for key in _KEYS if key not in record]
    if missing:
        raise refuse(f"lacks {', '.join(missing)}")
    if record["version"] != CHECKPOINT_VERSION:
        raise refuse(
            f"has format version {record['version']!r}, "
            f"expected {CHECKPOINT_VERSION}"
        )
    if record["fingerprint"] != fingerprint:
        raise refuse(
            "belongs to another workload (spec, ranges, window or "
            "outage threshold differ)"
        )
    if record["range"] != [lo, hi]:
        raise refuse(
            f"holds range {record['range']!r} but is named for "
            f"[{lo}, {hi}]"
        )
    try:
        metrics = FleetMetrics.from_payload(record["metrics"])
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise refuse(f"holds malformed metrics: {exc!r}") from exc
    shapes = {np.shape(a) for a in metrics.per_ue().values()}
    if shapes != {(hi - lo,)}:
        raise refuse(
            f"holds per-UE arrays of shapes {sorted(shapes)}, not "
            f"({hi - lo},)"
        )
    if (metrics.window_km, metrics.outage_dbw) != (window, outage):
        raise refuse(
            f"holds metrics for window {metrics.window_km} km and outage "
            f"threshold {metrics.outage_dbw} dBW; this run uses "
            f"{window} km and {outage} dBW"
        )
    return (lo, hi), metrics


def _load(directory, window, outage, fingerprint):
    """The finished ranges in ``directory``: ``{(lo, hi): metrics}``."""
    directory = Path(directory)
    legacy = directory / LEGACY_FILENAME
    if legacy.exists():
        raise CheckpointError(
            f"checkpoint file {legacy} is a version-2 (or older) "
            "checkpoint of mid-shard snapshots; format version "
            f"{CHECKPOINT_VERSION} keeps one file per finished shard: "
            "rerun in a new directory"
        )
    return dict(
        _read_shard(path, window, outage, fingerprint)
        for path in sorted(directory.glob("shard-*.json"))
    )


def load_checkpoint(
    directory: Union[str, Path],
    spec: FleetSpec,
    *,
    n_shards: int = 1,
    window_km: Optional[float] = None,
    outage_dbw: Optional[float] = None,
) -> dict[tuple[int, int], FleetMetrics]:
    """The finished ranges of the run :func:`run_fleet_checkpointed`
    would make with these arguments, ``{(lo, hi): metrics}``; empty for
    a missing or empty directory."""
    _, window, outage, fingerprint = _ledger(
        spec, n_shards, window_km, outage_dbw
    )
    return _load(directory, window, outage, fingerprint)


def _write_new(path: Path, record: dict) -> None:
    """Write ``record`` as JSON to ``path``, a name no file holds: a
    temporary file, fsynced, then renamed."""
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.rename(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def run_fleet_checkpointed(
    spec: FleetSpec,
    *,
    checkpoint_dir: Union[str, Path],
    n_shards: int = 1,
    window_km: Optional[float] = None,
    outage_dbw: Optional[float] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> FleetMetrics:
    """Run (or resume) a fleet, writing each finished range to
    ``checkpoint_dir``.

    The ranges are :func:`checkpoint_ranges` ``(spec.n_ues,
    n_shards)``; they run one after another in this process.  Call
    again with the same arguments after a crash and the run reruns only
    the ranges without a file; the merged :class:`FleetMetrics` is
    byte-identical to the uninterrupted run and to
    :func:`~repro.sim.fleet.run_fleet` over the same spec.

    ``fault_plan`` lets ``"checkpoint"``-scope crash rules kill the run
    deterministically before a shard write (tests, the X20 recovery
    bench).
    """
    ranges, window, outage, fingerprint = _ledger(
        spec, n_shards, window_km, outage_dbw
    )
    directory = Path(checkpoint_dir)
    done = _load(directory, window, outage, fingerprint)
    injector = (
        fault_plan.injector("checkpoint") if fault_plan is not None else None
    )
    directory.mkdir(parents=True, exist_ok=True)
    for lo, hi in ranges:
        if (lo, hi) in done:
            continue
        metrics = spec.population.run_metrics(
            lo, hi, window_km=window, outage_dbw=outage
        )
        if injector is not None and injector.poll() is not None:
            raise SimulatedCrash(
                f"fault plan killed the run before the write of shard "
                f"[{lo}, {hi})"
            )
        _write_new(
            shard_path(directory, lo, hi),
            {
                "version": CHECKPOINT_VERSION,
                "fingerprint": fingerprint,
                "range": [lo, hi],
                "metrics": metrics.to_payload(),
            },
        )
        done[(lo, hi)] = metrics
    return merge_fleet_metrics(done[r] for r in ranges)
