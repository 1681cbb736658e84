"""Checkpoint format version 3: one shard file per finished range, and
a :class:`CheckpointError` naming every file a run cannot use."""

from __future__ import annotations

import json
import pickle
import re

import pytest

from repro.resilience import (
    CHECKPOINT_SHARD_UES,
    CHECKPOINT_VERSION,
    CheckpointError,
    checkpoint_ranges,
    run_fleet_checkpointed,
    shard_path,
)
from repro.sim import FleetSpec, partition_fleet

pytestmark = pytest.mark.resilience

SPEC = FleetSpec(n_ues=8, n_walks=2, base_seed=1000)
N_SHARDS = 2


def run(directory):
    return run_fleet_checkpointed(
        SPEC, checkpoint_dir=directory, n_shards=N_SHARDS
    )


def test_ranges_hold_at_most_checkpoint_shard_ues():
    """``n_shards`` is a lower bound on the ranges, and no range holds
    more than :data:`CHECKPOINT_SHARD_UES` UEs."""
    assert CHECKPOINT_SHARD_UES == 2000
    assert checkpoint_ranges(2000) == [(0, 2000)]
    assert checkpoint_ranges(2001) == partition_fleet(2001, 2)
    assert checkpoint_ranges(4500) == partition_fleet(4500, 3)
    assert checkpoint_ranges(4500, 5) == partition_fleet(4500, 5)
    assert checkpoint_ranges(10, 4) == partition_fleet(10, 4)


def test_version_1_checkpoint_is_refused(tmp_path):
    """A version-1 ``fleet.ckpt`` (the loop's arrays stored apart) is
    refused by name, as every single-file checkpoint is."""
    legacy = tmp_path / "fleet.ckpt"
    legacy.write_bytes(pickle.dumps({
        "version": 1,
        "fingerprint": "0" * 64,
        "n_shards": 1,
        "completed": {},
        "in_progress": {"shard": 0, "snapshot": {
            "next_epoch": 4, "serving": [0], "hist": [[0.0]],
            "hist_len": [1], "consumer": {},
        }},
        "result": None,
    }))
    with pytest.raises(
        CheckpointError, match=re.escape(f"{legacy} is a version-2 (or older)")
    ):
        run(tmp_path)


@pytest.fixture(scope="module")
def first_shard(tmp_path_factory):
    """The file name and bytes of the first range of a finished run."""
    directory = tmp_path_factory.mktemp("finished")
    run(directory)
    path = shard_path(directory, *checkpoint_ranges(SPEC.n_ues, N_SHARDS)[0])
    return path.name, path.read_bytes()


def edited(change):
    def case(name, raw):
        record = json.loads(raw)
        change(record)
        return name, json.dumps(record).encode()

    return case


def drop_one_handover(record):
    record["metrics"]["per_ue"]["handovers"].pop()


#: case -> (file name and bytes from the first shard's, refusal text)
BAD_FILES = {
    "empty": (lambda name, raw: (name, b""), "is not JSON"),
    "truncated": (
        lambda name, raw: (name, raw[: len(raw) // 2]), "is not JSON"
    ),
    "not-json": (lambda name, raw: (name, b"garbage\n"), "is not JSON"),
    "not-utf8": (
        lambda name, raw: (name, b"\xff\xfe{}"), "is not UTF-8 text"
    ),
    "non-object": (
        lambda name, raw: (name, b"[0, 4]"), "holds a JSON list, not an"
    ),
    "missing-key": (
        edited(lambda record: record.pop("fingerprint")),
        "lacks fingerprint",
    ),
    "other-version": (
        edited(lambda record: record.update(version=2)),
        f"has format version 2, expected {CHECKPOINT_VERSION}",
    ),
    "other-fingerprint": (
        edited(lambda record: record.update(fingerprint="0" * 64)),
        "belongs to another workload",
    ),
    "range-not-name": (
        edited(lambda record: record.update(range=[0, 3])),
        "holds range [0, 3] but is named for [0, 4]",
    ),
    "per-ue-length": (
        edited(drop_one_handover),
        "holds per-UE arrays of shapes [(3,), (4,)], not (4,)",
    ),
    "other-window": (
        edited(lambda record: record["metrics"].update(window_km=0.25)),
        "for window 0.25 km",
    ),
    "other-outage": (
        edited(lambda record: record["metrics"].update(outage_dbw=-100.0)),
        "outage threshold -100.0 dBW",
    ),
    "fleet-ckpt": (
        lambda name, raw: ("fleet.ckpt", b"garbage\n"),
        "is a version-2 (or older) checkpoint",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_FILES))
def test_unusable_checkpoint_file_is_refused_by_name(
    tmp_path, first_shard, case
):
    make, refusal = BAD_FILES[case]
    name, data = make(*first_shard)
    (tmp_path / name).write_bytes(data)
    with pytest.raises(CheckpointError) as excinfo:
        run(tmp_path)
    assert str(excinfo.value).startswith(
        f"checkpoint file {tmp_path / name} "
    )
    assert refusal in str(excinfo.value)
    # refused before any range ran: nothing was written
    assert [p.name for p in tmp_path.iterdir()] == [name]
