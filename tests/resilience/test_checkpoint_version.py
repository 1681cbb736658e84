"""Checkpoint format versioning: a file of another format is refused
with a :class:`CheckpointError` naming both versions."""

from __future__ import annotations

import pickle

import pytest

from repro.resilience import (
    CHECKPOINT_VERSION,
    CheckpointError,
    FaultPlan,
    FaultRule,
    SimulatedCrash,
    checkpoint_path,
    load_checkpoint,
    run_fleet_checkpointed,
)
from repro.sim import FleetSpec

pytestmark = pytest.mark.resilience


def test_version_1_checkpoint_is_refused(tmp_path):
    spec = FleetSpec(n_ues=4, n_walks=2, base_seed=1000)
    crash = FaultPlan(
        rules=(FaultRule(scope="checkpoint", mode="crash", after=2),)
    )
    with pytest.raises(SimulatedCrash):
        run_fleet_checkpointed(
            spec, checkpoint_dir=tmp_path, tile_epochs=4, fault_plan=crash
        )
    state = load_checkpoint(tmp_path)
    assert state["version"] == CHECKPOINT_VERSION == 2
    assert set(state["in_progress"]["snapshot"]) == {
        "next_epoch", "state", "fading_state"
    }

    # the same workload's snapshot in the version-1 layout
    snapshot = state["in_progress"]["snapshot"]
    arrays = snapshot.pop("state")
    snapshot.update(
        serving=arrays["serving"],
        hist=arrays["hist"],
        hist_len=arrays["hist_len"],
        consumer={},
    )
    state["version"] = 1
    checkpoint_path(tmp_path).write_bytes(pickle.dumps(state))

    with pytest.raises(CheckpointError, match="version 1, expected 2"):
        run_fleet_checkpointed(spec, checkpoint_dir=tmp_path, tile_epochs=4)
