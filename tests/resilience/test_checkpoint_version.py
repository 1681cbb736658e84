"""Checkpoint format versioning: a file of another format is refused
with a :class:`CheckpointError` naming both versions, and a version-2
file written with per-UE fading streams still resumes."""

from __future__ import annotations

import pickle
from unittest import mock

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
from repro.radio.fading import ShadowFadingStream
from repro.sim import FleetSpec, SimulationParameters, measurement

pytestmark = pytest.mark.resilience

TILE = 4


def run(spec, directory, fault_plan=None):
    with mock.patch.object(measurement, "DEFAULT_TILE_EPOCHS", TILE):
        return run_fleet_checkpointed(
            spec, checkpoint_dir=directory, fault_plan=fault_plan
        )


def test_version_1_checkpoint_is_refused(tmp_path):
    spec = FleetSpec(n_ues=4, n_walks=2, base_seed=1000)
    crash = FaultPlan(
        rules=(FaultRule(scope="checkpoint", mode="crash", after=2),)
    )
    with pytest.raises(SimulatedCrash):
        run(spec, tmp_path, fault_plan=crash)
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
        run(spec, tmp_path)


def per_ue_stream_fading_state(spec, tile_epochs, next_epoch):
    """The ``fading_state`` a version-2 checkpoint holds when one
    :class:`ShadowFadingStream` per UE drew the tiles before
    ``next_epoch`` — the layout checkpoints were written in before the
    fading bank."""
    population = spec.population
    tiled = population.make_sampler().measure_batch_tiles(
        population.traces(), tile_epochs
    )
    cells = tiled.layout.n_cells
    streams = [
        ShadowFadingStream(
            spec.params.make_fading(rng=spec.fading_base_seed + g)
        )
        for g in range(spec.n_ues)
    ]
    for lo in range(0, next_epoch, tiled.tile_epochs):
        hi = min(lo + tiled.tile_epochs, tiled.max_epochs)
        for i, stream in enumerate(streams):
            t = min(int(tiled.lengths[i]), hi) - lo
            if t > 0:
                stream.sample_next(
                    tiled.distance_km[i, lo : lo + t], n_sources=cells
                )
    return [stream.state_dict() for stream in streams]


@pytest.mark.parametrize("decorrelation_km", [0.1, 0.0])
def test_version_2_per_ue_stream_fading_state_resumes_identically(
    tmp_path, decorrelation_km
):
    spec = FleetSpec(
        n_ues=7,
        n_walks=2,
        base_seed=1000,
        params=SimulationParameters(
            shadow_sigma_db=6.0, shadow_decorrelation_km=decorrelation_km
        ),
    )
    reference = run(spec, tmp_path / "ref")
    crashed = tmp_path / "crashed"
    crash = FaultPlan(
        rules=(FaultRule(scope="checkpoint", mode="crash", after=3),)
    )
    with pytest.raises(SimulatedCrash):
        run(spec, crashed, fault_plan=crash)
    state = load_checkpoint(crashed)
    assert state["version"] == CHECKPOINT_VERSION == 2
    snapshot = state["in_progress"]["snapshot"]
    assert snapshot["next_epoch"] == 8

    legacy = per_ue_stream_fading_state(spec, TILE, snapshot["next_epoch"])
    # the bank writes the per-UE streams' layout, entry for entry ...
    assert len(snapshot["fading_state"]) == len(legacy)
    for got, want in zip(snapshot["fading_state"], legacy):
        assert got.keys() == want.keys()
        assert got["rng_state"] == want["rng_state"]
        assert got["started"] == want["started"]
        assert got["last_distance_km"] == want["last_distance_km"]
        if want["last"] is None:
            assert got["last"] is None
        else:
            assert got["last"].tobytes() == want["last"].tobytes()

    # ... and a checkpoint holding the streams' own states resumes
    # through the bank to the uninterrupted run's bytes
    snapshot["fading_state"] = legacy
    checkpoint_path(crashed).write_bytes(pickle.dumps(state))
    resumed = run(spec, crashed)
    assert pickle.dumps(resumed) == pickle.dumps(reference)
