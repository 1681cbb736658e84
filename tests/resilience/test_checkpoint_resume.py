"""Crash-safe checkpoint/resume byte-identity.

The contract: a checkpointed fleet run killed at *any* point — an
injected crash between snapshot writes in-process, or a real SIGKILL of
the CLI — resumes from the last checkpoint and finishes with a
:class:`~repro.sim.metrics.FleetMetrics` byte-identical to the
uninterrupted run.
"""

from __future__ import annotations

import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest

from repro.resilience import (
    CheckpointError,
    FaultPlan,
    FaultRule,
    SimulatedCrash,
    checkpoint_path,
    load_checkpoint,
    run_fleet_checkpointed,
)
from repro.sim import FleetSpec, SimulationParameters, measurement, run_fleet

pytestmark = pytest.mark.resilience

TILE = 4


def make_spec(n_ues: int, shadow_sigma_db: float = 0.0) -> FleetSpec:
    return FleetSpec(
        n_ues=n_ues,
        n_walks=2,
        base_seed=1000,
        params=SimulationParameters(shadow_sigma_db=shadow_sigma_db),
    )


def frozen(obj) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)

CRASH_AT_SECOND_CHECKPOINT = FaultPlan(
    seed=1,
    rules=(FaultRule(scope="checkpoint", mode="crash", after=2),),
)


def run(spec, directory, n_shards=1, fault_plan=None, tile=TILE):
    """A checkpointed run in ``tile``-epoch tiles, so with a snapshot
    every ``tile`` epochs."""
    with mock.patch.object(measurement, "DEFAULT_TILE_EPOCHS", tile):
        return run_fleet_checkpointed(
            spec,
            checkpoint_dir=directory,
            n_shards=n_shards,
            fault_plan=fault_plan,
        )


# ----------------------------------------------------------------------
# the resume matrix: fleet size x shards x fading
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n_ues", [1, 7, 32])
@pytest.mark.parametrize("n_shards", [1, 4])
@pytest.mark.parametrize("sigma", [0.0, 6.0])
def test_crash_then_resume_is_byte_identical(
    tmp_path, n_ues, n_shards, sigma
):
    if n_shards > n_ues:
        pytest.skip("more shards than UEs")
    spec = make_spec(n_ues, shadow_sigma_db=sigma)
    reference = run(spec, tmp_path / "ref", n_shards=n_shards)

    crashed = tmp_path / "crashed"
    with pytest.raises(SimulatedCrash):
        run(
            spec,
            crashed,
            n_shards=n_shards,
            fault_plan=CRASH_AT_SECOND_CHECKPOINT,
        )
    # the crash struck before the due write: on-disk state lags the run
    state = load_checkpoint(crashed)
    assert state is not None and state["result"] is None

    resumed = run(spec, crashed, n_shards=n_shards)
    assert frozen(resumed) == frozen(reference)


def test_immediate_crash_resumes_from_scratch(tmp_path):
    """A crash before the *first* write leaves no checkpoint at all —
    resume degenerates to a fresh run and still matches."""
    spec = make_spec(3)
    reference = run(spec, tmp_path / "ref")
    crashed = tmp_path / "crashed"
    plan = FaultPlan(
        rules=(FaultRule(scope="checkpoint", mode="crash", after=1),)
    )
    with pytest.raises(SimulatedCrash):
        run(spec, crashed, fault_plan=plan)
    assert load_checkpoint(crashed) is None
    assert frozen(run(spec, crashed)) == frozen(reference)


def test_completed_run_short_circuits(tmp_path):
    spec = make_spec(2)
    first = run(spec, tmp_path)
    # the stored result is returned as-is on a re-invocation
    assert frozen(run(spec, tmp_path)) == frozen(first)


def test_repeated_crashes_still_converge(tmp_path):
    """Every re-run dies at its next checkpoint; progress still
    accumulates monotonically until the run completes."""
    spec = make_spec(5, shadow_sigma_db=6.0)
    reference = run(spec, tmp_path / "ref")
    crashed = tmp_path / "crashed"
    plan = FaultPlan(
        rules=(
            FaultRule(scope="checkpoint", mode="crash", after=2),
        )
    )
    result = None
    for _ in range(40):
        try:
            result = run(spec, crashed, fault_plan=plan)
            break
        except SimulatedCrash:
            continue
    assert result is not None, "run never completed"
    assert frozen(result) == frozen(reference)


# ----------------------------------------------------------------------
# guard rails
# ----------------------------------------------------------------------
def test_fingerprint_mismatch_raises(tmp_path):
    spec = make_spec(4)
    with pytest.raises(SimulatedCrash):
        run(spec, tmp_path, fault_plan=FaultPlan(
            rules=(FaultRule(scope="checkpoint", mode="crash", after=2),)
        ))
    with pytest.raises(CheckpointError, match="different workload"):
        run(spec, tmp_path, n_shards=2)
    with pytest.raises(CheckpointError, match="different workload"):
        run(make_spec(5), tmp_path)


def test_fingerprint_binds_the_tile_size(tmp_path):
    """Snapshots fall on tile boundaries, so a run crashed with 4-epoch
    tiles does not resume with 8-epoch ones."""
    spec = make_spec(4)
    with pytest.raises(SimulatedCrash):
        run(spec, tmp_path, fault_plan=CRASH_AT_SECOND_CHECKPOINT, tile=4)
    assert load_checkpoint(tmp_path)["in_progress"] is not None
    with pytest.raises(CheckpointError, match="different workload"):
        run(spec, tmp_path, tile=8)
    # the crashed run still resumes at its own tile size
    assert frozen(run(spec, tmp_path, tile=4)) == frozen(
        run(spec, tmp_path / "ref", tile=8)
    )


def test_malformed_checkpoint_raises(tmp_path):
    checkpoint_path(tmp_path).write_bytes(b"not a pickle")
    with pytest.raises(CheckpointError, match="unreadable"):
        run(make_spec(2), tmp_path)


@pytest.mark.parametrize("tile_epochs", [0, -1])
def test_tile_size_below_one_is_refused(tmp_path, tile_epochs):
    """The tile stream refuses a tile size below 1 by name, so a
    checkpointed run under it stops before its first write."""
    spec = make_spec(2)
    population = spec.population
    with pytest.raises(ValueError, match="tile_epochs"):
        population.make_sampler().measure_batch_tiles(
            population.traces(), tile_epochs
        )
    with pytest.raises(ValueError, match="tile_epochs"):
        run(spec, tmp_path, tile=tile_epochs)
    assert load_checkpoint(tmp_path) is None


def mixed_policy_spec() -> FleetSpec:
    """Three policies with fading, one cohort on a two-epoch CSSP lag
    beside one-epoch cohorts."""
    from repro.mobility import RandomWalk
    from repro.sim import PolicyConfig, PopulationSpec, UECohort

    walk = RandomWalk(n_walks=2)
    population = PopulationSpec(
        n_ues=8,
        cohorts=(
            UECohort(name="eager", model=walk, count=2,
                     policy=PolicyConfig(threshold=0.5)),
            UECohort(name="lagged", model=walk, count=3,
                     policy=PolicyConfig(threshold=0.75, cssp_lag=2)),
            UECohort(name="plain", model=walk, count=3),
        ),
        params=SimulationParameters(shadow_sigma_db=6.0),
        base_seed=1000,
    )
    return FleetSpec.from_population(population)


def test_mixed_policy_population_matches_run_fleet(tmp_path):
    """A shard is one batch pass whatever its UEs' policies, so a
    mixed-policy population checkpoints to exactly ``run_fleet``'s
    bytes — also at 4 shards, where one shard mixes two lags."""
    spec = mixed_policy_spec()
    for n_shards in (1, 4):
        reference = run_fleet(spec, n_shards=n_shards, max_workers=1)
        got = run(spec, tmp_path / str(n_shards), n_shards=n_shards)
        assert frozen(got) == frozen(reference)


def test_mixed_policy_crash_then_resume_is_byte_identical(tmp_path):
    spec = mixed_policy_spec()
    reference = run_fleet(spec, max_workers=1)
    for n_shards in (1, 4):
        crashed = tmp_path / str(n_shards)
        with pytest.raises(SimulatedCrash):
            run(
                spec,
                crashed,
                n_shards=n_shards,
                fault_plan=CRASH_AT_SECOND_CHECKPOINT,
            )
        state = load_checkpoint(crashed)
        assert state is not None and state["result"] is None
        assert frozen(run(spec, crashed, n_shards=n_shards)) == frozen(
            reference
        )


def test_checkpoint_writes_are_atomic(tmp_path):
    """No ``.tmp`` residue survives a completed run."""
    run(make_spec(2), tmp_path)
    leftovers = [
        p for p in Path(tmp_path).iterdir() if p.suffix == ".tmp"
    ]
    assert leftovers == []
    assert checkpoint_path(tmp_path).exists()


# ----------------------------------------------------------------------
# the real thing: SIGKILL the CLI between checkpoints
# ----------------------------------------------------------------------
def sigkill_then_resume(tmp_path, fleet_args):
    """Run ``repro fleet <fleet_args> --checkpoint`` once uninterrupted
    and once SIGKILLed as soon as its first checkpoint lands, then
    resumed; the two metrics pickles must be byte-identical."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(
        Path(__file__).resolve().parents[2] / "src"
    )
    out_a = tmp_path / "uninterrupted.pkl"
    out_b = tmp_path / "resumed.pkl"

    def fleet_cmd(ckpt_dir, metrics_out):
        return [
            sys.executable, "-m", "repro", "fleet", *fleet_args,
            "--checkpoint", str(ckpt_dir),
            "--metrics-out", str(metrics_out),
        ]

    # reference: the same command, never interrupted
    subprocess.run(
        fleet_cmd(tmp_path / "ref", out_a),
        env=env, check=True, capture_output=True, timeout=300,
    )

    # victim: SIGKILL as soon as the first checkpoint lands
    victim_dir = tmp_path / "victim"
    proc = subprocess.Popen(
        fleet_cmd(victim_dir, out_b),
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if checkpoint_path(victim_dir).exists():
                break
            if proc.poll() is not None:
                break
            time.sleep(0.01)
        if proc.poll() is None:
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
    finally:
        if proc.poll() is None:  # pragma: no cover - safety net
            proc.kill()
            proc.wait(timeout=30)

    # resume (a no-op re-run if the victim finished before the kill)
    subprocess.run(
        fleet_cmd(victim_dir, out_b),
        env=env, check=True, capture_output=True, timeout=300,
    )
    with out_a.open("rb") as fh:
        reference = pickle.load(fh)
    with out_b.open("rb") as fh:
        resumed = pickle.load(fh)
    assert frozen(resumed) == frozen(reference)


@pytest.mark.slow
def test_sigkill_between_checkpoints_resumes_byte_identical(tmp_path):
    sigkill_then_resume(tmp_path, ["--ues", "8", "--walks", "2"])


@pytest.mark.slow
def test_sigkill_population_between_checkpoints_resumes_byte_identical(
    tmp_path,
):
    sigkill_then_resume(
        tmp_path, ["--ues", "12", "--population", "urban_mix"]
    )
