"""Crash-safe checkpoint/resume byte-identity.

The contract: a checkpointed fleet run killed at *any* point — an
injected crash before a shard write in process, or a real SIGKILL of
the CLI — reruns only the shards without a file and finishes with a
:class:`~repro.sim.metrics.FleetMetrics` byte-identical to the
uninterrupted run and to :func:`~repro.sim.fleet.run_fleet`.
"""

from __future__ import annotations

import os
import pickle
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest

from repro.__main__ import main
from repro.resilience import (
    CheckpointError,
    FaultPlan,
    FaultRule,
    SimulatedCrash,
    checkpoint,
    checkpoint_ranges,
    load_checkpoint,
    run_fleet_checkpointed,
    shard_path,
)
from repro.sim import (
    FleetSpec,
    PopulationSpec,
    SimulationParameters,
    measurement,
    run_fleet,
)

pytestmark = pytest.mark.resilience

#: Most UEs per checkpointed range in this module's in-process runs, so
#: small fleets split into ranges as large ones do.
SHARD_UES = 5


@pytest.fixture(autouse=True)
def small_shards(monkeypatch):
    monkeypatch.setattr(checkpoint, "CHECKPOINT_SHARD_UES", SHARD_UES)


def make_spec(n_ues: int, shadow_sigma_db: float = 0.0) -> FleetSpec:
    return FleetSpec(
        n_ues=n_ues,
        n_walks=2,
        base_seed=1000,
        params=SimulationParameters(shadow_sigma_db=shadow_sigma_db),
    )


def frozen(obj) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def crash_before_write(k: int) -> FaultPlan:
    """A plan that kills the run before its ``k``-th shard write."""
    return FaultPlan(
        seed=1, rules=(FaultRule(scope="checkpoint", mode="crash", after=k),)
    )


def run(spec, directory, n_shards=1, fault_plan=None):
    return run_fleet_checkpointed(
        spec,
        checkpoint_dir=directory,
        n_shards=n_shards,
        fault_plan=fault_plan,
    )


def plain(spec) -> bytes:
    return frozen(run_fleet(spec, max_workers=1))


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
    # the second write, or the only one of a one-range fleet
    crash_at = min(2, len(checkpoint_ranges(n_ues, n_shards)))
    with pytest.raises(SimulatedCrash):
        run(spec, tmp_path, n_shards, fault_plan=crash_before_write(crash_at))
    # the crash struck before its write: the ranges before it are on disk
    done = load_checkpoint(tmp_path, spec, n_shards=n_shards)
    assert len(done) == crash_at - 1

    resumed = run(spec, tmp_path, n_shards)
    assert frozen(resumed) == plain(spec)


def test_immediate_crash_resumes_from_scratch(tmp_path):
    """A crash before the *first* write leaves no shard file — resume
    degenerates to a fresh run and still matches."""
    spec = make_spec(7)
    with pytest.raises(SimulatedCrash):
        run(spec, tmp_path, fault_plan=crash_before_write(1))
    assert list(tmp_path.glob("shard-*")) == []
    assert frozen(run(spec, tmp_path)) == plain(spec)


def test_completed_run_short_circuits(tmp_path, monkeypatch):
    spec = make_spec(7)
    first = run(spec, tmp_path)

    def rerun(*args, **kwargs):
        raise AssertionError("a finished range ran again")

    # a re-invocation loads every range from its file and runs none
    monkeypatch.setattr(PopulationSpec, "run_metrics", rerun)
    assert frozen(run(spec, tmp_path)) == frozen(first)


def test_repeated_crashes_still_converge(tmp_path):
    """Every re-run writes one more range and dies at its next write,
    so the run completes on its ``n_ranges``-th attempt."""
    spec = make_spec(5, shadow_sigma_db=6.0)
    n_ranges = len(checkpoint_ranges(5, 4))
    result = None
    for attempt in range(1, n_ranges + 1):
        try:
            result = run(spec, tmp_path, 4, fault_plan=crash_before_write(2))
            break
        except SimulatedCrash:
            assert len(load_checkpoint(tmp_path, spec, n_shards=4)) == attempt
    assert result is not None, "run never completed"
    assert attempt == n_ranges
    assert frozen(result) == plain(spec)


# ----------------------------------------------------------------------
# guard rails
# ----------------------------------------------------------------------
def test_fingerprint_mismatch_raises(tmp_path):
    spec = make_spec(7)
    with pytest.raises(SimulatedCrash):
        run(spec, tmp_path, fault_plan=crash_before_write(2))
    named = re.escape(f"{shard_path(tmp_path, 0, 4)} belongs to another")
    with pytest.raises(CheckpointError, match=named):
        run(spec, tmp_path, n_shards=3)
    with pytest.raises(CheckpointError, match=named):
        run(make_spec(8), tmp_path)
    with pytest.raises(CheckpointError, match=named):
        run_fleet_checkpointed(spec, checkpoint_dir=tmp_path, window_km=0.25)


def test_tile_size_is_not_in_the_fingerprint(tmp_path):
    """No result depends on the tile size, so a run crashed with
    4-epoch tiles resumes with the default ones."""
    spec = make_spec(7, shadow_sigma_db=6.0)
    with mock.patch.object(measurement, "DEFAULT_TILE_EPOCHS", 4):
        with pytest.raises(SimulatedCrash):
            run(spec, tmp_path, fault_plan=crash_before_write(2))
    assert frozen(run(spec, tmp_path)) == plain(spec)


def test_malformed_checkpoint_raises(tmp_path):
    """A ``fleet.ckpt`` of the single-file format, garbage included, is
    refused by name before anything runs."""
    legacy = tmp_path / "fleet.ckpt"
    legacy.write_bytes(b"garbage\n")
    with pytest.raises(CheckpointError, match=re.escape(f"{legacy} is a")):
        run(make_spec(2), tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == ["fleet.ckpt"]


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
    with mock.patch.object(measurement, "DEFAULT_TILE_EPOCHS", tile_epochs):
        with pytest.raises(ValueError, match="tile_epochs"):
            run(spec, tmp_path)
    assert list(tmp_path.glob("shard-*")) == []


def mixed_policy_spec() -> FleetSpec:
    """Three policies with fading, one cohort on a two-epoch CSSP lag
    beside one-epoch cohorts."""
    from repro.mobility import RandomWalk
    from repro.sim import PolicyConfig, UECohort

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
    """A range is one batch pass whatever its UEs' policies, so a
    mixed-policy population checkpoints to exactly ``run_fleet``'s
    bytes — in 2 ranges and in 4, where ranges mix two lags."""
    spec = mixed_policy_spec()
    for n_shards in (1, 4):
        got = run(spec, tmp_path / str(n_shards), n_shards=n_shards)
        assert frozen(got) == plain(spec)


def test_mixed_policy_crash_then_resume_is_byte_identical(tmp_path):
    spec = mixed_policy_spec()
    for n_shards in (1, 4):
        crashed = tmp_path / str(n_shards)
        with pytest.raises(SimulatedCrash):
            run(
                spec,
                crashed,
                n_shards=n_shards,
                fault_plan=crash_before_write(2),
            )
        assert len(load_checkpoint(crashed, spec, n_shards=n_shards)) == 1
        assert frozen(run(spec, crashed, n_shards=n_shards)) == plain(spec)


def test_checkpoint_writes_are_atomic(tmp_path):
    """No ``.tmp`` residue survives a completed run: the directory holds
    exactly one file per range."""
    spec = make_spec(7)
    run(spec, tmp_path, n_shards=3)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        shard_path(tmp_path, lo, hi).name
        for lo, hi in checkpoint_ranges(7, 3)
    )


def test_no_write_replaces_a_file(tmp_path, monkeypatch):
    """Each write fsyncs a temporary file and renames it onto a name no
    file holds; nothing replaces a file, also across a crash and two
    resumes."""
    events = []
    real_rename, real_fsync = os.rename, os.fsync

    def rename(src, dst):
        assert not os.path.exists(dst), f"{dst} would be replaced"
        events.append(Path(dst).name)
        real_rename(src, dst)

    def fsync(fd):
        events.append("fsync")
        real_fsync(fd)

    def replace(src, dst):
        raise AssertionError(f"os.replace onto {dst}")

    monkeypatch.setattr(os, "rename", rename)
    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    spec = make_spec(7)
    with pytest.raises(SimulatedCrash):
        run(spec, tmp_path, n_shards=3, fault_plan=crash_before_write(2))
    run(spec, tmp_path, n_shards=3)
    run(spec, tmp_path, n_shards=3)
    names = [shard_path(tmp_path, *r).name for r in checkpoint_ranges(7, 3)]
    assert events == [e for name in names for e in ("fsync", name)]


# ----------------------------------------------------------------------
# the real thing: SIGKILL the CLI between shard writes
# ----------------------------------------------------------------------
def sigkill_then_resume(tmp_path, fleet_args, n_ranges):
    """SIGKILL ``repro fleet <fleet_args> --checkpoint`` as soon as its
    first shard file lands, check that the kill left some of its
    ``n_ranges`` files unwritten, resume it, and compare its metrics
    pickle with the plain run's."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    reference = tmp_path / "plain.pkl"
    resumed = tmp_path / "resumed.pkl"
    victim_dir = tmp_path / "victim"
    command = [
        sys.executable, "-m", "repro", "fleet", *fleet_args,
        "--checkpoint", str(victim_dir), "--metrics-out", str(resumed),
    ]
    proc = subprocess.Popen(
        command, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
    )
    try:
        deadline = time.monotonic() + 120.0
        while not any(victim_dir.glob("shard-*.json")):
            assert proc.poll() is None, "the victim exited before any write"
            assert time.monotonic() < deadline, "no shard file in 120 s"
            time.sleep(0.001)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:  # pragma: no cover - safety net
            proc.kill()
            proc.wait(timeout=30)
    assert proc.returncode == -signal.SIGKILL
    written = len(list(victim_dir.glob("shard-*.json")))
    assert 1 <= written < n_ranges, (
        f"{written} of {n_ranges} shard files at kill time"
    )

    subprocess.run(
        command, env=env, check=True, capture_output=True, timeout=300
    )
    assert main(["fleet", *fleet_args, "--metrics-out", str(reference)]) == 0
    assert resumed.read_bytes() == reference.read_bytes()


@pytest.mark.slow
def test_sigkill_between_checkpoints_resumes_byte_identical(tmp_path):
    sigkill_then_resume(
        tmp_path, ["--ues", "1800", "--shards", "6"], 6
    )


@pytest.mark.slow
def test_sigkill_population_between_checkpoints_resumes_byte_identical(
    tmp_path,
):
    sigkill_then_resume(
        tmp_path,
        ["--ues", "3000", "--population", "urban_mix", "--shards", "6"],
        6,
    )
