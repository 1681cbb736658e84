"""X20 — crash-recovery time of the checkpointed fleet runner.

Times three runs of the same checkpointed workload
(:func:`~repro.resilience.run_fleet_checkpointed`), a fleet in
:data:`SHARDS` ranges:

* **uninterrupted** — the baseline, writing one file per range;
* **crashed** — the identical run killed by an injected
  ``checkpoint``-scope crash before the middle range's write, after
  that range has run;
* **resume** — the run restarted on the crashed directory, loading the
  written ranges and rerunning the others from their first epoch.

Pins the recovery SLO: crashed + resume wall-clock at most
``X20_RECOVERY_RATIO`` (default 1.6) times the uninterrupted run — the
price of dying halfway is the range in flight, not the fleet — and
re-asserts the resumed ``FleetMetrics`` are byte-identical to the
uninterrupted run at bench size.

Headline numbers land in ``BENCH_x20.json`` (same schema as X12–X19)
**before** any assert.

Environment knobs: ``X20_FLEET_SIZE`` (default 2000), ``X20_WALKS``
(default 5), ``X20_RECOVERY_RATIO`` (default 1.6).  CI smoke runs a
tiny fleet; the SLO pin asserts only at the full N = 2000.
"""

import os
import pickle
import time

import pytest
from conftest import write_bench_artifact

from repro.resilience import (
    FaultPlan,
    FaultRule,
    SimulatedCrash,
    checkpoint_ranges,
    run_fleet_checkpointed,
)
from repro.sim import FleetSpec, SimulationParameters

N = int(os.environ.get("X20_FLEET_SIZE", "2000"))
WALKS = int(os.environ.get("X20_WALKS", "5"))
RECOVERY_RATIO = float(os.environ.get("X20_RECOVERY_RATIO", "1.6"))
N_ACCEPT = 2000         # the acceptance-criterion fleet size
SHARDS = 4              # at N = 2000, one range would have no middle
TIMER_SLACK_S = 0.25    # absolute allowance for scheduler noise

PARAMS = SimulationParameters(shadow_sigma_db=6.0, n_walks=WALKS)
SPEC = FleetSpec(n_ues=N, n_walks=WALKS, base_seed=7000, params=PARAMS)


def frozen(obj) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def timed_run(directory, fault_plan=None):
    """One checkpointed run; ``None`` for a run the fault plan killed."""
    t0 = time.perf_counter()
    try:
        result = run_fleet_checkpointed(
            SPEC,
            checkpoint_dir=directory,
            n_shards=SHARDS,
            fault_plan=fault_plan,
        )
    except SimulatedCrash:
        result = None
    return result, time.perf_counter() - t0


@pytest.mark.resilience
def test_x20_crash_recovery_time(tmp_path):
    n_ranges = len(checkpoint_ranges(N, SHARDS))
    reference, t_full = timed_run(tmp_path / "uninterrupted")

    # the crash lands before the middle range's write
    crash_at = n_ranges // 2 + 1
    plan = FaultPlan(
        seed=20,
        rules=(
            FaultRule(scope="checkpoint", mode="crash", after=crash_at),
        ),
    )

    victim_dir = tmp_path / "victim"
    crashed, t_crashed = timed_run(victim_dir, fault_plan=plan)
    assert crashed is None, "the injected crash never fired"
    resumed, t_resume = timed_run(victim_dir)

    t_recovery = t_crashed + t_resume
    overhead = t_recovery / t_full if t_full > 0 else float("inf")
    write_bench_artifact(
        "x20",
        n=N,
        timings_s={
            "uninterrupted_s": t_full,
            "crashed_run_s": t_crashed,
            "resume_s": t_resume,
            "recovery_total_s": t_recovery,
        },
        speedups={"recovery_overhead": overhead},
        walks=WALKS,
        n_ranges=n_ranges,
        crash_before_write=crash_at,
        recovery_ratio_max=RECOVERY_RATIO,
        byte_identical=bool(frozen(resumed) == frozen(reference)),
    )

    # identity is non-negotiable at every size
    assert frozen(resumed) == frozen(reference)
    if N >= N_ACCEPT:
        assert t_recovery <= RECOVERY_RATIO * t_full + TIMER_SLACK_S, (
            f"recovery took {t_recovery:.2f}s vs uninterrupted "
            f"{t_full:.2f}s (ratio {overhead:.2f}, "
            f"max {RECOVERY_RATIO})"
        )
