"""X13 — sharded fleet execution vs the single-shard batch engine.

The same fleet spec (independent seeded walks, paper physics, streaming
metrics) through ``run_fleet`` with one shard in-process and with
``X13_SHARDS`` shards over ``X13_WORKERS`` pool workers.  Sharding is
bit-identical by construction (the tier-1 suite pins per-UE logs and
merged metrics); the point here is wall-clock scaling on top of PR 1's
X12 vectorisation.

``test_x13_speedup_sharded`` is the ISSUE-2 acceptance check: at
N = 2000 UEs with 4 workers the sharded path must be at least 2× faster
end-to-end than the unsharded batch engine.  The assertion only runs
where it can physically hold (enough cores and the full fleet size);
smaller runs — e.g. the CI smoke at tiny N — still verify that the
sharded metrics merge to exactly the unsharded result.

``test_x13_blocks`` re-measures the floor below which
``PopulationSpec.run_metrics`` keeps a fleet range in one UE block:
one block against two, in alternating rounds, at twice
``MIN_BLOCK_UES`` on the ``lut`` and the ``reference`` FLC.  It asserts
equal metrics bytes and records the ratios in
``BENCH_x13_blocks.json``; it asserts no speed ratio, because a second
vCPU that another process holds makes two blocks lose without any
change to the program.

Environment knobs: ``X13_FLEET_SIZE`` (default 2000), ``X13_SHARDS``
(default 4), ``X13_WORKERS`` (default 4); ``X13_BLOCK_UES`` (UEs per
block in every block case, default ``MIN_BLOCK_UES``).
"""

import os
import pickle
import statistics
import time
from unittest import mock

import pytest
from conftest import run_measured, run_once, write_bench_artifact

from repro import fanout
from repro.sim import FleetSpec, SimulationParameters, population, run_fleet
from repro.sim.population import MIN_BLOCK_UES

N = int(os.environ.get("X13_FLEET_SIZE", "2000"))
SHARDS = int(os.environ.get("X13_SHARDS", "4"))
WORKERS = int(os.environ.get("X13_WORKERS", "4"))
N_ACCEPT = 2000     # the acceptance-criterion fleet size
BLOCK_UES = int(os.environ.get("X13_BLOCK_UES", str(MIN_BLOCK_UES)))
BLOCK_PAIRS = 10

PARAMS = SimulationParameters(n_walks=8)
SPEC = FleetSpec(
    n_ues=N,
    n_walks=8,
    base_seed=3000,
    params=PARAMS,
)


def run_unsharded():
    return run_fleet(SPEC, n_shards=1)


def run_sharded():
    return run_fleet(SPEC, n_shards=SHARDS, max_workers=WORKERS)


@pytest.mark.benchmark(group="x13-sharded-fleet")
def test_x13_unsharded_fleet(benchmark):
    fleet = run_once(benchmark, run_unsharded)
    assert fleet.n_ues == N


@pytest.mark.benchmark(group="x13-sharded-fleet")
def test_x13_sharded_fleet(benchmark):
    fleet = run_once(benchmark, run_sharded)
    assert fleet.n_ues == N


def test_x13_speedup_sharded():
    """ISSUE-2 acceptance: >= 2x over the unsharded batch engine at
    N = 2000 with 4 workers (asserted where the hardware allows)."""
    sharded, t_sharded, mem_sharded = run_measured(run_sharded)
    unsharded, t_unsharded, mem_unsharded = run_measured(run_unsharded)

    # sharding must never change the physics, whatever the fleet size
    assert sharded == unsharded

    speedup = t_unsharded / t_sharded
    print(
        f"\nx13: unsharded {t_unsharded:.2f} s, "
        f"{SHARDS} shards x {WORKERS} workers {t_sharded:.2f} s "
        f"-> {speedup:.2f}x over {N} UEs"
    )
    write_bench_artifact(
        "x13",
        n=N,
        timings_s={"unsharded": t_unsharded, "sharded": t_sharded},
        speedups={"sharded_vs_unsharded": speedup},
        memory={
            "tracemalloc_peak_unsharded": mem_unsharded,
            "tracemalloc_peak_sharded": mem_sharded,
        },
        shards=SHARDS,
        workers=WORKERS,
    )
    cores = os.cpu_count() or 1
    if N < N_ACCEPT:
        pytest.skip(
            f"speedup asserted at N={N_ACCEPT}, ran N={N} (smoke mode)"
        )
    if cores < WORKERS:
        pytest.skip(
            f"speedup needs >= {WORKERS} cores, host has {cores}"
        )
    assert speedup >= 2.0, (
        f"sharded fleet only {speedup:.2f}x faster than the unsharded "
        f"batch engine (target 2x at N={N}, {WORKERS} workers)"
    )


def run_blocks(spec: FleetSpec, n_blocks: int) -> tuple[float, bytes]:
    """Seconds and metrics pickle of ``spec`` run as ``n_blocks`` UE
    blocks (one or two)."""
    floor = spec.n_ues + 1 if n_blocks == 1 else spec.n_ues // 2
    with mock.patch.object(population, "MIN_BLOCK_UES", floor), \
            mock.patch.object(fanout, "usable_cpus", lambda: 2):
        t0 = time.perf_counter()
        metrics = run_fleet(spec, max_workers=1)
        return time.perf_counter() - t0, pickle.dumps(metrics)


def test_x13_blocks():
    """One UE block against two at twice the floor: identical bytes;
    the speed ratios are recorded, not asserted."""
    cases = {}
    for flc in ("lut", "reference"):
        spec = FleetSpec(
            n_ues=2 * BLOCK_UES,
            base_seed=3100,
            params=SimulationParameters(flc_backend=flc),
        )
        # the first pair builds the LUT and fills the caches
        assert run_blocks(spec, 1)[1] == run_blocks(spec, 2)[1], (
            f"two UE blocks changed the {flc} metrics at {spec.n_ues} UEs"
        )
        rounds = {"one_block": [], "two_blocks": []}
        for pair in range(BLOCK_PAIRS):
            order = (1, 2) if pair % 2 == 0 else (2, 1)
            for n_blocks in order:
                label = "one_block" if n_blocks == 1 else "two_blocks"
                rounds[label].append(run_blocks(spec, n_blocks)[0])
        medians = {k: statistics.median(v) for k, v in rounds.items()}
        ratio = medians["one_block"] / medians["two_blocks"]
        wins = sum(
            two < one
            for one, two in zip(rounds["one_block"], rounds["two_blocks"])
        )
        cases[f"{flc}_{spec.n_ues}"] = {
            "flc_backend": flc,
            "n_ues": spec.n_ues,
            "rounds_s": rounds,
            "median_s": medians,
            "two_blocks_vs_one": ratio,
            "two_block_wins": wins,
        }
        print(
            f"\nx13 blocks: {flc} {spec.n_ues} UEs, one block "
            f"{medians['one_block']:.3f} s, two "
            f"{medians['two_blocks']:.3f} s ({ratio:.2f}x, two won "
            f"{wins}/{BLOCK_PAIRS})"
        )
    write_bench_artifact(
        "x13_blocks",
        timings_s={
            f"{name}_{label}": case["median_s"][label]
            for name, case in cases.items()
            for label in ("one_block", "two_blocks")
        },
        speedups={
            f"{name}_two_blocks_vs_one": case["two_blocks_vs_one"]
            for name, case in cases.items()
        },
        usable_cpus=fanout.usable_cpus(),
        pairs=BLOCK_PAIRS,
        min_block_ues=MIN_BLOCK_UES,
        cases=cases,
    )
