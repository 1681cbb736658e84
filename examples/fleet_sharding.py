#!/usr/bin/env python3
"""Sharded fleet execution: one fleet, many workers, identical physics.

Walks through the sharded fleet API layer by layer:

1. describe a fleet as a picklable :class:`FleetSpec`, whose
   population is the fleet;
2. partition it into contiguous ``[lo, hi)`` UE ranges with
   :func:`partition_fleet`;
3. run each range through the population (streaming metrics, O(range)
   memory) and merge them with :func:`merge_fleet_metrics`;
4. let :func:`run_fleet` do all of that over serial or process
   executors — and verify the merged metrics are *bit-identical* to the
   unsharded batch engine.

The CLI front-end for the same machinery:

    PYTHONPATH=src python -m repro fleet --ues 2000 --shards 4 --workers 4

Run:  PYTHONPATH=src python examples/fleet_sharding.py
"""

from repro.sim import (
    FleetSpec,
    ProcessExecutor,
    SimulationParameters,
    compute_fleet_metrics,
    default_workers,
    merge_fleet_metrics,
    partition_fleet,
    run_fleet,
)


def main() -> None:
    # ------------------------------------------------------------------
    # 1. A fleet is a small, picklable spec: walk seeds, the speed
    #    cycle and physics all derive from global UE indices, which is
    #    what makes sharding deterministic.
    # ------------------------------------------------------------------
    params = SimulationParameters(measurement_spacing_km=0.1)
    spec = FleetSpec(
        n_ues=24,
        n_walks=5,
        base_seed=1000,
        speeds_kmh=(0.0, 20.0, 50.0),
        params=params,
    )
    population = spec.population
    seeds = population.walk_seeds()
    print(f"fleet spec : {spec.n_ues} UEs, seeds {seeds[0]}..{seeds[-1]}")
    print()

    # ------------------------------------------------------------------
    # 2. Partition into contiguous shards; a shard is a global UE range
    #    of the population, so the population rebuilds its slice of the
    #    fleet anywhere — including in another process.
    # ------------------------------------------------------------------
    shards = partition_fleet(spec.n_ues, 4)
    for lo, hi in shards:
        seeds = population.walk_seeds(lo, hi)
        print(f"  shard [{lo:2d}, {hi:2d})  "
              f"seeds {seeds[0]}..{seeds[-1]}  "
              f"speeds {population.ue_speeds(lo, hi)[:3]} ...")
    print()

    # ------------------------------------------------------------------
    # 3. Run each shard with streaming metrics (per-epoch counters, no
    #    full histories) and merge.  The merge is exact — integer
    #    counters plus order-insensitive float reductions.
    # ------------------------------------------------------------------
    merged = merge_fleet_metrics(
        [population.run_metrics(lo, hi) for lo, hi in shards]
    )
    print(f"merged     : {merged.n_handovers} handovers, "
          f"{merged.n_ping_pongs} ping-pongs, "
          f"wrong-BS {merged.wrong_cell_fraction:.4f}")

    # ------------------------------------------------------------------
    # 4. The unsharded reference: one BatchSimulator over the whole
    #    fleet, metrics computed post-hoc from the full log.
    # ------------------------------------------------------------------
    unsharded = compute_fleet_metrics(
        population.simulator().run(population.measure())
    )
    print(f"unsharded  : {unsharded.n_handovers} handovers, "
          f"{unsharded.n_ping_pongs} ping-pongs, "
          f"wrong-BS {unsharded.wrong_cell_fraction:.4f}")
    assert merged == unsharded
    print("sharded == unsharded: bit-identical metrics")
    print()

    # ------------------------------------------------------------------
    # 5. run_fleet wraps partition + execute + merge behind one call;
    #    the executor backend is pluggable (serial in-process, process
    #    pool, or anything implementing Executor.map).
    # ------------------------------------------------------------------
    pooled = run_fleet(spec, n_shards=4, max_workers=default_workers())
    assert pooled == unsharded
    custom = run_fleet(spec, n_shards=4, executor=ProcessExecutor(2))
    assert custom == unsharded
    print(f"run_fleet  : {pooled.n_ues} UEs over 4 shards "
          f"({default_workers()} default workers) -> same metrics")
    print()
    print("per-UE counters survive the merge, e.g. handovers/UE:",
          pooled.handovers_per_ue.tolist())


if __name__ == "__main__":
    main()
