#!/usr/bin/env python3
"""Heterogeneous fleet populations: cohorts from mobility to metrics.

Walks through the population layer (`repro.sim.population`):

1. describe a mixed fleet declaratively — cohorts with their own
   mobility model, speed distribution, fading profile and (optionally)
   handover policy;
2. expand it deterministically: every UE's walk seed, speed and fading
   stream is a pure function of its *global* index, so any sharding
   reproduces the unsharded run bit-for-bit;
3. run it through the sharded fleet layer and compare the per-cohort
   ping-pong / outage / signalling trade-off — the fleet analogue of
   the X10 QoS frontier.

The CLI front-end for the same machinery:

    PYTHONPATH=src python -m repro fleet --ues 500 --population urban_mix

Run:  PYTHONPATH=src python examples/heterogeneous_fleet.py
"""

from repro.mobility import GaussMarkov, RandomWalk
from repro.sim import (
    FleetSpec,
    PolicyConfig,
    PopulationSpec,
    SimulationParameters,
    UECohort,
    named_population,
    run_fleet,
)


def main() -> None:
    params = SimulationParameters(measurement_spacing_km=0.1)

    # ------------------------------------------------------------------
    # 1. A named mix from the registry: pedestrians, vehicles and
    #    (micro-mobile) stationary users, sized by fractions.
    # ------------------------------------------------------------------
    pop = named_population("urban_mix", n_ues=240, params=params)
    for cohort, lo, hi in pop.cohort_slices():
        print(f"  cohort {cohort.name:<12} UEs [{lo:3d}, {hi:3d})  "
              f"model {type(cohort.model).__name__}")
    print()

    # ------------------------------------------------------------------
    # 2. Sharding never changes the physics — cohort expansion is a
    #    function of the global UE index.
    # ------------------------------------------------------------------
    spec = FleetSpec.from_population(pop)
    unsharded = run_fleet(spec, n_shards=1)
    sharded = run_fleet(spec, n_shards=4)
    assert sharded == unsharded
    print(f"fleet      : {sharded.n_ues} UEs, "
          f"{sharded.n_epochs_total} epochs "
          f"(1 shard == 4 shards: {sharded == unsharded})")
    print()

    # ------------------------------------------------------------------
    # 3. The per-cohort QoS frontier: who pays in signalling, who pays
    #    in camping on the wrong BS?
    # ------------------------------------------------------------------
    print("per-cohort QoS frontier:")
    for cm in sharded.per_cohort():
        print(f"  {cm.describe(12)}")
    print()

    # ------------------------------------------------------------------
    # 4. Custom cohorts: per-cohort fading and handover policy.  A
    #    highway cohort on a persistent Gauss-Markov walk with heavy
    #    shadowing and an eager FLC threshold, next to calm pedestrians.
    # ------------------------------------------------------------------
    custom = PopulationSpec(
        n_ues=120,
        cohorts=(
            UECohort(
                name="pedestrian",
                model=RandomWalk(n_walks=10, mean_step_km=0.35,
                                 step_sigma_km=0.12),
                fraction=0.6,
                speed_range_kmh=(3.0, 6.0),
            ),
            UECohort(
                name="highway",
                model=GaussMarkov(n_steps=10, alpha=0.9,
                                  mean_speed_km=0.55, sigma_km=0.12),
                fraction=0.4,
                speed_range_kmh=(70.0, 120.0),
                shadow_sigma_db=4.0,
                policy=PolicyConfig(threshold=0.6),
            ),
        ),
        params=params,
    )
    fleet = run_fleet(FleetSpec.from_population(custom), n_shards=2)
    print("custom mix (per-cohort fading + policy):")
    for cm in fleet.per_cohort():
        print(f"  {cm.describe(12)}")


if __name__ == "__main__":
    main()
