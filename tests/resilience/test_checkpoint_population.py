"""Checkpointed runs of every single-policy fleet.

A checkpointed run is the same fleet as :func:`~repro.sim.fleet.
run_fleet` — same bytes, cohort labels included — for a homogeneous
spec and for a cohort mix whose UEs do not all fade, and a crash between
shard writes resumes into exactly that result.
"""

from __future__ import annotations

import pickle
from dataclasses import replace

import pytest

from repro.resilience import (
    FaultPlan,
    FaultRule,
    SimulatedCrash,
    load_checkpoint,
    run_fleet_checkpointed,
)
from repro.sim import (
    FleetSpec,
    PopulationSpec,
    SimulationParameters,
    run_fleet,
)
from repro.sim.population import POPULATION_MIXES

pytestmark = pytest.mark.resilience

CRASH_BEFORE_SECOND_WRITE = FaultPlan(
    seed=1,
    rules=(FaultRule(scope="checkpoint", mode="crash", after=2),),
)


def homogeneous_spec(shadow_sigma_db: float) -> FleetSpec:
    return FleetSpec(
        n_ues=7,
        n_walks=2,
        params=SimulationParameters(shadow_sigma_db=shadow_sigma_db),
    )


def urban_spec() -> FleetSpec:
    """13 UEs of urban_mix under 6 dB, with the stationary cohort (UEs
    6-8) at ``shadow_sigma_db=0``: the fleet fades, those UEs do not."""
    cohorts = tuple(
        replace(c, shadow_sigma_db=0.0) if c.name == "stationary" else c
        for c in POPULATION_MIXES["urban_mix"]
    )
    return FleetSpec.from_population(
        PopulationSpec(
            n_ues=13,
            cohorts=cohorts,
            params=SimulationParameters(shadow_sigma_db=6.0),
            base_seed=9,
        )
    )


SPECS = {
    "homogeneous-0dB": lambda: homogeneous_spec(0.0),
    "homogeneous-6dB": lambda: homogeneous_spec(6.0),
    "urban-6dB": urban_spec,
}


def frozen(obj) -> bytes:
    return pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)


def run(spec, directory, n_shards, fault_plan=None):
    return run_fleet_checkpointed(
        spec,
        checkpoint_dir=directory,
        n_shards=n_shards,
        fault_plan=fault_plan,
    )


@pytest.mark.parametrize("n_shards", [1, 4])
@pytest.mark.parametrize("name", sorted(SPECS))
def test_checkpointed_equals_run_fleet(tmp_path, name, n_shards):
    spec = SPECS[name]()
    checkpointed = run(spec, tmp_path, n_shards)
    assert checkpointed.cohort_names == spec.population.cohort_names
    assert frozen(checkpointed) == frozen(run_fleet(spec, n_shards=n_shards))


@pytest.mark.parametrize("n_shards", [2, 4])
def test_urban_crash_then_resume_is_byte_identical(tmp_path, n_shards):
    """The ranges hold fading and non-fading UEs of three cohorts; the
    resumed run merges the loaded and the rerun ranges into the plain
    run's bytes."""
    spec = urban_spec()
    with pytest.raises(SimulatedCrash):
        run(spec, tmp_path, n_shards, fault_plan=CRASH_BEFORE_SECOND_WRITE)
    assert len(load_checkpoint(tmp_path, spec, n_shards=n_shards)) == 1
    assert frozen(run(spec, tmp_path, n_shards)) == frozen(run_fleet(spec))
