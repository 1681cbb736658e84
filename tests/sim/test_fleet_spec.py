"""A :class:`~repro.sim.fleet.FleetSpec` always describes its fleet as
one :class:`~repro.sim.population.PopulationSpec`, and refuses a
population that contradicts its own fields."""

import dataclasses
import inspect

import pytest

from repro import experiments, sim
from repro.sim import (
    PAPER_SPEEDS_KMH,
    FleetSpec,
    PopulationSpec,
    SimulationParameters,
    named_population,
    partition_fleet,
    run_fleet,
)

FAST = SimulationParameters(measurement_spacing_km=0.2)


def urban(n_ues=6, base_seed=9):
    return named_population("urban_mix", n_ues, FAST, base_seed=base_seed)


class TestDefaultPopulation:
    def test_homogeneous_fields_build_the_default_cohort(self):
        spec = FleetSpec(
            n_ues=5, n_walks=3, base_seed=70, speeds_kmh=(0.0, 40.0),
            params=FAST, fading_base_seed=80,
        )
        pop = spec.population
        assert pop.cohort_names == ("default",)
        assert pop.cohort_counts() == (5,)
        assert pop.base_seed == 70 and pop.fading_base_seed == 80
        assert pop.params == FAST
        assert pop.cohorts[0].model == FAST.make_walk(3)
        assert pop.walk_seeds() == [70, 71, 72, 73, 74]
        assert list(spec.ue_speeds()) == [0.0, 40.0, 0.0, 40.0, 0.0]

    def test_the_spec_is_the_only_fleet_configuration(self):
        """Kernels come from ``params``, tiles from the workload size:
        the per-call overrides, the spec re-pinning helpers, the tile
        field and the third fleet description are gone."""
        for name in ("with_backend", "with_flc_backend", "with_tile_epochs"):
            assert not hasattr(FleetSpec, name), name
        for name in ("run_sharded", "to_fleet_spec", "with_params"):
            assert not hasattr(PopulationSpec, name), name
        assert "tile_epochs" not in {
            f.name for f in dataclasses.fields(SimulationParameters)
        }
        params = inspect.signature(run_fleet).parameters
        assert not {"backend", "flc_backend", "tile_epochs"} & set(params)
        for name in ("resolve_tile_epochs", "TILE_EPOCHS_ENV_VAR"):
            assert not hasattr(sim, name), name
        for name in ("FleetScenario", "SCENARIO_FLEET"):
            assert not hasattr(experiments, name), name


class TestPopulationMustAgree:
    def test_from_population_reports_the_population_seeds(self):
        spec = FleetSpec.from_population(urban())
        assert spec.base_seed == 9
        assert spec.population.walk_seeds() == list(range(9, 15))
        lo, hi = partition_fleet(spec.n_ues, 2)[1]
        assert spec.population.walk_seeds(lo, hi) == [12, 13, 14]

    @pytest.mark.parametrize(
        "field,value", [("base_seed", 123), ("fading_base_seed", 5)]
    )
    def test_contradicting_seed_refused(self, field, value):
        pop = urban()
        fields = {
            "n_ues": 6,
            "params": pop.params,
            "base_seed": pop.base_seed,
            "fading_base_seed": pop.fading_base_seed,
            field: value,
        }
        with pytest.raises(ValueError, match=field):
            FleetSpec(population=pop, **fields)

    def test_default_seed_beside_a_seeded_population_refused(self):
        # the spec's base_seed defaults to 1000; the population walks 9..
        pop = urban()
        with pytest.raises(ValueError, match="base_seed"):
            FleetSpec(n_ues=6, params=pop.params, population=pop)

    def test_replace_cannot_reseed_a_spec(self):
        spec = FleetSpec(n_ues=3, n_walks=2, params=FAST)
        with pytest.raises(ValueError, match="base_seed"):
            dataclasses.replace(spec, base_seed=2000)
        with pytest.raises(ValueError, match="fading_base_seed"):
            dataclasses.replace(spec, fading_base_seed=7)

    @pytest.mark.parametrize(
        "changes",
        [{"n_walks": 5, "speeds_kmh": (7.0,)}, {"speeds_kmh": (7.0,)}],
        ids=["both", "speeds"],
    )
    def test_replace_cannot_rewalk_a_spec(self, changes):
        """A replaced walk or speed cycle raises naming the field instead
        of keeping the old cohort."""
        spec = FleetSpec(n_ues=3, n_walks=2, params=FAST)
        with pytest.raises(ValueError) as info:
            dataclasses.replace(spec, **changes)
        assert all(f"{name}=" in str(info.value) for name in changes)

    @pytest.mark.parametrize(
        "spec,changes",
        [
            (FleetSpec(n_ues=3, n_walks=2), {"n_walks": 10}),
            (
                FleetSpec(n_ues=3, speeds_kmh=(7.0,)),
                {"speeds_kmh": PAPER_SPEEDS_KMH},
            ),
        ],
        ids=["walks", "speeds"],
    )
    def test_replace_cannot_rewalk_a_spec_to_the_defaults(
        self, spec, changes
    ):
        """A field replaced by its default value still names the walk
        the spec runs, so the old population is refused."""
        with pytest.raises(ValueError) as info:
            dataclasses.replace(spec, **changes)
        assert all(f"{name}=" in str(info.value) for name in changes)

    def test_replace_with_population_none_runs_the_new_walk(self):
        spec = FleetSpec(n_ues=3, n_walks=2, params=FAST)
        copy = dataclasses.replace(
            spec, n_walks=5, speeds_kmh=(7.0,), population=None
        )
        assert copy.population.cohorts[0].model.n_walks == 5
        assert list(copy.ue_speeds()) == [7.0, 7.0, 7.0]

    def test_from_population_keeps_a_homogeneous_population(self):
        pop = PopulationSpec.homogeneous(3, 2, (7.0,), FAST)
        spec = FleetSpec.from_population(pop)
        assert spec.population == pop
        assert (spec.n_walks, spec.speeds_kmh) == (2, (7.0,))
        assert dataclasses.replace(spec).population == pop
        assert spec == FleetSpec(
            n_ues=3, n_walks=2, speeds_kmh=(7.0,), params=FAST
        )

    def test_from_population_leaves_a_mix_at_the_defaults(self):
        spec = FleetSpec.from_population(urban())
        assert (spec.n_walks, spec.speeds_kmh) == (10, PAPER_SPEEDS_KMH)
        with pytest.raises(ValueError, match="n_walks="):
            dataclasses.replace(spec, n_walks=3)

    @pytest.mark.parametrize(
        "field,value",
        [("n_ues", 7), ("params", SimulationParameters())],
    )
    def test_contradicting_size_or_physics_refused(self, field, value):
        pop = urban()
        spec = FleetSpec.from_population(pop)
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(spec, **{field: value})
