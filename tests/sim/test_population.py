"""Population-layer tests (heterogeneous cohort fleets).

The contract of :mod:`repro.sim.population`:

* cohort expansion is a pure function of the global UE index —
  invariant under sharding and under permutation of the cohort tuple;
* a single-cohort population matching the pre-population fleet defaults
  is *byte-identical* to the plain :class:`~repro.sim.fleet.FleetSpec`
  path (the ISSUE-4 acceptance pin);
* per-cohort policies never change another UE's values — every engine
  path runs each UE under its own cohort's policy;
* cohort-sliced metrics are an exact partition of the fleet totals and
  survive the shard merge.
"""

import math
import pickle
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import FuzzyHandoverSystem
from repro.mobility import GaussMarkov, ManhattanGrid, RandomWalk, TraceBatch
from repro.sim import (
    BatchSimulator,
    FleetSpec,
    MeasurementSampler,
    PolicyConfig,
    PopulationSpec,
    SimulationParameters,
    Simulator,
    UECohort,
    compute_fleet_metrics,
    compute_metrics,
    merge_fleet_metrics,
    named_population,
    partition_fleet,
    run_fleet,
)
from repro.sim import population as population_mod
from repro.sim.population import POPULATION_MIXES

pytestmark = pytest.mark.population

FAST = SimulationParameters(measurement_spacing_km=0.2, n_walks=4)


def run_population(pop, n_shards=1):
    """``run_fleet`` over the population's fleet spec."""
    return run_fleet(FleetSpec.from_population(pop), n_shards=n_shards)


def assert_metrics_identical(a, b):
    """Exact equality, field by field (NaN-aware for the output stats)."""
    for key, va in a.as_dict().items():
        vb = b.as_dict()[key]
        if math.isnan(va) or math.isnan(vb):
            assert math.isnan(va) and math.isnan(vb), key
        else:
            assert va == vb, key
    for name in (
        "handovers_per_ue",
        "ping_pongs_per_ue",
        "necessary_per_ue",
        "epochs_per_ue",
        "wrong_epochs_per_ue",
        "outage_epochs_per_ue",
        "dwell_epochs_per_ue",
        "dwell_count_per_ue",
        "output_sum_per_ue",
        "output_count_per_ue",
        "output_max_per_ue",
    ):
        np.testing.assert_array_equal(
            getattr(a, name), getattr(b, name), err_msg=name
        )


def walker(n_walks=4):
    return RandomWalk(n_walks=n_walks, mean_step_km=0.6, step_sigma_km=0.2)


def make_population(n_ues=9, cohorts=None, params=FAST, **kwargs):
    if cohorts is None:
        cohorts = (
            UECohort(
                name="walkers",
                model=walker(),
                fraction=1.0,
                speeds_kmh=(0.0, 20.0, 50.0),
            ),
        )
    return PopulationSpec(
        n_ues=n_ues, cohorts=cohorts, params=params, **kwargs
    )


class TestPolicyConfigValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("threshold", 0.0),
            ("threshold", 1.5),
            ("potlc_gate_dbw", float("nan")),
            ("cssp_lag", 0),
            ("prtlc_enabled", 1),
        ],
    )
    def test_refuses_a_bad_field_by_name(self, field, value):
        with pytest.raises(ValueError, match=field):
            PolicyConfig(**{field: value})


class TestCohortValidation:
    def test_requires_exactly_one_of_count_fraction(self):
        with pytest.raises(ValueError, match="count/fraction"):
            UECohort(name="x", model=walker(), count=3, fraction=0.5)
        with pytest.raises(ValueError, match="count/fraction"):
            UECohort(name="x", model=walker())

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"count": -1},
            {"fraction": 0.0},
            {"fraction": -0.2},
            {"fraction": float("inf")},
            {"count": 1, "speeds_kmh": ()},
            {"count": 1, "speed_range_kmh": (5.0, 3.0)},
            {"count": 1, "speed_range_kmh": (-1.0, 3.0)},
            {"count": 1, "shadow_sigma_db": -2.0},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            UECohort(name="x", model=walker(), **kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("shadow_sigma_db", float("nan")),
            ("shadow_sigma_db", float("inf")),
            ("shadow_decorrelation_km", float("nan")),
            ("shadow_decorrelation_km", -1.0),
        ],
    )
    def test_rejects_bad_fading_profile_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=f"'x' {field}"):
            UECohort(name="x", model=walker(), count=1, **{field: value})

    def test_rejects_non_model(self):
        with pytest.raises(ValueError, match="mobility model"):
            UECohort(name="x", model=object(), count=1)

    def test_population_rejects_duplicate_names(self):
        c = UECohort(name="dup", model=walker(), fraction=1.0)
        with pytest.raises(ValueError, match="unique"):
            PopulationSpec(n_ues=4, cohorts=(c, c), params=FAST)

    def test_population_rejects_oversized_counts(self):
        c = UECohort(name="big", model=walker(), count=10)
        with pytest.raises(ValueError, match="n_ues"):
            PopulationSpec(n_ues=4, cohorts=(c,), params=FAST)

    def test_population_rejects_count_shortfall(self):
        c = UECohort(name="small", model=walker(), count=2)
        with pytest.raises(ValueError, match="!= n_ues"):
            PopulationSpec(n_ues=4, cohorts=(c,), params=FAST)


class TestExpansion:
    def test_slices_are_contiguous_and_name_sorted(self):
        pop = make_population(
            n_ues=10,
            cohorts=(
                UECohort(name="zebra", model=walker(), count=3),
                UECohort(name="alpha", model=walker(), fraction=1.0),
            ),
        )
        slices = pop.cohort_slices()
        assert [c.name for c, _, _ in slices] == ["alpha", "zebra"]
        assert [(lo, hi) for _, lo, hi in slices] == [(0, 7), (7, 10)]

    def test_largest_remainder_rounding_sums_exactly(self):
        pop = make_population(
            n_ues=10,
            cohorts=(
                UECohort(name="a", model=walker(), fraction=0.5),
                UECohort(name="b", model=walker(), fraction=0.3),
                UECohort(name="c", model=walker(), fraction=0.2),
            ),
        )
        assert pop.cohort_counts() == (5, 3, 2)
        # an awkward size still sums exactly
        pop7 = replace(pop, n_ues=7)
        assert sum(pop7.cohort_counts()) == 7

    def test_walk_seeds_match_homogeneous_convention(self):
        pop = make_population(n_ues=5, base_seed=1234)
        assert pop.walk_seeds() == [1234, 1235, 1236, 1237, 1238]
        assert pop.walk_seeds(2, 4) == [1236, 1237]

    def test_speed_range_draws_are_per_global_index(self):
        cohort = UECohort(
            name="v", model=walker(), fraction=1.0,
            speed_range_kmh=(30.0, 60.0),
        )
        pop = make_population(n_ues=6, cohorts=(cohort,))
        speeds = pop.ue_speeds()
        assert ((speeds >= 30.0) & (speeds <= 60.0)).all()
        # slices reproduce the same draws
        np.testing.assert_array_equal(speeds[2:5], pop.ue_speeds(2, 5))

    def test_speed_range_draws_are_made_once_per_process(self, monkeypatch):
        cohort = UECohort(
            name="v", model=walker(), fraction=1.0,
            speed_range_kmh=(30.0, 60.0),
        )
        pop = make_population(
            n_ues=6, cohorts=(cohort,), speed_base_seed=987_654
        )
        before = pickle.dumps(pop)
        built = []
        real = population_mod.seeded_generators
        monkeypatch.setattr(
            population_mod, "seeded_generators",
            lambda seeds: built.extend(seeds) or real(seeds),
        )
        first = pop.ue_speeds()
        assert built == list(range(987_654, 987_660))
        assert pop.ue_speeds().tobytes() == first.tobytes()
        assert len(built) == 6
        # the spec's pickle (the checkpoint fingerprint) stores nothing
        assert pickle.dumps(pop) == before

    def test_cohort_ids_index_sorted_names(self):
        pop = named_population("urban_mix", n_ues=10, params=FAST)
        names = pop.cohort_names
        assert names == ("pedestrian", "stationary", "vehicular")
        ids = pop.cohort_ids()
        counts = pop.cohort_counts()
        assert np.bincount(ids, minlength=len(names)).tolist() == list(counts)


# --------------------------------------------------------------------
# ISSUE-4 satellite: hypothesis property — the expansion is invariant
# under partition_fleet(n_ues, n) for n in {1, 2, 4} and under
# cohort-order permutation
# --------------------------------------------------------------------
_MODELS = (
    walker(3),
    GaussMarkov(n_steps=4),
    ManhattanGrid(n_legs=4),
)


@st.composite
def populations(draw):
    n_cohorts = draw(st.integers(1, 4))
    n_ues = draw(st.integers(1, 24))
    names = draw(
        st.lists(
            st.text(
                alphabet="abcdefgh", min_size=1, max_size=6
            ),
            min_size=n_cohorts,
            max_size=n_cohorts,
            unique=True,
        )
    )
    cohorts = []
    for name in names:
        model = draw(st.sampled_from(_MODELS))
        if draw(st.booleans()):
            speeds = tuple(
                draw(
                    st.lists(
                        st.floats(0.0, 120.0), min_size=1, max_size=3
                    )
                )
            )
            kwargs = {"speeds_kmh": speeds}
        else:
            lo = draw(st.floats(0.0, 60.0))
            hi = draw(st.floats(lo, 120.0))
            kwargs = {"speed_range_kmh": (lo, hi)}
        cohorts.append(
            UECohort(name=name, model=model, fraction=draw(st.floats(0.1, 2.0)), **kwargs)
        )
    return PopulationSpec(
        n_ues=n_ues, cohorts=tuple(cohorts), params=FAST,
        base_seed=draw(st.integers(0, 10_000)),
    )


class TestExpansionInvariance:
    @settings(max_examples=40, deadline=None)
    @given(pop=populations(), n_shards=st.sampled_from([1, 2, 4]))
    def test_shard_invariant_seeds_speeds_ids(self, pop, n_shards):
        bounds = partition_fleet(pop.n_ues, n_shards)
        seeds = [s for lo, hi in bounds for s in pop.walk_seeds(lo, hi)]
        assert seeds == pop.walk_seeds()
        speeds = np.concatenate([pop.ue_speeds(lo, hi) for lo, hi in bounds])
        np.testing.assert_array_equal(speeds, pop.ue_speeds())
        ids = np.concatenate([pop.cohort_ids(lo, hi) for lo, hi in bounds])
        np.testing.assert_array_equal(ids, pop.cohort_ids())

    @settings(max_examples=40, deadline=None)
    @given(pop=populations(), data=st.data())
    def test_cohort_order_permutation_invariant(self, pop, data):
        perm = data.draw(st.permutations(range(len(pop.cohorts))))
        shuffled = replace(
            pop, cohorts=tuple(pop.cohorts[i] for i in perm)
        )
        assert shuffled.cohort_names == pop.cohort_names
        assert shuffled.cohort_counts() == pop.cohort_counts()
        assert shuffled.walk_seeds() == pop.walk_seeds()
        np.testing.assert_array_equal(
            shuffled.ue_speeds(), pop.ue_speeds()
        )
        np.testing.assert_array_equal(
            shuffled.cohort_ids(), pop.cohort_ids()
        )


# --------------------------------------------------------------------
# ISSUE-4 acceptance: a single-cohort population matching the fleet
# defaults is byte-identical to the pre-refactor (plain FleetSpec) path
# --------------------------------------------------------------------
class TestHomogeneousByteIdentity:
    def plain_and_population(self, params=FAST, n_ues=9):
        plain = FleetSpec(
            n_ues=n_ues,
            n_walks=4,
            base_seed=500,
            speeds_kmh=(0.0, 20.0, 50.0),
            params=params,
        )
        pop = PopulationSpec(
            n_ues=n_ues,
            cohorts=(
                UECohort(
                    name="default",
                    model=params.make_walk(4),
                    count=n_ues,
                    speeds_kmh=(0.0, 20.0, 50.0),
                ),
            ),
            params=params,
            base_seed=500,
        )
        return plain, FleetSpec.from_population(pop)

    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_metrics_byte_identical(self, n_shards):
        plain, popspec = self.plain_and_population()
        a = run_fleet(plain, n_shards=n_shards)
        b = run_fleet(popspec, n_shards=n_shards)
        assert a == b
        assert_metrics_identical(a, b)

    def test_metrics_byte_identical_under_fading(self):
        params = SimulationParameters(
            measurement_spacing_km=0.2, n_walks=4, shadow_sigma_db=4.0
        )
        plain, popspec = self.plain_and_population(params=params)
        assert_metrics_identical(
            run_fleet(plain, n_shards=2), run_fleet(popspec, n_shards=2)
        )

    def test_full_logs_byte_identical(self):
        plain, popspec = self.plain_and_population(n_ues=4)
        a, b = (
            spec.population.simulator().run(spec.population.measure())
            for spec in (plain, popspec)
        )
        np.testing.assert_array_equal(a.serving_history, b.serving_history)
        np.testing.assert_array_equal(a.stages, b.stages)
        np.testing.assert_array_equal(a.outputs, b.outputs)
        np.testing.assert_array_equal(a.event_ue, b.event_ue)
        np.testing.assert_array_equal(a.event_step, b.event_step)



# --------------------------------------------------------------------
# heterogeneous sharding / cohort metrics
# --------------------------------------------------------------------
class TestHeterogeneousSharding:
    @pytest.mark.parametrize("n_shards", [2, 4])
    def test_mixed_population_shards_bit_identically(self, n_shards):
        pop = named_population("urban_mix", n_ues=13, params=FAST)
        unsharded = run_population(pop, 1)
        sharded = run_population(pop, n_shards)
        assert sharded == unsharded
        assert_metrics_identical(sharded, unsharded)
        np.testing.assert_array_equal(
            sharded.cohort_ids_per_ue, unsharded.cohort_ids_per_ue
        )
        assert sharded.cohort_names == unsharded.cohort_names

    def test_per_cohort_partitions_fleet_totals(self):
        pop = named_population("urban_mix", n_ues=12, params=FAST)
        fleet = run_population(pop, 3)
        per = fleet.per_cohort()
        assert [c.name for c in per] == list(fleet.cohort_names)
        assert sum(c.n_ues for c in per) == fleet.n_ues
        assert sum(c.n_handovers for c in per) == fleet.n_handovers
        assert sum(c.n_ping_pongs for c in per) == fleet.n_ping_pongs
        assert sum(c.n_epochs_total for c in per) == fleet.n_epochs_total

    @staticmethod
    def unlabelled_metrics(n_ues):
        """Metrics straight from the batch engine, which knows no
        cohorts (every fleet shard labels its metrics)."""
        pop = FleetSpec(n_ues=n_ues, n_walks=4, params=FAST).population
        return pop.simulator().run_metrics(pop.measure())

    def test_unlabelled_metrics_refuse_per_cohort(self):
        fleet = self.unlabelled_metrics(3)
        with pytest.raises(ValueError, match="cohort"):
            fleet.per_cohort()

    def test_merge_rejects_mixed_labelling(self):
        pop = named_population("pedestrian", n_ues=4, params=FAST)
        labelled = pop.run_metrics()
        plain = self.unlabelled_metrics(3)
        with pytest.raises(ValueError, match="labelled"):
            merge_fleet_metrics([labelled, plain])

    def test_all_named_mixes_expand_and_run(self):
        for name in sorted(POPULATION_MIXES):
            pop = named_population(name, n_ues=6, params=FAST)
            fleet = run_population(pop, 2)
            assert fleet.n_ues == 6
            assert sum(pop.cohort_counts()) == 6

    def test_unknown_mix_rejected(self):
        with pytest.raises(ValueError, match="unknown population"):
            named_population("not-a-mix")


class TestPolicyGroups:
    def two_policy_population(self, n_a=4, n_b=5):
        eager = PolicyConfig(threshold=0.5)
        return PopulationSpec(
            n_ues=n_a + n_b,
            cohorts=(
                UECohort(
                    name="a-default", model=walker(), count=n_a,
                    speeds_kmh=(0.0, 20.0),
                ),
                UECohort(
                    name="b-eager", model=walker(), count=n_b,
                    speeds_kmh=(50.0,), policy=eager,
                ),
            ),
            params=FAST,
        )

    def test_groups_collapse_shared_policies(self):
        pop = named_population("urban_mix", n_ues=10, params=FAST)
        assert len(pop.policy_groups()) == 1

    def test_distinct_policies_split(self):
        pop = self.two_policy_population()
        groups = pop.policy_groups()
        assert len(groups) == 2
        covered = np.sort(np.concatenate([idx for _, idx in groups]))
        np.testing.assert_array_equal(covered, np.arange(pop.n_ues))

    def test_grouped_run_matches_per_cohort_single_runs(self):
        # each cohort, run alone as its own population with matching
        # global seeds, must reproduce its slice of the grouped run
        n_a, n_b = 4, 5
        pop = self.two_policy_population(n_a, n_b)
        fleet = run_population(pop, 1)

        solo_a = run_population(
            PopulationSpec(
                n_ues=n_a,
                cohorts=(replace(pop.cohorts[0], count=n_a),),
                params=FAST,
                base_seed=pop.base_seed,
            )
        )
        solo_b = run_population(
            PopulationSpec(
                n_ues=n_b,
                cohorts=(replace(pop.cohorts[1], count=n_b),),
                params=FAST,
                base_seed=pop.base_seed + n_a,
            )
        )
        np.testing.assert_array_equal(
            fleet.handovers_per_ue,
            np.concatenate([solo_a.handovers_per_ue, solo_b.handovers_per_ue]),
        )
        np.testing.assert_array_equal(
            fleet.output_sum_per_ue,
            np.concatenate(
                [solo_a.output_sum_per_ue, solo_b.output_sum_per_ue]
            ),
        )
        np.testing.assert_array_equal(
            fleet.epochs_per_ue,
            np.concatenate([solo_a.epochs_per_ue, solo_b.epochs_per_ue]),
        )

    def test_mixed_policy_population_shards_bit_identically(self):
        pop = self.two_policy_population()
        assert_metrics_identical(
            run_population(pop, 1), run_population(pop, 3)
        )

    def test_full_log_run_matches_metrics_for_mixed_policies(self):
        pop = self.two_policy_population()
        full = compute_fleet_metrics(
            pop.simulator().run(pop.measure())
        ).with_cohorts(pop.cohort_ids(), pop.cohort_names)
        assert pickle.dumps(full) == pickle.dumps(pop.run_metrics())

    def test_shard_simulator_runs_the_cohort_policy(self):
        """A one-cohort population's policy reaches every engine path,
        the range's own simulator included."""
        pop = PopulationSpec(
            n_ues=4,
            cohorts=(
                UECohort(
                    name="eager", model=walker(), count=4,
                    speeds_kmh=(0.0, 30.0),
                    policy=PolicyConfig(threshold=0.3),
                ),
            ),
            params=FAST,
        )
        streamed = pop.run_metrics()
        series = pop.measure()
        direct = pop.simulator().run_metrics(series)
        assert_metrics_identical(direct, streamed)
        assert_metrics_identical(
            compute_fleet_metrics(pop.simulator().run(series)), streamed
        )
        paper = BatchSimulator(
            pop.make_system(), speed_kmh=pop.ue_speeds()
        ).run_metrics(series)
        assert paper.n_handovers != streamed.n_handovers


class TestPerCohortFading:
    def test_fading_profiles_follow_cohort_overrides(self):
        pop = PopulationSpec(
            n_ues=6,
            cohorts=(
                UECohort(
                    name="clear", model=walker(), count=3,
                    shadow_sigma_db=0.0,
                ),
                UECohort(
                    name="shadowed", model=walker(), count=3,
                    shadow_sigma_db=6.0, shadow_decorrelation_km=0.2,
                ),
            ),
            params=FAST,
        )
        profiles = pop.fading_profiles()
        # sorted names: clear [0,3), shadowed [3,6)
        assert profiles[:3] == [None, None, None]
        assert all(p.sigma_db == 6.0 for p in profiles[3:])
        assert all(p.decorrelation_km == 0.2 for p in profiles[3:])

    def test_no_fading_returns_none(self):
        assert make_population().fading_profiles() is None

    def test_mixed_fading_shards_bit_identically(self):
        pop = PopulationSpec(
            n_ues=8,
            cohorts=(
                UECohort(name="clear", model=walker(), fraction=0.5),
                UECohort(
                    name="shadowed", model=walker(), fraction=0.5,
                    shadow_sigma_db=4.0,
                ),
            ),
            params=FAST,
        )
        assert_metrics_identical(
            run_population(pop, 1), run_population(pop, 4)
        )


@dataclass(frozen=True)
class PerSeedOnly:
    """A custom mobility model with ``generate_seeded`` only.  Every
    built-in model generates in bulk, so only such a model takes
    :meth:`PopulationSpec.traces`' per-seed path."""

    inner: object

    def generate_seeded(self, seed):
        return self.inner.generate_seeded(seed)


class TestPerSeedModel:
    INNER = ManhattanGrid(n_legs=6, block_km=0.3, max_blocks=3)

    def population(self, model):
        return PopulationSpec(
            n_ues=7,
            cohorts=(
                UECohort(
                    name="custom", model=model, count=4,
                    speeds_kmh=(0.0, 30.0), shadow_sigma_db=6.0,
                    shadow_decorrelation_km=0.1,
                ),
                UECohort(
                    name="walkers", model=walker(), count=3,
                    speeds_kmh=(10.0,),
                ),
            ),
            params=FAST,
            base_seed=4242,
            fading_base_seed=777,
        )

    def test_walks_match_per_seed_and_bulk_generation(self):
        pop = self.population(PerSeedOnly(self.INNER))
        assert not hasattr(PerSeedOnly, "generate_batch_seeded")
        got = pop.traces()
        per_seed = TraceBatch.concatenate([
            TraceBatch.from_traces(
                self.INNER.generate_seeded(4242 + g) for g in range(4)
            ),
            walker().generate_batch_seeded(range(4246, 4249)),
        ])
        assert got.positions.tobytes() == per_seed.positions.tobytes()
        bulk = self.population(self.INNER).traces()
        assert got.positions.tobytes() == bulk.positions.tobytes()
        # a range straddling both cohorts: the same rows
        part = pop.traces(1, 5)
        assert part.positions.tobytes() == got.positions[1:5].tobytes()

    def test_metrics_match_bulk_generation_and_the_scalar_engine(self):
        pop = self.population(PerSeedOnly(self.INNER))
        fleet = run_population(pop, n_shards=2)
        bulk = run_population(self.population(self.INNER), n_shards=1)
        assert pickle.dumps(fleet) == pickle.dumps(bulk)
        params = pop.params
        for g in range(4):
            sampler = MeasurementSampler(
                params.make_layout(),
                params.make_propagation(),
                spacing_km=params.measurement_spacing_km,
                fading=params.make_fading(
                    rng=777 + g, sigma_db=6.0, decorrelation_km=0.1
                ),
            )
            result = Simulator(
                FuzzyHandoverSystem(cell_radius_km=params.cell_radius_km),
                speed_kmh=(0.0, 30.0)[g % 2],
            ).run(sampler.measure(self.INNER.generate_seeded(4242 + g)))
            want = compute_metrics(result)
            assert int(fleet.handovers_per_ue[g]) == want.n_handovers, g
            assert int(fleet.ping_pongs_per_ue[g]) == want.n_ping_pongs, g


class TestMeasurementProfiles:
    def test_profile_length_mismatch_rejected(self):
        pop = make_population(n_ues=3)
        batch = pop.traces()
        with pytest.raises(ValueError, match="fading profiles"):
            pop.make_sampler().measure_batch(batch, fading_profiles=[None])
