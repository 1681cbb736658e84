"""Sharded fleet execution tests.

The contract of :mod:`repro.sim.fleet`: splitting an N-UE fleet into
any number of shards — :func:`~repro.sim.population.partition_fleet`
ranges of its population — changes *where* the work runs, never *what*
it computes — per-UE decision logs are bit-identical to the unsharded
:class:`~repro.sim.batch.BatchSimulator`, and the merged
:class:`~repro.sim.metrics.FleetMetrics` equal the unsharded metrics
exactly (integer counters and float aggregates alike).  The streaming
accumulator is likewise pinned bit-for-bit against the post-hoc
computation.
"""

import math

import numpy as np
import pytest

from repro.sim import (
    FleetSpec,
    SerialExecutor,
    SimulationParameters,
    compute_fleet_metrics,
    merge_fleet_metrics,
    partition_fleet,
    run_fleet,
)

FAST = SimulationParameters(measurement_spacing_km=0.2, n_walks=4)


def make_spec(n_ues, pathloss_backend=None, flc_backend=None, **kwargs):
    kwargs.setdefault(
        "params",
        FAST.with_(pathloss_backend=pathloss_backend, flc_backend=flc_backend),
    )
    kwargs.setdefault("speeds_kmh", (0.0, 20.0, 50.0))
    # a low POTLC gate keeps the FLC busy so output aggregates are
    # exercised, not NaN
    return FleetSpec(n_ues=n_ues, n_walks=4, base_seed=500, **kwargs)


def full_log(spec, lo=0, hi=None):
    """The full simulation log of UEs ``[lo, hi)`` of ``spec``."""
    population = spec.population
    return population.simulator(lo, hi).run(population.measure(lo, hi))


def range_metrics(spec, n_shards, **kwargs):
    """Streaming metrics of each ``partition_fleet`` range of ``spec``."""
    return [
        spec.population.run_metrics(lo, hi, **kwargs)
        for lo, hi in partition_fleet(spec.n_ues, n_shards)
    ]


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
        "dwell_epochs_per_ue",
        "dwell_count_per_ue",
        "output_sum_per_ue",
        "output_count_per_ue",
        "output_max_per_ue",
    ):
        np.testing.assert_array_equal(
            getattr(a, name), getattr(b, name), err_msg=name
        )


class TestPartition:
    def test_contiguous_and_complete(self):
        bounds = partition_fleet(10, 3)
        assert bounds == [(0, 4), (4, 7), (7, 10)]

    def test_balanced_sizes(self):
        sizes = [hi - lo for lo, hi in partition_fleet(11, 4)]
        assert sorted(sizes) == [2, 3, 3, 3]
        assert max(sizes) - min(sizes) <= 1

    def test_more_shards_than_ues_collapses(self):
        assert partition_fleet(2, 5) == [(0, 1), (1, 2)]

    def test_single_shard_is_whole_fleet(self):
        assert partition_fleet(7, 1) == [(0, 7)]

    @pytest.mark.parametrize("n_ues,n_shards", [(1, 0), (-2, 3), (0, 0)])
    def test_validation(self, n_ues, n_shards):
        with pytest.raises(ValueError):
            partition_fleet(n_ues, n_shards)

    # ISSUE-4 satellite: degenerate inputs degrade gracefully instead
    # of producing invalid ranges
    @pytest.mark.parametrize("n_shards", [1, 3])
    def test_empty_fleet_partitions_to_no_shards(self, n_shards):
        assert partition_fleet(0, n_shards) == []

    @pytest.mark.parametrize("n_ues,n_shards", [(1, 8), (3, 100), (5, 6)])
    def test_oversharding_never_emits_empty_shards(self, n_ues, n_shards):
        bounds = partition_fleet(n_ues, n_shards)
        assert len(bounds) == n_ues
        assert all(hi - lo == 1 for lo, hi in bounds)
        # concatenation still reproduces range(0, n_ues)
        flat = [i for lo, hi in bounds for i in range(lo, hi)]
        assert flat == list(range(n_ues))


class TestSpec:
    def test_seeds_and_speeds_are_global(self):
        spec = make_spec(7)
        pop = spec.population
        shards = partition_fleet(spec.n_ues, 3)
        seeds = [s for lo, hi in shards for s in pop.walk_seeds(lo, hi)]
        assert seeds == pop.walk_seeds()
        speeds = np.concatenate([spec.ue_speeds(lo, hi) for lo, hi in shards])
        np.testing.assert_array_equal(speeds, spec.ue_speeds())

    def test_shard_range_validation(self):
        with pytest.raises(ValueError, match="out of bounds"):
            make_spec(3).population.run_metrics(1, 5)

    @pytest.mark.parametrize(
        "kwargs",
        [{"n_ues": 0}, {"n_walks": 0}, {"speeds_kmh": ()}],
    )
    def test_spec_validation(self, kwargs):
        full = {"n_ues": 5, "n_walks": 4, "params": FAST, **kwargs}
        with pytest.raises(ValueError):
            FleetSpec(**full)


class TestShardEquivalence:
    """ISSUE-2 acceptance: N ∈ {1, 7, 32} × shards ∈ {1, 2, 4}."""

    @pytest.mark.parametrize("n_ues", [1, 7, 32])
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_bit_identical_to_unsharded(self, n_ues, n_shards):
        spec = make_spec(n_ues)
        full = full_log(spec)
        expected = compute_fleet_metrics(full)

        shards = partition_fleet(spec.n_ues, n_shards)
        assert len(shards) == min(n_shards, n_ues)

        # per-UE handover sequences (and full logs) are bit-identical
        for lo, hi in shards:
            res = full_log(spec, lo, hi)
            for j in range(hi - lo):
                g = lo + j
                a, b = res.ue_result(j), full.ue_result(g)
                assert a.serving_history == b.serving_history
                np.testing.assert_array_equal(a.outputs, b.outputs)
                assert [e.step for e in a.events] == [
                    e.step for e in b.events
                ]
                assert [e.source for e in a.events] == [
                    e.source for e in b.events
                ]
                assert [e.target for e in a.events] == [
                    e.target for e in b.events
                ]

        # merged streaming metrics equal the unsharded post-hoc metrics
        merged = merge_fleet_metrics(range_metrics(spec, n_shards))
        assert merged == expected
        assert_metrics_identical(merged, expected)

    def test_run_fleet_process_pool_identical(self):
        spec = make_spec(7)
        expected = compute_fleet_metrics(full_log(spec))
        pooled = run_fleet(spec, n_shards=3, max_workers=2)
        assert pooled == expected
        assert_metrics_identical(pooled, expected)

    def test_run_fleet_repeated_runs_identical(self):
        spec = make_spec(5)
        assert_metrics_identical(
            run_fleet(spec, n_shards=2), run_fleet(spec, n_shards=2)
        )

    def test_sharding_invariant_under_fading(self):
        # per-UE fading streams are seeded by global index, so shadowed
        # fleets shard bit-identically too
        params = SimulationParameters(
            measurement_spacing_km=0.2, n_walks=4, shadow_sigma_db=4.0
        )
        spec = make_spec(6, params=params)
        unsharded = spec.population.run_metrics()
        merged = merge_fleet_metrics(range_metrics(spec, 3))
        assert_metrics_identical(merged, unsharded)


class TestStreamingMetrics:
    def test_streaming_equals_posthoc_bitwise(self):
        pop = make_spec(9).population
        series = pop.measure()
        sim = pop.simulator()
        assert_metrics_identical(
            sim.run_metrics(series), compute_fleet_metrics(sim.run(series))
        )

    def test_streaming_respects_window(self):
        pop = make_spec(9).population
        series = pop.measure()
        sim = pop.simulator()
        assert_metrics_identical(
            sim.run_metrics(series, window_km=2.5),
            compute_fleet_metrics(sim.run(series), window_km=2.5),
        )

    def test_window_validation(self):
        from repro.sim import FleetMetricsAccumulator

        with pytest.raises(ValueError, match="window_km"):
            FleetMetricsAccumulator(window_km=0.0)

    def test_outage_threshold_threads_through_run_fleet(self):
        spec = make_spec(5)
        default = run_fleet(spec, n_shards=2)
        assert default.outage_dbw == -115.0
        # a sky-high sensitivity makes every epoch an outage; the knob
        # must reach the shard workers through the fleet path
        everything = run_fleet(spec, n_shards=2, outage_dbw=1000.0)
        assert everything.outage_dbw == 1000.0
        assert everything.outage_fraction == 1.0
        # ...without touching any other aggregate
        assert everything.n_handovers == default.n_handovers
        assert everything.n_ping_pongs == default.n_ping_pongs


class TestMerge:
    def test_merge_is_associative(self):
        parts = range_metrics(make_spec(8), 4)
        left = merge_fleet_metrics(
            [merge_fleet_metrics(parts[:2]), merge_fleet_metrics(parts[2:])]
        )
        flat = merge_fleet_metrics(parts)
        assert_metrics_identical(left, flat)

    def test_merge_single_is_identity(self):
        m = make_spec(3).population.run_metrics()
        assert merge_fleet_metrics([m]) is m

    def test_merge_empty_rejected(self):
        with pytest.raises(ValueError, match="no fleet metrics"):
            merge_fleet_metrics([])

    def test_merge_mixed_windows_rejected(self):
        pop = make_spec(4).population
        with pytest.raises(ValueError, match="windows"):
            merge_fleet_metrics(
                [
                    pop.run_metrics(0, 2, window_km=0.5),
                    pop.run_metrics(2, 4, window_km=2.0),
                ]
            )


@pytest.mark.backend
class TestBackendEquivalence:
    """ISSUE-3 acceptance: the reference and optimized NumPy pathloss
    kernels produce *byte-identical* fleet results — the same
    ``BatchSimulator.run_metrics`` stream and the same sharded
    ``run_fleet`` merge — over N ∈ {1, 32} × shards ∈ {1, 4}."""

    @pytest.mark.parametrize("n_ues", [1, 32])
    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_run_fleet_bit_identical_across_numpy_backends(
        self, n_ues, n_shards
    ):
        reference = run_fleet(
            make_spec(n_ues, pathloss_backend="reference"), n_shards=n_shards
        )
        optimized = run_fleet(
            make_spec(n_ues, pathloss_backend="numpy"), n_shards=n_shards
        )
        assert optimized == reference
        assert_metrics_identical(optimized, reference)

    @pytest.mark.parametrize("n_ues", [1, 32])
    def test_run_metrics_bit_identical_across_numpy_backends(self, n_ues):
        results = {}
        for backend in ("reference", "numpy"):
            pop = make_spec(n_ues, pathloss_backend=backend).population
            results[backend] = pop.simulator().run_metrics(pop.measure())
        assert_metrics_identical(results["numpy"], results["reference"])

    def test_with_backend_threads_into_params(self):
        spec = make_spec(4, pathloss_backend="reference")
        sampler = spec.population.make_sampler()
        assert sampler.propagation.backend == "reference"

    def test_default_backend_matches_reference(self, monkeypatch):
        # the policy default (optimized numpy) never changes the physics;
        # byte-identity only holds for the NumPy family, so shield the
        # test from an ambient accelerator selection
        from repro.radio import BACKEND_ENV_VAR

        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert_metrics_identical(
            run_fleet(make_spec(5), n_shards=2),
            run_fleet(make_spec(5, pathloss_backend="reference"), n_shards=2),
        )

    def test_unknown_backend_fails_in_worker(self):
        spec = make_spec(3, pathloss_backend="not-a-kernel")
        with pytest.raises(ValueError, match="unknown pathloss backend"):
            run_fleet(spec)


@pytest.mark.flc_backend
class TestFLCBackendEquivalence:
    """ISSUE-5 threading: ``flc_backend`` reaches the shard workers'
    handover systems, and the guard-banded decision path keeps every
    handover/ping-pong count identical to the reference backend."""

    @pytest.mark.parametrize("n_shards", [1, 4])
    def test_run_fleet_decisions_identical_on_lut(self, n_shards):
        reference = run_fleet(
            make_spec(16, flc_backend="reference"), n_shards=n_shards
        )
        lut = run_fleet(make_spec(16, flc_backend="lut"), n_shards=n_shards)
        for name in (
            "handovers_per_ue",
            "ping_pongs_per_ue",
            "necessary_per_ue",
            "epochs_per_ue",
            "wrong_epochs_per_ue",
            "dwell_epochs_per_ue",
            "dwell_count_per_ue",
            "output_count_per_ue",
        ):
            np.testing.assert_array_equal(
                getattr(lut, name), getattr(reference, name), err_msg=name
            )
        # the per-UE FLC-output aggregates may differ, but only within
        # the documented interpolation bound per evaluated sample
        from repro.fuzzy import LUT_ERROR_BOUND

        diff = np.abs(lut.output_sum_per_ue - reference.output_sum_per_ue)
        budget = LUT_ERROR_BOUND * np.maximum(
            reference.output_count_per_ue, 1
        )
        assert np.all(diff <= budget)

    def test_with_flc_backend_threads_into_params(self):
        spec = make_spec(4, flc_backend="lut")
        assert spec.make_system().flc_backend == "lut"
        assert spec.population.make_system().flc_backend == "lut"

    def test_default_flc_backend_is_reference(self, monkeypatch):
        from repro.fuzzy import FLC_BACKEND_ENV_VAR

        monkeypatch.delenv(FLC_BACKEND_ENV_VAR, raising=False)
        assert_metrics_identical(
            run_fleet(make_spec(5), n_shards=2),
            run_fleet(make_spec(5, flc_backend="reference"), n_shards=2),
        )

    def test_unknown_flc_backend_fails_in_worker(self):
        spec = make_spec(3, flc_backend="not-a-kernel")
        with pytest.raises(ValueError, match="unknown FLC backend"):
            run_fleet(spec)

    def test_both_backend_kinds_compose(self):
        combined = run_fleet(
            make_spec(6, pathloss_backend="numpy", flc_backend="lut"),
            n_shards=2,
        )
        plain = run_fleet(make_spec(6), n_shards=2)
        np.testing.assert_array_equal(
            combined.handovers_per_ue, plain.handovers_per_ue
        )
        np.testing.assert_array_equal(
            combined.ping_pongs_per_ue, plain.ping_pongs_per_ue
        )


class TestRunFleetValidation:
    def test_worker_validation(self):
        with pytest.raises(ValueError, match="max_workers"):
            run_fleet(make_spec(4), n_shards=2, max_workers=0)

    def test_executor_and_workers_mutually_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            run_fleet(
                make_spec(4),
                n_shards=2,
                max_workers=2,
                executor=SerialExecutor(),
            )

    def test_custom_executor(self):
        spec = make_spec(6)
        expected = compute_fleet_metrics(full_log(spec))
        got = run_fleet(spec, n_shards=3, executor=SerialExecutor())
        assert_metrics_identical(got, expected)
