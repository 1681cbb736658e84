"""Epoch-tiled streaming measurement: byte-identity and memory pins.

The streaming contract in one file: it is a *memory* choice, never a
physics one.  Every fleet range streams its tiles, and every tile
width, shard count and population mix must reproduce the materialised
pipeline bit-for-bit (same RNG draw order per UE): the tile stream
against :meth:`~repro.sim.measurement.MeasurementSampler.measure_batch`,
and ``run_fleet`` against the full-log oracle.  The streamed
``run_metrics`` pass must not allocate proportionally to the horizon.
"""

import contextlib
import pickle
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from repro.core import FuzzyHandoverSystem
from repro.mobility import GaussMarkov, TraceBatch
from repro.radio.fading import ShadowFading, ShadowFadingStream
from repro.sim import (
    DEFAULT_TILE_EPOCHS,
    BatchSimulator,
    FleetSpec,
    MeasurementSampler,
    SimulationParameters,
    TiledBatchMeasurement,
    compute_fleet_metrics,
    named_population,
    run_fleet,
)
from repro.sim import measurement
from repro.sim.population import (
    POPULATION_MIXES,
    PolicyConfig,
    PopulationSpec,
    UECohort,
)

PER_UE_ARRAYS = (
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
)


def assert_identical(got, ref):
    """FleetMetrics byte-identity down to per-UE arrays and cohort
    labels (dataclass ``==`` only covers the scalar aggregates)."""
    assert got == ref
    for name in PER_UE_ARRAYS:
        np.testing.assert_array_equal(
            getattr(got, name), getattr(ref, name), err_msg=name
        )
    assert got.cohort_names == ref.cohort_names
    if ref.cohort_ids_per_ue is not None:
        np.testing.assert_array_equal(
            got.cohort_ids_per_ue, ref.cohort_ids_per_ue
        )


@contextlib.contextmanager
def tile_size(k):
    """Stream ``k``-epoch tiles on every fleet range; ``None`` keeps
    :data:`DEFAULT_TILE_EPOCHS` (serial runs only: a worker process
    would not see the patch)."""
    if k is None:
        yield
        return
    with mock.patch.object(measurement, "DEFAULT_TILE_EPOCHS", k):
        yield


def full_log_oracle(population):
    """The population's metrics through the full-log path: the batch
    engine's complete log over the materialised series, reduced after
    the fact and cohort-labelled as a fleet run labels them."""
    log = population.simulator().run(population.measure())
    return compute_fleet_metrics(log).with_cohorts(
        population.cohort_ids(), population.cohort_names
    )


def make_sampler(params, with_fading=False):
    return MeasurementSampler(
        params.make_layout(),
        params.make_propagation(),
        spacing_km=params.measurement_spacing_km,
        fading=params.make_fading() if with_fading else None,
    )


def fading_profiles(params, seeds):
    """One shadowing process per UE under ``params``, seeded by
    ``seeds``."""
    return [params.make_fading(rng=seed) for seed in seeds]


def make_batch(params, n, base_seed=100, uneven=False):
    """``n`` seeded walks; ``uneven`` varies leg counts per UE so the
    per-UE trace lengths differ."""
    traces = []
    for i in range(n):
        legs = params.n_walks + (i % 3 if uneven else 0)
        traces.append(params.make_walk(legs).generate_seeded(base_seed + i))
    return TraceBatch.from_traces(traces)


# ----------------------------------------------------------------------
# the fading stream: tile-resumable sample_along
# ----------------------------------------------------------------------
class TestShadowFadingStream:
    def _pair(self, sigma=4.0, dec=0.1, seed=7):
        """Two identically seeded processes: one for the one-shot
        reference, one to drive through the stream."""
        return (
            ShadowFading(sigma, dec, np.random.default_rng(seed)),
            ShadowFading(sigma, dec, np.random.default_rng(seed)),
        )

    def _distances(self, n=24, seed=3):
        rng = np.random.default_rng(seed)
        return np.cumsum(rng.uniform(0.01, 0.2, size=n))

    @pytest.mark.parametrize("dec", [0.0, 0.1, 2.5])
    @pytest.mark.parametrize(
        "bounds", [(24,), (5, 24), (1, 2, 3, 24), (11, 12, 24)]
    )
    def test_chunked_draws_match_one_shot(self, dec, bounds):
        ref_p, stream_p = self._pair(dec=dec)
        d = self._distances()
        expected = ref_p.sample_along(d, n_sources=19)
        stream = ShadowFadingStream(stream_p)
        lo = 0
        chunks = []
        for hi in bounds:
            chunks.append(stream.sample_next(d[lo:hi], n_sources=19))
            lo = hi
        np.testing.assert_array_equal(np.concatenate(chunks), expected)

    def test_zero_sigma_is_zeros_and_draws_nothing(self):
        p = ShadowFading(0.0, 0.1, np.random.default_rng(9))
        stream = ShadowFadingStream(p)
        out = stream.sample_next(self._distances(6), n_sources=3)
        assert out.shape == (6, 3)
        assert not out.any()
        # the rng was never consumed: a fresh draw matches a twin's
        twin = np.random.default_rng(9)
        np.testing.assert_array_equal(p.rng.normal(size=4), twin.normal(size=4))


# ----------------------------------------------------------------------
# the tiled measurement source
# ----------------------------------------------------------------------
class TestTiledMeasurement:
    PARAMS = SimulationParameters(n_walks=3)
    FADING_PARAMS = SimulationParameters(
        n_walks=3, shadow_sigma_db=4.0, shadow_decorrelation_km=0.1
    )

    def test_tiles_match_materialized_slices(self):
        sampler = make_sampler(self.PARAMS)
        batch = make_batch(self.PARAMS, 5)
        ref = sampler.measure_batch(batch)
        tiled = sampler.measure_batch_tiles(batch, tile_epochs=3)
        stop = 0
        for tile in tiled.tiles():
            assert tile.start == stop
            stop = tile.stop
            sl = slice(tile.start, stop)
            np.testing.assert_array_equal(
                tile.power_dbw, ref.power_dbw[:, sl]
            )
            np.testing.assert_array_equal(
                tile.positions_km, ref.positions_km[:, sl]
            )
            np.testing.assert_array_equal(
                tile.distance_km, ref.distance_km[:, sl]
            )
        assert stop == ref.power_dbw.shape[1]

    @pytest.mark.parametrize("rows", [1, 3])
    @pytest.mark.parametrize("fading", [False, True])
    def test_row_chunked_tile_fill_matches_materialized(self, rows, fading):
        """Tiles fill their live rows a few kernel calls at a time; the
        chunking shows in no byte, padding included."""
        params = self.FADING_PARAMS if fading else self.PARAMS
        batch = make_batch(params, 7, uneven=True)
        seeds = [900 + i for i in range(7)]
        ref = make_sampler(params).measure_batch(
            batch,
            fading_profiles=fading_profiles(params, seeds) if fading else None,
        )
        tiled = make_sampler(params).measure_batch_tiles(
            batch,
            tile_epochs=4,
            fading_profiles=fading_profiles(params, seeds) if fading else None,
        )
        assert len(set(tiled.lengths.tolist())) > 1
        with mock.patch.object(measurement, "_ROWS_PER_CALL", rows):
            for tile in tiled.tiles():
                want = ref.power_dbw[:, tile.start : tile.stop]
                assert tile.power_dbw.tobytes() == want.tobytes()

    @pytest.mark.parametrize("k", [1, 3, 64])
    def test_materialize_identity_with_fading(self, k):
        """The tile stream assembled into a cube is the materialised
        series, every array of it."""
        params = self.FADING_PARAMS
        seeds = [500 + i for i in range(5)]
        batch = make_batch(params, 5, uneven=True)
        ref = make_sampler(params).measure_batch(
            batch, fading_profiles=fading_profiles(params, seeds)
        )
        tiled = make_sampler(params).measure_batch_tiles(
            batch,
            tile_epochs=k,
            fading_profiles=fading_profiles(params, seeds),
        )
        power = np.empty_like(ref.power_dbw)
        for tile in tiled.tiles():
            power[:, tile.start : tile.stop] = tile.power_dbw
        np.testing.assert_array_equal(power, ref.power_dbw)
        np.testing.assert_array_equal(tiled.positions_km, ref.positions_km)
        np.testing.assert_array_equal(tiled.distance_km, ref.distance_km)
        np.testing.assert_array_equal(tiled.lengths, ref.lengths)

    @pytest.mark.parametrize("k", [1, 3, 64])
    def test_run_metrics_identity_uneven_lengths(self, k):
        params = self.FADING_PARAMS
        seeds = [700 + i for i in range(7)]
        batch = make_batch(params, 7, uneven=True)
        sampler = make_sampler(params)
        system = FuzzyHandoverSystem(cell_radius_km=params.cell_radius_km)
        speeds = np.arange(7, dtype=float) * 10.0
        ref = BatchSimulator(system, speed_kmh=speeds).run_metrics(
            sampler.measure_batch(
                batch, fading_profiles=fading_profiles(params, seeds)
            )
        )
        tiled = sampler.measure_batch_tiles(
            batch,
            tile_epochs=k,
            fading_profiles=fading_profiles(params, seeds),
        )
        got = BatchSimulator(system, speed_kmh=speeds).run_metrics(tiled)
        assert_identical(got, ref)

    def test_fading_tiles_are_single_shot(self):
        params = self.FADING_PARAMS
        tiled = make_sampler(params).measure_batch_tiles(
            make_batch(params, 3),
            tile_epochs=4,
            fading_profiles=fading_profiles(params, [1, 2, 3]),
        )
        for _ in tiled.tiles():
            pass
        with pytest.raises(RuntimeError):
            next(iter(tiled.tiles()))

    def test_shared_fading_process_not_tileable(self):
        sampler = make_sampler(self.FADING_PARAMS, with_fading=True)
        batch = make_batch(self.FADING_PARAMS, 4)
        # no per-UE profiles: one process shared across UEs would make
        # each UE's draws depend on the visiting order, so both batch
        # paths refuse it and name the missing argument
        with pytest.raises(ValueError, match="fading_profiles"):
            sampler.measure_batch_tiles(batch, tile_epochs=2)
        with pytest.raises(ValueError, match="fading_profiles"):
            sampler.measure_batch(batch)

    def test_zero_tile_epochs_rejected(self):
        sampler = make_sampler(self.PARAMS)
        with pytest.raises(ValueError):
            sampler.measure_batch_tiles(
                make_batch(self.PARAMS, 2), tile_epochs=0
            )


# ----------------------------------------------------------------------
# fleet-level byte-identity matrix
# ----------------------------------------------------------------------
_URBAN = {c.name: c for c in POPULATION_MIXES["urban_mix"]}

#: urban_mix with per-cohort fading and a vehicular policy override
MIXED_POLICY_COHORTS = (
    _URBAN["pedestrian"],
    replace(
        _URBAN["vehicular"],
        shadow_sigma_db=8.0,
        policy=PolicyConfig(threshold=0.75),
    ),
    replace(_URBAN["stationary"], shadow_sigma_db=4.0),
)

FADING_6DB = SimulationParameters(shadow_sigma_db=6.0)


def homogeneous(n_ues):
    """``repro fleet --ues N``'s fleet: the paper's walk, 10 legs."""
    return FleetSpec(n_ues=n_ues, n_walks=10).population


def urban_mix(n_ues):
    return named_population("urban_mix", n_ues, FADING_6DB, base_seed=77)


def mixed_policies(n_ues):
    return PopulationSpec(
        n_ues=n_ues,
        cohorts=MIXED_POLICY_COHORTS,
        params=FADING_6DB,
        base_seed=88,
        fading_base_seed=90_000,
    )


#: small and mid-sized ranges, whose power cubes (at most ~4M entries)
#: would fit in memory whole, homogeneous and mixed
ORACLE_FLEETS = {
    "homogeneous 3": lambda: homogeneous(3),
    "homogeneous 100": lambda: homogeneous(100),
    "homogeneous 1000": lambda: homogeneous(1000),
    "urban_mix 100": lambda: urban_mix(100),
    "urban_mix 1000": lambda: urban_mix(1000),
    "mixed policies 100": lambda: mixed_policies(100),
    "mixed policies 1000": lambda: mixed_policies(1000),
}


@pytest.mark.streaming
class TestStreamingFleetIdentity:
    PARAMS = SimulationParameters(
        n_walks=3, shadow_sigma_db=4.0, shadow_decorrelation_km=0.1
    )

    @pytest.mark.parametrize("fleet", sorted(ORACLE_FLEETS))
    def test_run_fleet_pickles_as_the_full_log_oracle(self, fleet):
        """Every range streams 16-epoch tiles, the small ones included:
        ``run_fleet`` at 1 and 3 shards pickles exactly as the full log
        over the materialised series, reduced and cohort-labelled."""
        population = ORACLE_FLEETS[fleet]()
        want = pickle.dumps(full_log_oracle(population))
        spec = FleetSpec.from_population(population)
        for n_shards in (1, 3):
            got = run_fleet(spec, n_shards=n_shards, max_workers=1)
            assert pickle.dumps(got) == want, (fleet, n_shards)

    @pytest.mark.parametrize("n", [1, 7, 32])
    def test_tile_and_shard_matrix(self, n):
        spec = FleetSpec(
            n_ues=n, n_walks=3, base_seed=900, params=self.PARAMS
        )
        ref = full_log_oracle(spec.population)
        for k in (1, 3, 64, None):
            for shards in (1, 4):
                with tile_size(k):
                    got = run_fleet(spec, n_shards=shards, max_workers=1)
                assert_identical(got, ref)

    def test_heterogeneous_population(self):
        params = SimulationParameters(n_walks=3)
        cohorts = (
            UECohort(
                name="ped",
                model=params.make_walk(3),
                count=5,
                speeds_kmh=(4.0,),
                shadow_sigma_db=6.0,
                shadow_decorrelation_km=0.1,
            ),
            UECohort(
                name="veh",
                model=params.make_walk(6),
                count=5,
                speeds_kmh=(60.0,),
                policy=PolicyConfig(threshold=0.5),
            ),
            UECohort(
                name="gm",
                model=GaussMarkov(n_steps=4),
                count=5,
                speed_range_kmh=(10.0, 30.0),
                shadow_sigma_db=2.0,
            ),
        )
        pop = PopulationSpec(
            n_ues=15, cohorts=cohorts, params=params, base_seed=4000
        )
        ref = full_log_oracle(pop)
        for k in (1, 3, 64, None):
            with tile_size(k):
                assert_identical(pop.run_metrics(), ref)
        spec = FleetSpec.from_population(pop)
        for shards in (1, 4):
            with tile_size(3):
                got = run_fleet(spec, n_shards=shards, max_workers=1)
            assert_identical(got, ref)

    def test_every_shard_streams_its_own_tiles(self):
        """Whatever its size, every shard streams its own tiles of
        ``DEFAULT_TILE_EPOCHS`` epochs, read when the range runs: one
        tile stream per shard, the full-log oracle's metrics."""
        spec = FleetSpec(n_ues=8, n_walks=3, base_seed=900, params=self.PARAMS)
        ref = full_log_oracle(spec.population)
        streams = []
        real = TiledBatchMeasurement.__init__

        def spy(stream, *args, **kwargs):
            real(stream, *args, **kwargs)
            streams.append(stream.tile_epochs)

        with mock.patch.object(TiledBatchMeasurement, "__init__", spy):
            got = run_fleet(spec, n_shards=4, max_workers=1)
            assert streams == [DEFAULT_TILE_EPOCHS] * 4
            assert_identical(got, ref)
            streams.clear()
            with tile_size(3):
                got = run_fleet(spec, n_shards=4, max_workers=1)
        assert streams == [3, 3, 3, 3]
        assert_identical(got, ref)


# ----------------------------------------------------------------------
# memory guardrail: streamed run_metrics is sublinear in the horizon
# ----------------------------------------------------------------------
@pytest.mark.streaming
class TestMemoryGuardrail:
    def _streamed_peak(self, n_walks, n=16, tile=4):
        """Traced allocation peak of the streamed ``run_metrics`` pass
        alone — the tile source (mobility arrays included) is built
        before tracing, so the peak is what *consuming* the stream
        costs."""
        params = SimulationParameters(n_walks=n_walks)
        sampler = make_sampler(params)
        batch = make_batch(params, n, base_seed=50)
        system = FuzzyHandoverSystem(cell_radius_km=params.cell_radius_km)
        speeds = np.full(n, 30.0)
        tiled = sampler.measure_batch_tiles(batch, tile_epochs=tile)
        horizon = int(np.max(tiled.lengths))
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            BatchSimulator(system, speed_kmh=speeds).run_metrics(tiled)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, horizon

    def test_run_metrics_peak_sublinear_in_horizon(self):
        peak_small, t_small = self._streamed_peak(n_walks=4)
        peak_big, t_big = self._streamed_peak(n_walks=32)
        t_ratio = t_big / t_small
        assert t_ratio > 4.0, "workloads too close to discriminate"
        peak_ratio = peak_big / peak_small
        assert peak_ratio <= 0.5 * t_ratio, (
            f"streamed run_metrics peak grew {peak_ratio:.2f}x over a "
            f"{t_ratio:.2f}x horizon increase — that is not sublinear "
            f"({peak_small} -> {peak_big} bytes for T {t_small} -> {t_big})"
        )

    def test_fading_bank_peak_close_to_fading_free(self):
        """The fading bank fills the materialised horizon in fixed epoch
        blocks, so per-UE fading adds at most 10% to measure_batch's
        traced peak on a 1200-UE, 7-walk batch; scratch as wide as the
        horizon would add about half the power cube."""
        params = SimulationParameters(n_walks=7, shadow_sigma_db=6.0)
        batch = params.make_walk(7).generate_batch_seeded(
            list(range(50, 1250))
        )

        def peak(sampler, **kwargs):
            tracemalloc.start()
            tracemalloc.reset_peak()
            try:
                sampler.measure_batch(batch, **kwargs)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak

        faded = peak(
            make_sampler(params),
            fading_profiles=fading_profiles(params, range(1200)),
        )
        plain = peak(make_sampler(params))
        assert faded <= 1.10 * plain, (
            f"measure_batch peaked at {faded} bytes with fading, "
            f"{faded / plain:.3f}x its {plain}-byte fading-free peak"
        )

    def test_densify_peak_bounded_by_output(self):
        """Fleet-wide densify fills UEs in blocks: its traced peak over
        a 4000-UE urban_mix population stays within 3x the densified
        positions array it returns."""
        population = named_population("urban_mix", 4000)
        batch = population.traces()
        spacing = population.params.measurement_spacing_km
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            dense = batch.densify(spacing)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        ratio = peak / dense.positions.nbytes
        assert ratio <= 3.0, (
            f"densify peaked at {peak} bytes, {ratio:.2f}x its "
            f"{dense.positions.nbytes}-byte output"
        )
