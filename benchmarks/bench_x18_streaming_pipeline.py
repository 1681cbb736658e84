"""X18 — epoch-tiled streaming measurement vs the materialized pipeline.

The same fleet range, all N UEs as one block on the calling thread,
measured two ways and run through the same batch engine: materialized
up front (``MeasurementSampler.measure_batch``, the series full logs
and recorded traces use) and streamed through ``X18_TILE``-epoch tiles
(``measure_batch_tiles``, 16 by default, the path every fleet range
takes).  The streamed path keeps only the mobility arrays and one
recycled ``(N, tile, cells)`` power buffer resident, so its peak
footprint is O(N·tile·cells) in place of the materialized O(N·T·cells)
power cube.

``test_x18_streaming_memory_and_runtime`` is the ISSUE-7 acceptance
check, asserted at the full N = 20000 × T ≈ 200 workload over 5
alternating streamed/materialized pairs: peak traced memory at least 4×
below the materialized path in every pair, median runtime ratio no
worse than 1.05× — and byte-identical ``FleetMetrics`` at every size.
Every pair's ratios are recorded in ``BENCH_x18.json``.
``test_x18_tile_identity`` pins ``run_fleet`` across 1-, 3- and
64-epoch tiles against the materialized range at a size every CI run
affords.  ``test_x18_scale_datapoint`` records the repo's first
N = 10^5 fleet run (tiny horizon, streamed) into the same
``BENCH_x18.json``.
``test_x18_fading_bank_speedup`` times the fleet
fading bank against one ``ShadowFadingStream`` per UE over the same
tiles of min(N, 2000) fading UEs (median of 5 back-to-back pairs):
identical tile bytes always, at least 4x faster asserted at N = 20000.

Environment knobs: ``X18_FLEET_SIZE`` (default 20000), ``X18_WALKS``
(default 17, ≈ 204 measurement epochs), ``X18_TILE`` (default 16),
``X18_SCALE_UES`` (default 100000), ``X18_SCALE_WALKS`` (default 2).
"""

import hashlib
import json
import os
import time
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from conftest import bench_artifact_path, run_measured, write_bench_artifact

from repro.radio.fading import ShadowFadingStream
from repro.sim import (
    FleetSpec,
    MeasurementSampler,
    SimulationParameters,
    measurement,
    run_fleet,
)
from repro.sim.metrics import DEFAULT_OUTAGE_DBW, DEFAULT_WINDOW_KM

N = int(os.environ.get("X18_FLEET_SIZE", "20000"))
WALKS = int(os.environ.get("X18_WALKS", "17"))
TILE = int(os.environ.get("X18_TILE", "16"))
SCALE_UES = int(os.environ.get("X18_SCALE_UES", "100000"))
SCALE_WALKS = int(os.environ.get("X18_SCALE_WALKS", "2"))
N_ACCEPT = 20000        # the acceptance-criterion fleet size
MEMORY_RATIO = 4.0      # materialized peak / streamed peak, at least
RUNTIME_RATIO = 1.05    # streamed / materialized wall-clock, at most
RUNTIME_PAIRS = 5       # streamed/materialized pairs; the median ratio counts
FADING_UES = min(N, 2000)
FADING_SPEEDUP = 4.0    # per-UE streams / fading bank wall-clock, at least
FADING_REPEATS = 5      # bank/per-UE pass pairs; the median ratio counts

PARAMS = SimulationParameters(n_walks=WALKS)
SPEC = FleetSpec(n_ues=N, n_walks=WALKS, base_seed=3000, params=PARAMS)


@contextmanager
def tile_size(k):
    """Stream ``k``-epoch tiles on every fleet range (in-process runs
    only: a worker process would not see the patch)."""
    with mock.patch.object(measurement, "DEFAULT_TILE_EPOCHS", k):
        yield


def run_range(spec, tile_epochs):
    """The fleet's metrics with all its UEs as one block on this
    thread, as one block of ``run_fleet`` runs them: materialized for
    ``tile_epochs == 0``, else streamed in ``tile_epochs``-epoch
    tiles."""
    population = spec.population
    sampler = population.make_sampler()
    traces = population.traces()
    profiles = population.fading_profiles()
    if tile_epochs:
        source = sampler.measure_batch_tiles(
            traces, tile_epochs, fading_profiles=profiles
        )
    else:
        source = sampler.measure_batch(traces, fading_profiles=profiles)
    metrics = population.simulator().run_metrics(
        source, window_km=DEFAULT_WINDOW_KM, outage_dbw=DEFAULT_OUTAGE_DBW
    )
    return metrics.with_cohorts(
        population.cohort_ids(), population.cohort_names
    )


def assert_identical_metrics(got, ref):
    """Byte-identity down to the per-UE arrays (dataclass ``==`` only
    covers the scalar aggregates)."""
    assert got == ref
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
            getattr(got, name), getattr(ref, name), err_msg=name
        )


@pytest.mark.streaming
def test_x18_tile_identity():
    """Streaming is a memory choice, not a physics one: ``run_fleet``
    at every tile width reproduces the materialized range's metrics
    bit-for-bit (asserted at a size every CI run affords)."""
    params = SimulationParameters(n_walks=8)
    spec = FleetSpec(n_ues=32, n_walks=8, base_seed=3000, params=params)
    ref = run_range(spec, 0)
    for k in (1, 3, 64):
        with tile_size(k):
            got = run_fleet(spec, n_shards=1, max_workers=1)
        assert_identical_metrics(got, ref)


@pytest.mark.streaming
def test_x18_streaming_memory_and_runtime():
    """ISSUE-7 acceptance: >= 4x lower peak memory in every pair and a
    median runtime ratio <= 1.05x vs the materialized pipeline at
    N = 20000 x T ~ 200, byte-identical metrics at every size.

    ``RUNTIME_PAIRS`` pairs, alternating which path runs first, so host
    drift and warm-up land on both sides; one pair alone read 1.066x
    and then 1.021x minutes apart on the same code."""
    pairs = []
    for k in range(RUNTIME_PAIRS):
        order = (TILE, 0) if k % 2 == 0 else (0, TILE)
        runs = {tile: run_measured(run_range, SPEC, tile) for tile in order}
        streamed, t_streamed, mem_streamed = runs[TILE]
        materialized, t_mat, mem_mat = runs[0]
        # streaming must never change the physics, whatever the size
        assert_identical_metrics(streamed, materialized)
        pairs.append({
            "streamed_first": order[0] == TILE,
            "materialized_s": t_mat,
            "streamed_s": t_streamed,
            "runtime_ratio": t_streamed / t_mat,
            "tracemalloc_peak_materialized": mem_mat,
            "tracemalloc_peak_streamed": mem_streamed,
            "memory_reduction": mem_mat / mem_streamed,
        })
    ratios = [p["runtime_ratio"] for p in pairs]
    time_ratio = float(np.median(ratios))
    mem_ratio = min(p["memory_reduction"] for p in pairs)
    t_mat = float(np.median([p["materialized_s"] for p in pairs]))
    t_streamed = float(np.median([p["streamed_s"] for p in pairs]))
    print(
        f"\nx18: materialized {t_mat:.2f} s, streamed (tile={TILE}) "
        f"{t_streamed:.2f} s (medians of {RUNTIME_PAIRS} pairs) over {N} "
        f"UEs -> >= {mem_ratio:.1f}x less memory, {time_ratio:.3f}x "
        f"runtime (pairs: {', '.join(f'{r:.3f}' for r in ratios)})"
    )
    # persist the record before any assert: the perf trajectory matters
    # most on exactly the runs where a pin fails
    write_bench_artifact(
        "x18",
        n=N,
        timings_s={"materialized": t_mat, "streamed": t_streamed},
        speedups={
            "memory_reduction_streamed": mem_ratio,
            "runtime_streamed_vs_materialized_ratio": time_ratio,
        },
        memory={
            "tracemalloc_peak_materialized": max(
                p["tracemalloc_peak_materialized"] for p in pairs
            ),
            "tracemalloc_peak_streamed": max(
                p["tracemalloc_peak_streamed"] for p in pairs
            ),
        },
        walks=WALKS,
        tile_epochs=TILE,
        runtime_pairs=pairs,
    )
    if N < N_ACCEPT:
        pytest.skip(
            f"pins asserted at N={N_ACCEPT}, ran N={N} (smoke mode)"
        )
    assert mem_ratio >= MEMORY_RATIO, (
        f"streamed peak memory only {mem_ratio:.2f}x below the "
        f"materialized path in its worst pair (target {MEMORY_RATIO}x "
        f"at N={N})"
    )
    assert time_ratio <= RUNTIME_RATIO, (
        f"streamed runtime {time_ratio:.3f}x the materialized path, "
        f"median of {RUNTIME_PAIRS} pairs (budget {RUNTIME_RATIO}x at "
        f"N={N})"
    )


@pytest.mark.streaming
def test_x18_scale_datapoint():
    """The ROADMAP's N = 10^5 scaling datapoint: a tiny-horizon fleet
    through the streamed pipeline, merged into ``BENCH_x18.json``."""
    params = SimulationParameters(n_walks=SCALE_WALKS)
    spec = FleetSpec(
        n_ues=SCALE_UES, n_walks=SCALE_WALKS, base_seed=3000, params=params
    )
    with tile_size(TILE):
        fleet, t, mem = run_measured(
            run_fleet, spec, n_shards=1, max_workers=1
        )
    assert fleet.n_ues == SCALE_UES
    print(
        f"\nx18 scale: {SCALE_UES} UEs x {SCALE_WALKS} walks streamed in "
        f"{t:.2f} s, {mem / 2**20:.0f} MiB peak "
        f"({fleet.n_handovers} handovers)"
    )
    # read-modify-write: ride in the pin test's artifact when it exists
    # (fresh file otherwise, e.g. running this test alone)
    path = bench_artifact_path("x18")
    if not path.exists():
        write_bench_artifact("x18", n=N, walks=WALKS, tile_epochs=TILE)
    payload = json.loads(path.read_text())
    payload["scale"] = {
        "n_ues": SCALE_UES,
        "walks": SCALE_WALKS,
        "tile_epochs": TILE,
        "elapsed_s": float(t),
        "tracemalloc_peak_streamed": int(mem),
        "n_handovers": int(fleet.n_handovers),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def timed_pass(tiles, finish=lambda tile: tile.power_dbw):
    """Seconds spent producing (and ``finish``-ing) each tile of a
    pass, and a digest of every tile's power bytes (hashed untimed)."""
    elapsed, digests = 0.0, []
    tiles = iter(tiles)
    while True:
        t0 = time.perf_counter()
        tile = next(tiles, None)
        if tile is None:
            return elapsed, digests
        power = finish(tile)
        elapsed += time.perf_counter() - t0
        digests.append(hashlib.sha256(power.tobytes()).digest())


@pytest.mark.streaming
def test_x18_fading_bank_speedup():
    """The tiled measurement pass with the fleet fading bank against the
    same pass fading-free plus one ``ShadowFadingStream.sample_next``
    call per UE per tile: identical tile bytes, >= 4x faster at the
    acceptance size."""
    params = SimulationParameters(n_walks=WALKS, shadow_sigma_db=6.0)
    spec = FleetSpec(
        n_ues=FADING_UES, n_walks=WALKS, base_seed=3000, params=params
    )
    batch = spec.population.traces()
    seeds = [spec.fading_base_seed + i for i in range(FADING_UES)]
    sampler = MeasurementSampler(
        params.make_layout(),
        params.make_propagation(),
        spacing_km=params.measurement_spacing_km,
    )
    cells = sampler.layout.n_cells

    def bank_pass():
        # fresh processes per pass: a pass consumes their generators
        tiled = sampler.measure_batch_tiles(
            batch,
            TILE,
            fading_profiles=[params.make_fading(rng=s) for s in seeds],
        )
        return timed_pass(tiled.tiles())

    def stream_pass():
        tiled = sampler.measure_batch_tiles(batch, TILE)
        streams = [
            ShadowFadingStream(params.make_fading(rng=s)) for s in seeds
        ]

        def per_ue_streams(tile):
            power = tile.power_dbw.copy()
            for i, stream in enumerate(streams):
                t = min(int(tiled.lengths[i]), tile.stop) - tile.start
                if t > 0:
                    power[i, :t] += stream.sample_next(
                        tile.distance_km[i, :t], n_sources=cells
                    )
            return power

        return timed_pass(tiled.tiles(), per_ue_streams)

    # FADING_REPEATS back-to-back pairs, a fresh stream per pass (fading
    # tiles are single-shot); the median pair ratio damps host drift
    bank_runs, stream_runs = [], []
    for _ in range(FADING_REPEATS):
        bank_runs.append(bank_pass())
        stream_runs.append(stream_pass())
    digests = {tuple(d) for _, d in bank_runs + stream_runs}
    identical = len(digests) == 1
    t_bank = [t for t, _ in bank_runs]
    t_streams = [t for t, _ in stream_runs]
    speedup = float(np.median(np.divide(t_streams, t_bank)))
    print(
        f"\nx18 fading: bank {np.median(t_bank):.2f} s, per-UE streams "
        f"{np.median(t_streams):.2f} s over {FADING_UES} UEs x {WALKS} "
        f"walks (tile={TILE}) -> {speedup:.1f}x (median of "
        f"{FADING_REPEATS} pairs)"
    )
    # persist before any assert (read-modify-write, as the scale test)
    path = bench_artifact_path("x18")
    if not path.exists():
        write_bench_artifact("x18", n=N, walks=WALKS, tile_epochs=TILE)
    payload = json.loads(path.read_text())
    payload["fading_bank"] = {
        "n_ues": FADING_UES,
        "walks": WALKS,
        "tile_epochs": TILE,
        "timings_s": {"bank": t_bank, "per_ue_streams": t_streams},
        "speedup_bank_vs_per_ue_streams": speedup,
        "identical": bool(identical),
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    assert identical, "fading bank tiles differ from the per-UE streams"
    if N < N_ACCEPT:
        pytest.skip(
            f"speedup asserted at N={N_ACCEPT}, ran N={N} (smoke mode)"
        )
    assert speedup >= FADING_SPEEDUP, (
        f"fading bank only {speedup:.2f}x faster than per-UE streams "
        f"(target {FADING_SPEEDUP}x over {FADING_UES} UEs)"
    )
