"""X12 — the vectorised batch engine vs N scalar simulator runs.

The same mixed-speed fleet (independent seeded walks, paper physics)
through :class:`repro.sim.batch.BatchSimulator` in one lockstep pass and
through N fresh scalar :class:`~repro.sim.engine.Simulator` runs.  The
per-UE logs are identical by construction (the equivalence suite pins
them bit-for-bit); the point here is throughput: one batched FLC call
per epoch across the fleet instead of one Python-loop pipeline per UE.

``test_x12_speedup_at_n1000`` is the ISSUE-1 acceptance check: at
N = 1000 UEs the batch path must be at least 10× faster end-to-end
(measurement + simulation) than the N scalar runs (asserted at the
full fleet size; ``X12_FLEET_SIZE`` shrinks the run for CI smoke,
which still regenerates the ``BENCH_x12.json`` artifact).  It also pins
the mobility front end on its own: seeded batch generation plus
fleet-wide densify must be at least 3× faster than the per-trace
``generate_seeded(s).densify(spacing)`` loop at N = 1000.
"""

import os
import time

import numpy as np
import pytest
from conftest import run_measured, run_once, write_bench_artifact

from repro.core import FuzzyHandoverSystem
from repro.mobility import TraceBatch
from repro.sim import (
    BatchSimulator,
    MeasurementSampler,
    SimulationParameters,
    Simulator,
)

PARAMS = SimulationParameters(n_walks=10)
BASE_SEED = 2000
N_BENCH = 200       # calibrated-group size (keeps the scalar side short)
N_ACCEPT = 1000     # the acceptance-criterion fleet size
N_FULL = int(os.environ.get("X12_FLEET_SIZE", str(N_ACCEPT)))


def make_sampler():
    return MeasurementSampler(
        PARAMS.make_layout(),
        PARAMS.make_propagation(),
        spacing_km=PARAMS.measurement_spacing_km,
    )


def fleet_speeds(n):
    return np.array([10.0 * (i % 6) for i in range(n)])


def fleet_traces(n):
    walk = PARAMS.make_walk()
    return [walk.generate_seeded(BASE_SEED + i) for i in range(n)]


def run_scalar_fleet(traces, speeds):
    sampler = make_sampler()
    out = []
    for trace, speed in zip(traces, speeds):
        system = FuzzyHandoverSystem(cell_radius_km=PARAMS.cell_radius_km)
        out.append(
            Simulator(system, speed_kmh=float(speed)).run(
                sampler.measure(trace)
            )
        )
    return out


def run_batch_fleet(traces, speeds):
    sampler = make_sampler()
    series = sampler.measure_batch(TraceBatch.from_traces(traces))
    system = FuzzyHandoverSystem(cell_radius_km=PARAMS.cell_radius_km)
    return BatchSimulator(system, speed_kmh=speeds).run(series)


def front_end_batch(seeds):
    """Walks and measurement epochs through the batch front end."""
    walk = PARAMS.make_walk()
    return walk.generate_batch_seeded(seeds).densify(
        PARAMS.measurement_spacing_km
    )


def front_end_scalar(seeds):
    walk = PARAMS.make_walk()
    return [
        walk.generate_seeded(s).densify(PARAMS.measurement_spacing_km)
        for s in seeds
    ]


def best_of(fn, *args, repeats=3):
    """``(result, best wall seconds)`` over ``repeats`` untraced runs."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return result, best


@pytest.mark.benchmark(group="x12-batch-engine")
def test_x12_scalar_fleet(benchmark):
    traces = fleet_traces(N_BENCH)
    results = run_once(
        benchmark, run_scalar_fleet, traces, fleet_speeds(N_BENCH)
    )
    assert len(results) == N_BENCH


@pytest.mark.benchmark(group="x12-batch-engine")
def test_x12_batch_fleet(benchmark):
    traces = fleet_traces(N_BENCH)
    result = run_once(
        benchmark, run_batch_fleet, traces, fleet_speeds(N_BENCH)
    )
    assert result.n_ues == N_BENCH
    # correctness spot-check against the scalar path
    scalar = run_scalar_fleet(traces[:5], fleet_speeds(N_BENCH)[:5])
    for i, s in enumerate(scalar):
        b = result.ue_result(i)
        assert b.serving_history == s.serving_history
        np.testing.assert_array_equal(b.outputs, s.outputs)
        assert [e.step for e in b.events] == [e.step for e in s.events]


def test_x12_speedup_at_n1000():
    """ISSUE-1 acceptance: >= 10x over N scalar runs at N = 1000
    (asserted at the full fleet size).

    The batch mobility front end must also beat the per-trace loop by
    >= 3x at that size."""
    traces = fleet_traces(N_FULL)
    speeds = fleet_speeds(N_FULL)

    batch, t_batch, mem_batch = run_measured(run_batch_fleet, traces, speeds)
    scalar, t_scalar, mem_scalar = run_measured(
        run_scalar_fleet, traces, speeds
    )

    assert batch.n_ues == len(scalar) == N_FULL
    assert batch.n_handovers == sum(r.n_handovers for r in scalar)
    speedup = t_scalar / t_batch

    seeds = [BASE_SEED + i for i in range(N_FULL)]
    dense, t_front_batch = best_of(front_end_batch, seeds)
    dense_scalar, t_front_scalar = best_of(front_end_scalar, seeds)
    np.testing.assert_array_equal(
        dense.positions, TraceBatch.from_traces(dense_scalar).positions
    )
    front_speedup = t_front_scalar / t_front_batch

    print(f"\nx12: scalar {t_scalar:.2f} s, batch {t_batch:.2f} s "
          f"-> {speedup:.1f}x over {N_FULL} UEs; mobility front end "
          f"{t_front_scalar * 1e3:.0f} ms per trace, "
          f"{t_front_batch * 1e3:.0f} ms batched -> {front_speedup:.1f}x")
    write_bench_artifact(
        "x12",
        n=N_FULL,
        timings_s={
            "scalar": t_scalar,
            "batch": t_batch,
            "front_end_scalar": t_front_scalar,
            "front_end_batch": t_front_batch,
        },
        speedups={
            "batch_vs_scalar": speedup,
            "front_end_batch_vs_scalar": front_speedup,
        },
        memory={
            "tracemalloc_peak_scalar": mem_scalar,
            "tracemalloc_peak_batch": mem_batch,
        },
        n_handovers=int(batch.n_handovers),
    )
    if N_FULL < N_ACCEPT:
        pytest.skip(
            f"speedup asserted at N={N_ACCEPT}, ran N={N_FULL} (smoke mode)"
        )
    assert speedup >= 10.0, (
        f"batch engine only {speedup:.1f}x faster than {N_ACCEPT} "
        f"scalar runs (target 10x)"
    )
    assert front_speedup >= 3.0, (
        f"batch mobility front end only {front_speedup:.1f}x faster than "
        f"the per-trace loop at N={N_ACCEPT} (target 3x)"
    )
