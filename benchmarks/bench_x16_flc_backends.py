"""X16 — compiled FLC decision kernels vs the grid Mamdani pipeline.

Two workloads through every registered :mod:`repro.fuzzy.compiled`
backend:

* **Kernel throughput** — ``X16_SAMPLES`` random (CSSP, SSN, DMB)
  triples through ``FuzzyController.evaluate_batch``.  The ISSUE-5
  acceptance pin: the ``lut`` backend (precompiled decision surface +
  multilinear interpolation) must be at least 5x faster than the
  ``reference`` grid pipeline at 10^5 samples.
* **End-to-end fleet** — the X15 3-cohort heterogeneous population of
  ``X16_FLEET_SIZE`` UEs through ``run_fleet``, once per FLC backend.
  Acceptance pins: ``lut`` at least 1.3x faster end-to-end than the
  PR 4 path (the ``reference`` backend), with *byte-identical*
  per-UE handover and ping-pong counts — the guard-banded decision
  path (:meth:`FuzzyHandoverSystem.decision_outputs_batch`) makes
  approximate kernels decision-exact by construction.

Two more records ride in the same artifact:

* **Decision audit** — 10^6 seeded box samples through the ``lut``
  table and through ``reference``; the flip count of the guard-banded
  decision at the table's own bound and at narrower bands is written
  before asserting 0 flips at the table's bound.
* **Cold start** — ``python -m repro fleet --ues X16_FLEET_SIZE
  --flc-backend {reference,lut}`` in interleaved fresh processes, plus
  one cold ``build_lut`` in a fresh process.  From N = 2000 the median
  ``lut`` wall must not exceed the median ``reference`` wall.

Optional accelerator backends (``numba``) are *reported* when
registered but never gated — their availability depends on the host;
their conformance is pinned separately by ``tests/fuzzy/test_compiled.py``.

LUT compilation is a one-time, process-cached cost (the table is shared
by every shard/run of a structurally equal controller), so both sides
warm up before the clock starts — the same convention X14 uses for JIT
backends.

Environment knobs: ``X16_SAMPLES`` (default 100000), ``X16_FLEET_SIZE``
(default 2000), ``X16_REPEATS`` (default 3, best-of timing).
"""

import json
import os
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest
from conftest import (
    bench_artifact_path,
    run_measured,
    run_once,
    write_bench_artifact,
)

import repro
from repro.core.flc import HANDOVER_THRESHOLD, build_handover_flc
from repro.core.system import FuzzyHandoverSystem
from repro.fuzzy import available_flc_backends, build_lut
from repro.mobility import GaussMarkov, ManhattanGrid, RandomWalk
from repro.sim import (
    FleetSpec,
    PopulationSpec,
    SimulationParameters,
    UECohort,
    run_fleet,
)

N_SAMPLES = int(os.environ.get("X16_SAMPLES", "100000"))
N = int(os.environ.get("X16_FLEET_SIZE", "2000"))
REPEATS = int(os.environ.get("X16_REPEATS", "3"))
N_SAMPLES_ACCEPT = 100_000  # the kernel-throughput acceptance size
N_ACCEPT = 2000             # the end-to-end acceptance fleet size
KERNEL_SPEEDUP = 5.0        # lut vs reference on evaluate_batch
FLEET_SPEEDUP = 1.3         # lut vs reference end-to-end
AUDIT_SAMPLES = 1_000_000   # decision-audit box samples
AUDIT_BANDS = (0.01, 0.003, 0.001)  # narrower than the table's bound
AUDIT_CHUNK = 20_000        # samples per reference call (bounded memory)
COLD_RUNS = 5               # fresh processes per backend

FLC = build_handover_flc()

rng = np.random.default_rng(77)
INPUTS = {
    "CSSP": rng.uniform(-10.0, 10.0, N_SAMPLES),
    "SSN": rng.uniform(-120.0, -80.0, N_SAMPLES),
    "DMB": rng.uniform(0.0, 1.5, N_SAMPLES),
}

PARAMS = SimulationParameters(n_walks=8)

# the X15 reference heterogeneous workload: three archetypes with
# comparable expected path lengths, so backends see the same physics
THREE_COHORTS = PopulationSpec(
    n_ues=N,
    cohorts=(
        UECohort(
            name="pedestrian",
            model=RandomWalk(n_walks=8, mean_step_km=0.6, step_sigma_km=0.2),
            fraction=0.4,
            speed_range_kmh=(3.0, 6.0),
        ),
        UECohort(
            name="vehicular",
            model=ManhattanGrid(n_legs=8, block_km=0.4, max_blocks=2),
            fraction=0.3,
            speed_range_kmh=(30.0, 60.0),
        ),
        UECohort(
            name="highway",
            model=GaussMarkov(
                n_steps=8, alpha=0.9, mean_speed_km=0.6, sigma_km=0.15
            ),
            fraction=0.3,
            speed_range_kmh=(70.0, 120.0),
        ),
    ),
    params=PARAMS,
    base_seed=3000,
)


def time_kernel(backend):
    """Best-of-``REPEATS`` wall time of one backend over the workload
    (one warm-up pass first: LUT/JIT compilation happens off the clock)."""
    FLC.evaluate_batch(INPUTS, backend=backend)
    best = float("inf")
    for _ in range(max(1, REPEATS)):
        t0 = time.perf_counter()
        FLC.evaluate_batch(INPUTS, backend=backend)
        best = min(best, time.perf_counter() - t0)
    return best


def run_cohort_fleet(flc_backend):
    population = replace(
        THREE_COHORTS, params=PARAMS.with_(flc_backend=flc_backend)
    )
    return run_fleet(FleetSpec.from_population(population), n_shards=1)


@pytest.mark.flc_backend
@pytest.mark.benchmark(group="x16-flc-backends")
@pytest.mark.parametrize("name", sorted(available_flc_backends()))
def test_x16_kernel_timing(benchmark, name):
    FLC.evaluate_batch(INPUTS, backend=name)  # warm-up / compile
    out = run_once(benchmark, FLC.evaluate_batch, INPUTS, backend=name)
    assert out.shape == (N_SAMPLES,)


@pytest.mark.flc_backend
def test_x16_kernel_speedup_lut():
    """ISSUE-5 acceptance: the lut kernel >= 5x over the reference grid
    pipeline on evaluate_batch at 10^5 samples."""
    t_ref = time_kernel("reference")
    t_lut = time_kernel("lut")
    speedup = t_ref / t_lut
    timings = {"reference": t_ref, "lut": t_lut}
    lines = [
        f"\nx16: evaluate_batch over {N_SAMPLES:,} samples",
        f"  reference {t_ref * 1e3:9.2f} ms",
        f"  lut       {t_lut * 1e3:9.2f} ms  ({speedup:.1f}x)",
    ]
    # report (never gate) whatever optional kernels this host has
    for name in sorted(set(available_flc_backends()) - {"reference", "lut"}):
        t = time_kernel(name)
        timings[name] = t
        lines.append(
            f"  {name:<9} {t * 1e3:9.2f} ms  ({t_ref / t:.1f}x)"
        )
    print("\n".join(lines))
    _, _, mem_ref = run_measured(
        FLC.evaluate_batch, INPUTS, backend="reference"
    )
    _, _, mem_lut = run_measured(FLC.evaluate_batch, INPUTS, backend="lut")
    write_bench_artifact(
        "x16",
        n=N_SAMPLES,
        backend="lut",
        timings_s=timings,
        speedups={"lut_vs_reference_evaluate_batch": speedup},
        memory={
            "tracemalloc_peak_reference": mem_ref,
            "tracemalloc_peak_lut": mem_lut,
        },
        fleet_size=N,
    )

    if N_SAMPLES < N_SAMPLES_ACCEPT:
        pytest.skip(
            f"speedup asserted at N={N_SAMPLES_ACCEPT}, ran "
            f"N={N_SAMPLES} (smoke mode)"
        )
    assert speedup >= KERNEL_SPEEDUP, (
        f"lut kernel only {speedup:.2f}x over the reference pipeline "
        f"(target {KERNEL_SPEEDUP}x at {N_SAMPLES} samples)"
    )


@pytest.mark.flc_backend
def test_x16_fleet_speedup_and_identical_decisions():
    """ISSUE-5 acceptance: the 3-cohort N = 2000 fleet >= 1.3x faster
    on the lut backend than on the PR 4 reference path, with
    byte-identical per-UE handover and ping-pong counts (asserted at
    the full fleet size; the count identity holds at every size)."""
    # one warm-up pass each (imports, allocator, LUT compile) — traced
    # so the artifact gets per-path peaks — then interleaved best-of
    # timings so clock drift hits both paths alike
    ref, _, mem_fleet_ref = run_measured(run_cohort_fleet, "reference")
    lut, _, mem_fleet_lut = run_measured(run_cohort_fleet, "lut")
    decisions_identical = bool(
        np.array_equal(ref.handovers_per_ue, lut.handovers_per_ue)
        and np.array_equal(ref.ping_pongs_per_ue, lut.ping_pongs_per_ue)
    )

    repeats = max(1, REPEATS - 1) if N >= N_ACCEPT else 1
    t_ref = t_lut = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        run_cohort_fleet("reference")
        t_ref = min(t_ref, time.perf_counter() - t0)
        t0 = time.perf_counter()
        run_cohort_fleet("lut")
        t_lut = min(t_lut, time.perf_counter() - t0)

    speedup = t_ref / t_lut
    print(
        f"\nx16: 3-cohort fleet of {N} UEs — reference {t_ref:.2f} s, "
        f"lut {t_lut:.2f} s -> {speedup:.2f}x "
        f"({ref.n_handovers} handovers, {ref.n_ping_pongs} ping-pongs "
        "on the reference backend)"
    )
    # persist the record before any assert: the perf trajectory matters
    # most on exactly the runs where a pin fails
    write_bench_artifact(
        "x16_fleet",
        n=N,
        backend="lut",
        timings_s={"reference": t_ref, "lut": t_lut},
        speedups={"lut_vs_reference_fleet": speedup},
        memory={
            "tracemalloc_peak_reference": mem_fleet_ref,
            "tracemalloc_peak_lut": mem_fleet_lut,
        },
        n_handovers=int(ref.n_handovers),
        n_ping_pongs=int(ref.n_ping_pongs),
        decisions_identical=decisions_identical,
    )

    # decision equivalence is pinned wherever the bench runs
    assert decisions_identical
    assert ref.n_handovers == lut.n_handovers
    assert ref.n_ping_pongs == lut.n_ping_pongs
    if N < N_ACCEPT:
        pytest.skip(
            f"speedup asserted at N={N_ACCEPT}, ran N={N} (smoke mode)"
        )
    assert speedup >= FLEET_SPEEDUP, (
        f"lut-backend fleet only {speedup:.2f}x over the reference path "
        f"(target {FLEET_SPEEDUP}x at N={N})"
    )


def update_artifact(key, record):
    """Read-modify-write ``record`` under ``key`` of BENCH_x16.json
    (a fresh file when the kernel test has not written one)."""
    path = bench_artifact_path("x16")
    if not path.exists():
        write_bench_artifact("x16", n=N_SAMPLES, fleet_size=N)
    payload = json.loads(path.read_text())
    payload[key] = record
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


@pytest.mark.flc_backend
def test_x16_decision_audit():
    """Guard-band audit: the guarded lut decision against reference on
    10^6 seeded box samples, flips counted per band half-width (the
    table's validated bound and narrower ones); 0 at the table's bound,
    through the real decision path too."""
    rng = np.random.default_rng(1616)
    cols = [
        rng.uniform(-10.0, 10.0, AUDIT_SAMPLES),
        rng.uniform(-120.0, -80.0, AUDIT_SAMPLES),
        rng.uniform(0.0, 1.5, AUDIT_SAMPLES),
    ]
    lut = build_lut(FLC)
    system = FuzzyHandoverSystem(flc=FLC, flc_backend="lut")
    approx, ref, decided = (np.empty(AUDIT_SAMPLES) for _ in range(3))
    for lo in range(0, AUDIT_SAMPLES, AUDIT_CHUNK):
        block = [c[lo : lo + AUDIT_CHUNK] for c in cols]
        approx[lo : lo + AUDIT_CHUNK] = lut(block)
        ref[lo : lo + AUDIT_CHUNK] = FLC.evaluate_batch(
            block, backend="reference"
        )
        decided[lo : lo + AUDIT_CHUNK] = system.decision_outputs_batch(*block)
    truth = ref > HANDOVER_THRESHOLD
    flips = {}
    for band in (lut.error_bound, *AUDIT_BANDS):
        guarded = np.where(
            np.abs(approx - HANDOVER_THRESHOLD) <= band, ref, approx
        )
        flips[repr(band)] = int(((guarded > HANDOVER_THRESHOLD) != truth).sum())
    path_flips = int(((decided > system.threshold) != truth).sum())
    print(
        f"\nx16 audit: {AUDIT_SAMPLES:,} samples, decision flips per band "
        f"{flips}, decision path {path_flips}"
    )
    update_artifact(
        "decision_audit",
        {
            "samples": AUDIT_SAMPLES,
            "table_bound": lut.error_bound,
            "flips_per_band": flips,
            "decision_path_flips": path_flips,
            "near_threshold_share": float(
                np.mean(np.abs(approx - HANDOVER_THRESHOLD) <= 0.1)
            ),
        },
    )
    assert flips[repr(lut.error_bound)] == 0
    assert path_flips == 0


def fresh_process_seconds(argv):
    """Wall time of ``python argv...`` in a fresh process that imports
    this checkout's ``repro``; returns (seconds, stdout)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, *argv],
        env=env, check=True, capture_output=True, text=True,
    )
    return time.perf_counter() - t0, out.stdout


COLD_BUILD = (
    "import time\n"
    "from repro.core.flc import build_handover_flc\n"
    "from repro.fuzzy import build_lut\n"
    "flc = build_handover_flc()\n"
    "t0 = time.perf_counter()\n"
    "build_lut(flc)\n"
    "print(time.perf_counter() - t0)\n"
)


@pytest.mark.flc_backend
def test_x16_cold_start():
    """``repro fleet`` from a cold process on each backend, interleaved
    (the lut side pays its table build): from N = 2000 the median lut
    wall must not exceed the median reference wall."""
    walls = {"reference": [], "lut": []}
    for i in range(COLD_RUNS):
        order = ("reference", "lut") if i % 2 == 0 else ("lut", "reference")
        for backend in order:
            seconds, _ = fresh_process_seconds(
                ["-m", "repro", "fleet", "--ues", str(N),
                 "--flc-backend", backend]
            )
            walls[backend].append(seconds)
    _, stdout = fresh_process_seconds(["-c", COLD_BUILD])
    build_s = float(stdout.split()[-1])
    medians = {k: float(np.median(v)) for k, v in walls.items()}
    print(
        f"\nx16 cold start, fleet of {N} UEs ({COLD_RUNS} fresh processes "
        f"each): reference {medians['reference']:.2f} s, lut "
        f"{medians['lut']:.2f} s (median); cold build_lut {build_s:.3f} s"
    )
    update_artifact(
        "cold_start",
        {
            "n_ues": N,
            "runs": COLD_RUNS,
            "walls_s": walls,
            "median_s": medians,
            "cold_build_lut_s": build_s,
        },
    )
    if N < N_ACCEPT:
        pytest.skip(f"cold start asserted at N={N_ACCEPT}, ran N={N}")
    assert medians["lut"] <= medians["reference"], (
        f"cold lut fleet {medians['lut']:.2f} s slower than reference "
        f"{medians['reference']:.2f} s at N={N}"
    )
