"""X14 — pluggable pathloss kernel backends vs the seed reference chain.

One fleet-sized site-matrix workload — N = 2000 UEs × ``X14_EPOCHS``
epochs against the 7 sites of a rings-1 hexagonal layout — through
every registered :mod:`repro.radio.backends` kernel.

``test_x14_speedup_optimized_numpy`` is the ISSUE-3 acceptance check:
the optimized NumPy kernel (fused dB conversion, preallocated scratch,
in-place ufuncs) must be at least 1.5x faster than the extracted
reference kernel at the N = 2000 × 7-site workload, while producing
bit-identical output.  Optional accelerator backends (numba, jax) are
*reported* when registered but never gated — their availability depends
on the host, and their conformance is pinned separately by the tier-1
matrix in ``tests/radio/test_backends.py``.

``test_x14_threads`` times the default ``numpy`` kernel over the
paper's 19-site layout at the same point count, on one thread against
every usable CPU (5 interleaved pairs; ``taskset -c 0`` makes "every
usable CPU" one): the bytes must be identical, and with at least two
usable CPUs at N >= 2000 the all-CPU median must not be slower.  The
same rounds time a control, the kernel's fan-out over its point blocks
running ``np.sin`` passes that hold no lock: the median verdict is
given only when the control gained at least ``CONTROL_MIN_GAIN``
(1.5x) on every usable CPU, since a smaller gain means the host did
not give the process its CPUs then.  Otherwise the test skips with
both ratios; a kernel that stops threading still fails, because its
control shows the CPUs free.

Environment knobs: ``X14_FLEET_SIZE`` (default 2000), ``X14_EPOCHS``
(default 64, the per-UE measurement epochs), ``X14_REPEATS``
(default 5, best-of timing).
"""

import contextlib
import json
import os
import statistics
import threading
import time
from unittest import mock

import numpy as np
import pytest
from conftest import (
    bench_artifact_path,
    run_measured,
    run_once,
    write_bench_artifact,
)

from repro import fanout
from repro.radio import available_backends, backends, get_backend
from repro.sim import SimulationParameters

N = int(os.environ.get("X14_FLEET_SIZE", "2000"))
EPOCHS = int(os.environ.get("X14_EPOCHS", "64"))
REPEATS = int(os.environ.get("X14_REPEATS", "5"))
N_ACCEPT = 2000     # the acceptance-criterion fleet size

PARAMS = SimulationParameters(rings=1)  # 7 sites: centre + first ring
MODEL = PARAMS.make_propagation()
SITES = PARAMS.make_layout().bs_positions
KPARAMS = MODEL.kernel_params()

rng = np.random.default_rng(42)
POINTS = rng.uniform(-3.0, 3.0, size=(N * EPOCHS, 2))

PAPER_SITES = SimulationParameters().make_layout().bs_positions  # 19
THREAD_PAIRS = 5
#: np.sin passes per point block of the control: about the kernel's time
CONTROL_PASSES = 2
#: the control's all-CPU gain below which the host's CPUs were not free
CONTROL_MIN_GAIN = 1.5


def time_kernel(name):
    """Best-of-``REPEATS`` wall time of one kernel over the workload."""
    kernel = get_backend(name)
    # warm up on the *timed* shape: jax compiles per input shape, so a
    # smaller warm-up array would leave compilation inside the timing
    kernel(SITES, POINTS, KPARAMS)
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel(SITES, POINTS, KPARAMS)
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.mark.backend
@pytest.mark.benchmark(group="x14-pathloss-backends")
@pytest.mark.parametrize("name", sorted(available_backends()))
def test_x14_backend_timing(benchmark, name):
    kernel = get_backend(name)
    kernel(SITES, POINTS, KPARAMS)  # warm-up / JIT compile, timed shape
    out = run_once(benchmark, kernel, SITES, POINTS, KPARAMS)
    assert out.shape == (POINTS.shape[0], SITES.shape[0])


@pytest.mark.backend
def test_x14_speedup_optimized_numpy():
    """ISSUE-3 acceptance: the optimized NumPy kernel >= 1.5x over the
    reference at N = 2000 UEs x 7 sites, bit-identical output."""
    expected = get_backend("reference")(SITES, POINTS, KPARAMS)
    got = get_backend("numpy")(SITES, POINTS, KPARAMS)
    np.testing.assert_array_equal(got, expected)

    t_ref = time_kernel("reference")
    t_opt = time_kernel("numpy")
    speedup = t_ref / t_opt
    lines = [
        f"\nx14: {N} UEs x {EPOCHS} epochs x {SITES.shape[0]} sites "
        f"({POINTS.shape[0] * SITES.shape[0]:,} point-site pairs)",
        f"  reference {t_ref * 1e3:8.2f} ms",
        f"  numpy     {t_opt * 1e3:8.2f} ms  ({speedup:.2f}x)",
    ]
    # report (never gate) whatever accelerator backends this host has
    timings = {"reference": t_ref, "numpy": t_opt}
    for name in sorted(set(available_backends()) - {"reference", "numpy"}):
        t = time_kernel(name)
        timings[name] = t
        lines.append(f"  {name:<9} {t * 1e3:8.2f} ms  ({t_ref / t:.2f}x)")
    print("\n".join(lines))
    _, _, mem_ref = run_measured(
        get_backend("reference"), SITES, POINTS, KPARAMS
    )
    _, _, mem_opt = run_measured(get_backend("numpy"), SITES, POINTS, KPARAMS)
    write_bench_artifact(
        "x14",
        n=N,
        backend="numpy",
        timings_s=timings,
        speedups={"numpy_vs_reference": speedup},
        memory={
            "tracemalloc_peak_reference": mem_ref,
            "tracemalloc_peak_numpy": mem_opt,
        },
        epochs=EPOCHS,
        n_sites=int(SITES.shape[0]),
    )

    if N < N_ACCEPT:
        pytest.skip(
            f"speedup asserted at N={N_ACCEPT}, ran N={N} (smoke mode)"
        )
    assert speedup >= 1.5, (
        f"optimized NumPy kernel only {speedup:.2f}x over the reference "
        f"(target 1.5x at N={N} x {SITES.shape[0]} sites)"
    )


def update_artifact(key, record):
    """Read-modify-write ``record`` under ``key`` of BENCH_x14.json
    (a fresh file when the speedup test has not written one)."""
    path = bench_artifact_path("x14")
    if not path.exists():
        write_bench_artifact("x14", n=N, backend="numpy", epochs=EPOCHS)
    payload = json.loads(path.read_text())
    payload[key] = record
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def cpu_pin(label):
    return (
        mock.patch.object(fanout, "usable_cpus", lambda: 1)
        if label == "one_thread"
        else contextlib.nullcontext()
    )


def run_numpy_kernel(label):
    """``(output, seconds)`` of the numpy kernel over the 19-site
    workload, on one thread or on every usable CPU."""
    kernel = get_backend("numpy")
    with cpu_pin(label):
        t0 = time.perf_counter()
        out = kernel(PAPER_SITES, POINTS, KPARAMS)
        return out, time.perf_counter() - t0


def run_control(label):
    """Seconds of the kernel's fan-out over its point blocks, each
    block running ``CONTROL_PASSES`` in-place ``np.sin`` passes over a
    per-thread scratch block (NumPy holds no lock in them), on one
    thread or on every usable CPU."""
    n_pts, block = POINTS.shape[0], backends._BLOCK_POINTS
    scratch = threading.local()

    def run(lo):
        tmp = getattr(scratch, "tmp", None)
        if tmp is None:
            tmp = scratch.tmp = np.full(
                (min(block, n_pts), PAPER_SITES.shape[0]), 0.5
            )
        for _ in range(CONTROL_PASSES):
            np.sin(tmp, out=tmp)

    with cpu_pin(label):
        t0 = time.perf_counter()
        fanout.fan_out(run, range(0, n_pts, block))
        return time.perf_counter() - t0


@pytest.mark.backend
def test_x14_threads():
    """The numpy kernel on every usable CPU against one thread, 19
    sites: identical bytes; not slower in the median with >= 2 CPUs
    that the control shows free."""
    cpus = fanout.usable_cpus()
    single, _ = run_numpy_kernel("one_thread")
    identical = run_numpy_kernel("all_cpus")[0].tobytes() == single.tobytes()
    times = {"one_thread": [], "all_cpus": []}
    control = {"one_thread": [], "all_cpus": []}
    for pair in range(THREAD_PAIRS):
        order = ["one_thread", "all_cpus"]
        for label in order if pair % 2 == 0 else order[::-1]:
            times[label].append(run_numpy_kernel(label)[1])
            control[label].append(run_control(label))
    medians = {label: statistics.median(t) for label, t in times.items()}
    ratio = medians["one_thread"] / medians["all_cpus"]
    control_medians = {
        label: statistics.median(t) for label, t in control.items()
    }
    control_ratio = (
        control_medians["one_thread"] / control_medians["all_cpus"]
    )
    print(
        f"\nx14 threads: {POINTS.shape[0]:,} points x "
        f"{PAPER_SITES.shape[0]} sites, median one thread "
        f"{medians['one_thread'] * 1e3:.1f} ms, {cpus} CPUs "
        f"{medians['all_cpus'] * 1e3:.1f} ms ({ratio:.2f}x); "
        f"control {control_ratio:.2f}x"
    )
    update_artifact(
        "threads",
        {
            "usable_cpus": cpus,
            "points": int(POINTS.shape[0]),
            "n_sites": int(PAPER_SITES.shape[0]),
            "pairs": THREAD_PAIRS,
            "timings_s": times,
            "median_s": medians,
            "speedup_all_cpus_vs_one_thread": ratio,
            "control_timings_s": control,
            "control_median_s": control_medians,
            "control_speedup_all_cpus_vs_one_thread": control_ratio,
            "bytes_identical": identical,
        },
    )
    assert identical, "all-CPU kernel bytes differ from the one-thread bytes"
    if cpus < 2 or N < N_ACCEPT:
        pytest.skip(
            f"median asserted with >= 2 usable CPUs at N >= {N_ACCEPT}; "
            f"ran {cpus} CPUs at N={N}"
        )
    if control_ratio < CONTROL_MIN_GAIN:
        pytest.skip(
            f"the {cpus} CPUs were not free: the control gained "
            f"{control_ratio:.2f}x (< {CONTROL_MIN_GAIN}x), the kernel "
            f"{ratio:.2f}x; no verdict"
        )
    assert medians["all_cpus"] <= medians["one_thread"], (
        f"numpy kernel on {cpus} CPUs took {medians['all_cpus'] * 1e3:.1f} "
        f"ms in the median, one thread {medians['one_thread'] * 1e3:.1f} ms"
    )
