"""X19 — streaming decision-service throughput and latency SLOs.

Records a fleet trace, replays it through the in-process
:class:`~repro.serve.service.DecisionService` (the same code path the
TCP front-end drives, minus socket I/O), and pins:

* **identity** — the streamed metrics equal the offline
  ``BatchSimulator`` metrics byte-for-byte (re-asserted here at bench
  size, not just in the test-suite sizes);
* **sustained ingest** — reports/second through submit → watermark
  close → batched FLC sweep, at least ``REPORTS_PER_S_FLOOR``;
* **p99 per-epoch decision latency** — the time from closing an epoch
  to the commands being fanned out, at most ``P99_LATENCY_S`` (one
  epoch sweeps the whole fleet, so this is the service's
  command-freshness SLO);
* **flat per-report ingest** — microseconds per report through
  ``replay_in_process`` at each fleet size of the sweep; the N = 3000
  cost is at most ``FLAT_INGEST_RATIO`` times the N = 300 cost (the
  epoch scheduler's work per report must not grow with the fleet).
  The timed replay makes each epoch's reports as views of the trace's
  columns (dtypes and row shapes checked once per trace, finiteness
  once per epoch, nothing per report), submits them (ingest, watermark,
  epoch close, the batched FLC sweep and command fan-out) and
  unsubscribes the UEs whose walks end; recording the trace and
  subscribing the fleet are not timed.

Headline numbers land in ``BENCH_x19.json`` (same schema as X12–X18:
``schema``/``n``/``timings_s``/``speedups``/``memory`` with
``max_rss_kb`` and tracemalloc peaks, plus ``us_per_report`` keyed by
sweep N) **before** any assert.

Environment knobs: ``X19_FLEET_SIZE`` (default 300), ``X19_WALKS``
(default 4), ``X19_SWEEP`` (comma-separated fleet sizes, default
``300,3000``; add ``30000`` to extend the sweep).  CI smoke runs N = 48
and a tiny sweep; the SLO pins assert only at the full N = 300, the
flatness pin only when the sweep covers N = 300 and N = 3000.
"""

import math
import os
import time

import pytest
from conftest import run_measured, write_bench_artifact

from repro.sim import (
    FleetSpec,
    SimulationParameters,
    offline_reference_metrics,
    record_fleet_trace,
)
from repro.serve import identity_report, replay_in_process, service_for_trace

N = int(os.environ.get("X19_FLEET_SIZE", "300"))
WALKS = int(os.environ.get("X19_WALKS", "4"))
SWEEP = [int(n) for n in os.environ.get("X19_SWEEP", "300,3000").split(",")]
N_ACCEPT = 300              # the acceptance-criterion fleet size
REPORTS_PER_S_FLOOR = 2000  # sustained ingest, reports/second
P99_LATENCY_S = 0.25        # p99 per-epoch decision sweep, seconds
SWEEP_ACCEPT = (300, 3000)  # the fleet sizes the flatness pin compares
FLAT_INGEST_RATIO = 1.5     # max us/report at N=3000 over N=300
SWEEP_REPEATS = 3           # best-of replays per sweep fleet size

PARAMS = SimulationParameters(shadow_sigma_db=6.0, n_walks=WALKS)


def fleet_spec(n_ues: int) -> FleetSpec:
    return FleetSpec(n_ues=n_ues, n_walks=WALKS, base_seed=4000, params=PARAMS)


def ingest_cost_sweep() -> dict[int, float]:
    """Microseconds per report through ``replay_in_process`` per sweep
    fleet size: the best of ``SWEEP_REPEATS`` replays, interleaved
    across sizes so a slow spell of the host hits every size alike."""
    traces = {n: record_fleet_trace(fleet_spec(n)) for n in SWEEP}
    best = dict.fromkeys(SWEEP, math.inf)
    for _ in range(SWEEP_REPEATS):
        for n, trace in traces.items():
            service = service_for_trace(trace)
            t0 = time.perf_counter()
            replay_in_process(trace, service)
            best[n] = min(best[n], time.perf_counter() - t0)
    return {n: best[n] / int(sum(traces[n].lengths)) * 1e6 for n in SWEEP}


@pytest.mark.serve
def test_x19_serve_throughput_and_latency():
    trace = record_fleet_trace(fleet_spec(N))
    n_reports = int(sum(trace.lengths))

    # untraced timing run (headline numbers)...
    service = service_for_trace(trace)
    t0 = time.perf_counter()
    replay_in_process(trace, service)
    elapsed = time.perf_counter() - t0
    streamed = service.metrics()
    latency = service.latency_summary()
    reports_per_s = n_reports / elapsed

    # ...and a traced re-run for the memory numbers
    _, _t_traced, mem_peak = run_measured(
        lambda: replay_in_process(trace, service_for_trace(trace))
    )

    reference = offline_reference_metrics(trace)
    problems = identity_report(streamed, reference)
    us_per_report = ingest_cost_sweep()

    print(
        f"\nx19: {n_reports} reports over {trace.n_ues} UEs x "
        f"{trace.max_epochs} epochs in {elapsed:.3f} s -> "
        f"{reports_per_s:,.0f} reports/s; decision latency "
        f"p50 {latency['p50_s'] * 1e3:.2f} ms / "
        f"p99 {latency['p99_s'] * 1e3:.2f} ms / "
        f"max {latency['max_s'] * 1e3:.2f} ms; "
        f"peak {mem_peak / 2**20:.0f} MiB; "
        f"identity {'OK' if not problems else 'FAILED'}; ingest "
        + ", ".join(f"N={n}: {us:.1f} us/report"
                    for n, us in us_per_report.items())
    )
    # persist the record before any assert: the perf trajectory matters
    # most on exactly the runs where a pin fails
    write_bench_artifact(
        "x19",
        n=N,
        timings_s={
            "replay_total": elapsed,
            "decision_p50": latency["p50_s"],
            "decision_p99": latency["p99_s"],
            "decision_max": latency["max_s"],
        },
        speedups={"reports_per_s": reports_per_s},
        memory={"tracemalloc_peak_replay": mem_peak},
        walks=WALKS,
        n_reports=n_reports,
        epochs_closed=int(service.stats.epochs_closed),
        commands_emitted=int(service.stats.commands_emitted),
        identity_ok=not problems,
        us_per_report={str(n): us for n, us in us_per_report.items()},
    )

    assert not problems, "\n".join(problems)
    small, large = SWEEP_ACCEPT
    if small in us_per_report and large in us_per_report:
        ratio = us_per_report[large] / us_per_report[small]
        assert ratio <= FLAT_INGEST_RATIO, (
            f"per-report ingest at N={large} costs {ratio:.2f}x the N={small} "
            f"cost (limit {FLAT_INGEST_RATIO}x)"
        )
    if N < N_ACCEPT:
        pytest.skip(f"SLOs asserted at N={N_ACCEPT}, ran N={N} (smoke mode)")
    assert reports_per_s >= REPORTS_PER_S_FLOOR, (
        f"sustained ingest {reports_per_s:,.0f} reports/s below the "
        f"{REPORTS_PER_S_FLOOR} floor at N={N}"
    )
    assert latency["p99_s"] <= P99_LATENCY_S, (
        f"p99 decision latency {latency['p99_s'] * 1e3:.1f} ms over the "
        f"{P99_LATENCY_S * 1e3:.0f} ms SLO at N={N}"
    )
