"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root: the program is imported from ``src/``.
Prints a readable summary, then, as the last line, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics (see ``workloads.py``);
``setup_s`` is the median over this run's own set-up and
``SETUP_SAMPLES - 1`` more set-ups in fresh processes.  ``--trace 1``
reports the per-layer metrics (``tracing.LAYER_RATIONALE``) instead: the
layer wrappers are installed before set-up, then every repetition runs
twice, once with them removed and once with them installed; the split
covers the traced repetitions, and the difference of the two wall times
is the tracing overhead.

Every run checks its outputs against an independent oracle; a mismatch
sets ``correct`` to false and counts every operation of the run as
failed.  Without the program beside it (no ``src/repro``) the script
exits with status 2 and prints no result.
"""

import time

T_START = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Set-ups measured per untraced run; setup_s is their median.
SETUP_SAMPLES = 3

def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: measure one set-up in a fresh process and exit
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def number(value):
    return value if isinstance(value, int) else float(value)


def setup_probe(args) -> float:
    """One set-up of the same workload, timed by a fresh process."""
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--setup-probe"],
        stdout=subprocess.PIPE, check=True, text=True, timeout=170,
    ).stdout
    return json.loads(out.splitlines()[-1])["setup_s"]


def server_layers(window: dict) -> dict:
    """Server-process values that the tracer does not see: the event
    loop's idle time, and its busy time outside every wrapped layer."""
    if "idle_s" not in window:
        return {}
    busy = window["t"] - window["idle_s"]
    return {
        "serve.server.idle_s": window["idle_s"],
        "serve.server.self_s": busy - sum(window["self_s"].values()),
        "serve.server.transport_errors": window["transport_errors"],
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # the benchmark pins every backend itself
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        import numpy as np
        from tracing import layer_values, window_totals
        from workloads import WORKLOADS, PassResult
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    cls = WORKLOADS[args.workload]
    traced = args.trace == 1
    reps = max(1, round(args.seconds / cls.rep_s))
    workload = cls(args.seed, traced)
    try:
        if traced:
            workload.set_tracing(True)
        workload.setup()
        setup_s = time.perf_counter() - T_START
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if traced:
            # alternate untraced and traced repetitions, so that drift in
            # the host's speed affects both sides of the overhead alike
            untraced, timed, windows = PassResult(), PassResult(), []
            for _ in range(reps):
                for on, result in ((False, untraced), (True, timed)):
                    workload.set_tracing(on)
                    workload.windows = windows if on else None
                    result.add(workload.run_pass(1))
            whole_run = workload.snapshot()
            passes = [untraced, timed]
        else:
            timed = workload.run_pass(reps)
            passes = [timed]
        problems, failed = workload.finish(passes)
        peak_rss_mib = workload.peak_rss_mib()
    finally:
        workload.close()

    attempted = sum(p.attempted for p in passes)
    if problems:
        failed = attempted
    print(f"workload {cls.name}: seed {args.seed}, {reps} repetition(s) "
          f"per timed phase, {timed.work} operations in {timed.wall_s:.2f} s")
    if traced:
        window = window_totals(windows)
        values = layer_values(
            window, whole_run, timed.wall_s, untraced.wall_s,
            {**server_layers(window), "loadgen.busy_s": timed.busy_s},
        )
    else:
        setups = [setup_s]
        setups += [setup_probe(args) for _ in range(SETUP_SAMPLES - 1)]
        p50, p90 = np.percentile(np.asarray(timed.latencies_s) * 1e3, [50, 90])
        values = {
            "ue_epochs_per_s": timed.work / timed.wall_s,
            "decision_latency_p50_ms": p50,
            "decision_latency_p90_ms": p90,
            "peak_rss_mib": peak_rss_mib,
            "setup_s": statistics.median(setups),
        }
        print(f"  decision latency over {len(timed.latencies_s)} samples; "
              f"set-ups (s): {', '.join(f'{s:.3f}' for s in setups)}")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        contract = json.load(fh)["per_layer" if traced else "end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in contract}
    if values.keys() != units.keys():
        raise RuntimeError("metrics differ from BENCHMARK.json: "
                           f"{sorted(values.keys() ^ units.keys())}")
    for name, value in values.items():
        print(f"  {name:<32} {value:>16.6g} {units[name]}")
    for problem in problems[:20]:
        print(f"  INCORRECT: {problem}")
    print(f"  correct: {not problems}; "
          f"{failed} of {attempted} operations failed")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": number(value), "unit": units[name]}
            for name, value in values.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
