"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Enumerate the reproducible paper artefacts.
``show <id>``
    Regenerate and print one artefact (``table3``, ``figure9``, …).
``report``
    Regenerate everything (the full reproduction report).
``evaluate CSSP SSN DMB``
    One controller evaluation with the rule-level explanation.
``simulate {pingpong,crossing} [--speed V]``
    Run the full pipeline on a frozen paper scenario.
``fleet [--ues N] [--walks K] [--seed S] [--speeds V ...]
[--population MIX] [--shards N] [--workers W] [--hosts H:P,...]
[--backend B] [--flc-backend F]
[--checkpoint DIR] [--metrics-out PATH] [--heartbeat-interval S]
[--heartbeat-timeout S] [--max-retries N] [--no-serial-fallback]``
    Run a whole UE population through the vectorised batch engine —
    optionally partitioned into shards over a process pool or a set of
    ``repro worker`` socket hosts, on a chosen pathloss-kernel backend
    and FLC inference backend — and print the fleet-level quality
    metrics (identical for any shard count, worker pool or host list,
    and identical handover/ping-pong counts for any FLC backend).
    ``--population`` selects a named heterogeneous mix
    (pedestrians/vehicles/stationary cohorts, see
    :data:`repro.sim.population.POPULATION_MIXES`) and adds a
    per-cohort metrics breakdown.  ``--checkpoint DIR`` runs
    crash-safe (with or without ``--population``): each finished shard
    of at most 2,000 UEs is written to its own file, and re-running the
    command after a kill reruns only the unfinished shards and ends
    byte-identical;
    ``--heartbeat-*``/``--max-retries``/``--no-serial-fallback`` tune
    the distributed executor's fault tolerance when ``--hosts`` is
    given.
``worker --listen HOST:PORT [--max-tasks N] [--die-after K]``
    Serve fleet shards (or any executor tasks) over TCP to a
    :class:`~repro.sim.distributed.DistributedExecutor` — the unit of
    a distributed fleet.  ``--listen host:0`` binds an ephemeral port;
    the worker announces ``listening on host:port`` on stdout.  A worker
    unpickles whatever a peer sends: listen only where every peer that
    can reach the port is trusted.
    ``--die-after K`` arms fault injection: the process exits abruptly
    while handling its K-th task (the X17 fault-tolerance harness).
``serve --listen HOST:PORT [--deadline S] [--ring N] [--flc-backend F]``
    Run the streaming handover-decision service: per-UE measurement
    reports arrive as length-prefixed JSON frames (the service never
    unpickles a client's bytes), epochs close on the subscribed-fleet
    watermark (or the ``--deadline`` timer), and each closed epoch runs
    one batched FLC sweep — byte-identical decisions to the offline
    engine.  Announces ``serving on host:port`` on stdout.
``replay [--trace PATH | --record ...] [--connect H:P | --spawn]
[--verify] [--rate R]``
    Stream a recorded fleet trace through the service — in process by
    default, against a live server with ``--connect``, or against a
    freshly spawned ``repro serve`` subprocess with ``--spawn`` — and
    print the resulting fleet metrics.  ``--verify`` re-runs the trace
    through the offline batch engine and exits non-zero unless the two
    paths agree exactly, per-UE arrays and cohort labels included.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys
import time

from .core import FuzzyHandoverSystem, build_handover_flc
from .fuzzy import (
    DEFAULT_FLC_BACKEND,
    FLC_BACKEND_ENV_VAR,
    resolve_flc_backend,
)
from .radio import (
    AUTO_BACKEND,
    BACKEND_ENV_VAR,
    DEFAULT_BACKEND,
    resolve_backend,
)
from .experiments import (
    EXPERIMENTS,
    SCENARIO_CROSSING,
    SCENARIO_PINGPONG,
    full_report,
    get_experiment,
)
from .sim import (
    PAPER_SPEEDS_KMH,
    POPULATION_MIXES,
    FleetSpec,
    SimulationParameters,
    named_population,
    partition_fleet,
    run_fleet,
    run_trace,
)

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Fuzzy-based handover system (Barolli et al., ICPP-W 2008) — "
            "reproduction toolkit"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible paper artefacts")

    p_show = sub.add_parser("show", help="regenerate one artefact")
    p_show.add_argument("artefact", choices=sorted(EXPERIMENTS))

    sub.add_parser("report", help="regenerate every artefact")

    p_eval = sub.add_parser(
        "evaluate", help="one FLC evaluation with explanation"
    )
    p_eval.add_argument("cssp", type=float, help="CSSP in dB")
    p_eval.add_argument("ssn", type=float, help="SSN in dB")
    p_eval.add_argument("dmb", type=float, help="DMB (distance / radius)")

    p_sim = sub.add_parser("simulate", help="run a frozen paper scenario")
    p_sim.add_argument("scenario", choices=["pingpong", "crossing"])
    p_sim.add_argument("--speed", type=float, default=0.0,
                       help="MS speed in km/h (default 0)")

    p_fleet = sub.add_parser(
        "fleet", help="run a UE population through the batch engine"
    )
    p_fleet.add_argument("--ues", type=int, default=100,
                         help="fleet size (default 100)")
    p_fleet.add_argument("--walks", type=int, default=None,
                         help="walk legs per UE (default 10; homogeneous "
                              "fleets only)")
    p_fleet.add_argument("--seed", type=int, default=1000,
                         help="base walk seed; UE i walks seed+i")
    p_fleet.add_argument("--speeds", type=float, nargs="+", default=None,
                         metavar="V",
                         help="speeds in km/h, cycled over the fleet "
                              "(default: the paper's 0..50 sweep; "
                              "homogeneous fleets only)")
    p_fleet.add_argument("--population", default=None,
                         choices=sorted(POPULATION_MIXES),
                         help="run a named heterogeneous mix instead of "
                              "the homogeneous random-walk fleet; each "
                              "cohort brings its own mobility model and "
                              "speed distribution, and the output adds "
                              "a per-cohort breakdown")
    p_fleet.add_argument("--shards", type=int, default=1,
                         help="partition the fleet into N shards "
                              "(default 1; metrics are identical for "
                              "any shard count)")
    p_fleet.add_argument("--workers", type=int, default=None,
                         help="process workers for sharded execution "
                              "(default: auto, CPUs-1 capped at the "
                              "shard count)")
    p_fleet.add_argument("--hosts", default=None, metavar="H:P,...",
                         help="comma-separated host:port addresses of "
                              "running `repro worker` processes; runs "
                              "the shards on the fault-tolerant "
                              "distributed executor instead of a local "
                              "pool (mutually exclusive with --workers; "
                              "metrics stay identical to the local run)")
    p_fleet.add_argument("--heartbeat-interval", type=float, default=None,
                         metavar="S",
                         help="distributed executor tuning (requires "
                              "--hosts): workers frame a heartbeat "
                              "every S seconds while computing")
    p_fleet.add_argument("--heartbeat-timeout", type=float, default=None,
                         metavar="S",
                         help="distributed executor tuning (requires "
                              "--hosts): declare a worker dead after S "
                              "seconds of heartbeat silence")
    p_fleet.add_argument("--max-retries", type=int, default=None,
                         metavar="N",
                         help="distributed executor tuning (requires "
                              "--hosts): reissue a transport-failed "
                              "shard at most N times before giving up")
    p_fleet.add_argument("--no-serial-fallback", action="store_true",
                         help="distributed executor tuning (requires "
                              "--hosts): fail the run when every worker "
                              "dies instead of finishing the remaining "
                              "shards serially in-process")
    p_fleet.add_argument("--checkpoint", default=None, metavar="DIR",
                         help="crash-safe mode: run the fleet in "
                              "shards of at most 2,000 UEs (at least "
                              "--shards of them) and write each "
                              "finished shard's metrics to a file of "
                              "its own in DIR; re-running the same "
                              "command after a kill (even SIGKILL) "
                              "reruns only the shards without a file "
                              "and produces byte-identical metrics "
                              "(any fleet, --population mixes "
                              "included; in-process execution only)")
    p_fleet.add_argument("--metrics-out", default=None, metavar="PATH",
                         help="pickle the merged FleetMetrics to PATH "
                              "(exact-identity comparisons across "
                              "runs)")
    p_fleet.add_argument("--backend", default=None,
                         help="pathloss kernel backend: reference, "
                              "numpy, or numba/jax where installed "
                              f"(default: the {BACKEND_ENV_VAR} env "
                              f"var, then '{DEFAULT_BACKEND}'; "
                              "NumPy-family backends are "
                              "bit-identical).  Validated at first "
                              "use so the parser never probes the "
                              "optional accelerator imports")
    p_fleet.add_argument("--flc-backend", default=None,
                         help="FLC inference backend: reference, lut, "
                              "or numba where installed (default: the "
                              f"{FLC_BACKEND_ENV_VAR} env var, then "
                              f"'{DEFAULT_FLC_BACKEND}').  Compiled "
                              "kernels take the fuzzy controller off "
                              "the hot path; handover decisions are "
                              "identical on every backend.  Validated "
                              "at first use")

    p_worker = sub.add_parser(
        "worker", help="serve fleet shards over TCP (distributed executor)"
    )
    p_worker.add_argument("--listen", default="127.0.0.1:0",
                          metavar="HOST:PORT",
                          help="address to bind (default 127.0.0.1:0 — "
                               "an ephemeral port, announced on stdout); "
                               "the worker unpickles what peers send, "
                               "so bind only where every peer is "
                               "trusted")
    p_worker.add_argument("--max-tasks", type=int, default=None,
                          metavar="N",
                          help="exit cleanly after serving N tasks "
                               "(default: serve until terminated)")
    p_worker.add_argument("--die-after", type=int, default=None,
                          metavar="K",
                          help="fault injection: exit the process "
                               "abruptly while handling the K-th task "
                               "(exercises the client's shard-reissue "
                               "path; testing aid)")

    p_serve = sub.add_parser(
        "serve", help="run the streaming handover-decision service"
    )
    p_serve.add_argument("--listen", default="127.0.0.1:0",
                         metavar="HOST:PORT",
                         help="address to bind (default 127.0.0.1:0 — "
                              "an ephemeral port, announced on stdout "
                              "as 'serving on host:port')")
    p_serve.add_argument("--deadline", type=float, default=None,
                         metavar="S",
                         help="epoch deadline in seconds: force-close "
                              "the current epoch once reports have "
                              "been pending this long (default: close "
                              "on the fleet watermark only)")
    p_serve.add_argument("--ring", type=int, default=None, metavar="N",
                         help="per-UE report look-ahead window in "
                              "epochs (default 64)")
    p_serve.add_argument("--window-km", type=float, default=None,
                         help="ping-pong distance window in km")
    p_serve.add_argument("--outage-dbw", type=float, default=None,
                         help="outage sensitivity in dBW")
    p_serve.add_argument("--flc-backend", default=None,
                         help="FLC inference backend for the decision "
                              "sweep (reference, lut, or numba where "
                              "installed; decisions are identical on "
                              "every backend)")
    p_serve.add_argument("--silent-after", type=int, default=None,
                         metavar="M",
                         help="degraded mode: treat a subscribed UE as "
                              "silent after it misses M consecutive "
                              "deadline-forced epoch closes (default: "
                              "never)")
    p_serve.add_argument("--silent-policy", default="unsubscribe",
                         choices=["unsubscribe", "hold"],
                         help="what to do with a silent UE: drop it "
                              "from the epoch watermark (unsubscribe, "
                              "default) or keep replaying its last "
                              "seen report (hold)")

    p_replay = sub.add_parser(
        "replay", help="stream a recorded fleet trace through the service"
    )
    p_replay.add_argument("--trace", default=None, metavar="PATH",
                          help="a trace file saved by FleetTrace.save "
                               "(or by a previous --record --save run)")
    p_replay.add_argument("--record", action="store_true",
                          help="record a fresh trace instead of "
                               "loading one (see --ues/--walks/--seed/"
                               "--population/--fading)")
    p_replay.add_argument("--ues", type=int, default=8,
                          help="fleet size for --record (default 8)")
    p_replay.add_argument("--walks", type=int, default=3,
                          help="walk legs per UE for --record "
                               "(default 3; homogeneous fleets only)")
    p_replay.add_argument("--seed", type=int, default=1000,
                          help="base walk seed for --record")
    p_replay.add_argument("--population", default=None,
                          choices=sorted(POPULATION_MIXES),
                          help="record a named heterogeneous mix "
                               "instead of the homogeneous fleet")
    p_replay.add_argument("--fading", type=float, default=None,
                          metavar="SIGMA",
                          help="shadow-fading sigma in dB for --record "
                               "(default: no fading)")
    p_replay.add_argument("--save", default=None, metavar="PATH",
                          help="save the recorded trace for later "
                               "replays")
    p_replay.add_argument("--connect", default=None, metavar="HOST:PORT",
                          help="stream to a running `repro serve` "
                               "instead of the in-process service")
    p_replay.add_argument("--spawn", action="store_true",
                          help="spawn a `repro serve` subprocess and "
                               "stream to it over TCP (mutually "
                               "exclusive with --connect)")
    p_replay.add_argument("--rate", type=float, default=None, metavar="R",
                          help="pace the stream at about R reports/s "
                               "(R > 0; needs --spawn or --connect; "
                               "default: as fast as the socket drains)")
    p_replay.add_argument("--verify", action="store_true",
                          help="re-run the trace through the offline "
                               "batch engine and exit non-zero unless "
                               "the streamed metrics match exactly")
    return parser


def _cmd_serve(args) -> int:
    import asyncio

    from .serve import DEFAULT_RING_CAPACITY, DecisionService, ServeServer
    from .sim.distributed import parse_address
    from .sim.metrics import DEFAULT_OUTAGE_DBW, DEFAULT_WINDOW_KM

    host, port = parse_address(args.listen)
    params = SimulationParameters()
    if args.flc_backend is not None:
        params = params.with_(flc_backend=args.flc_backend)
    if args.silent_after is not None and args.silent_after < 1:
        raise SystemExit(
            f"repro serve: error: --silent-after must be >= 1, "
            f"got {args.silent_after}"
        )
    if args.silent_after is not None and args.deadline is None:
        raise SystemExit(
            "repro serve: error: --silent-after counts missed deadline "
            "closes and requires --deadline"
        )
    service = DecisionService(
        params,
        window_km=(
            DEFAULT_WINDOW_KM if args.window_km is None else args.window_km
        ),
        outage_dbw=(
            DEFAULT_OUTAGE_DBW if args.outage_dbw is None else args.outage_dbw
        ),
        ring_capacity=(
            DEFAULT_RING_CAPACITY if args.ring is None else args.ring
        ),
        epoch_deadline_s=args.deadline,
        silent_after=args.silent_after,
        silent_policy=args.silent_policy,
    )

    async def _run() -> None:
        server = ServeServer(service, host, port)
        bound_host, bound_port = await server.start()
        print(f"serving on {bound_host}:{bound_port}", flush=True)
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(_run())
    except KeyboardInterrupt:
        pass
    return 0


def _cmd_replay(parser, args) -> int:
    import asyncio

    from .serve import (
        identity_report,
        replay_in_process,
        replay_to_server,
        service_for_trace,
        spawned_server,
    )
    from .sim import (
        FleetTrace,
        offline_reference_metrics,
        record_fleet_trace,
    )

    if args.connect is not None and args.spawn:
        parser.error("--connect and --spawn are mutually exclusive")
    if args.record == (args.trace is not None):
        parser.error("exactly one of --trace or --record is required")
    for flag, count in (("--ues", args.ues), ("--walks", args.walks)):
        if count < 1:
            parser.error(f"{flag} must be >= 1, got {count}")
    if args.rate is not None:
        if not (math.isfinite(args.rate) and args.rate > 0):
            parser.error(
                f"--rate must be a finite number above 0, got {args.rate}"
            )
        if args.connect is None and not args.spawn:
            parser.error(
                "--rate paces a stream over a socket; it needs --spawn "
                "or --connect"
            )

    if args.record:
        params = SimulationParameters()
        if args.fading is not None:
            params = params.with_(shadow_sigma_db=args.fading)
        if args.population:
            spec = named_population(
                args.population, args.ues, params, base_seed=args.seed
            )
            source = f"{args.population} mix"
        else:
            spec = FleetSpec(
                n_ues=args.ues,
                n_walks=args.walks,
                base_seed=args.seed,
                params=params,
            )
            source = f"{args.walks} legs/UE"
        trace = record_fleet_trace(spec)
        print(f"trace    : recorded {trace.n_ues} UEs x "
              f"{trace.max_epochs} epochs ({source})")
        if args.save is not None:
            path = trace.save(args.save)
            print(f"saved    : {path}")
    else:
        trace = FleetTrace.load(args.trace)
        print(f"trace    : {args.trace} ({trace.n_ues} UEs x "
              f"{trace.max_epochs} epochs)")

    n_reports = int(sum(trace.lengths))
    with contextlib.ExitStack() as stack:
        # the clock starts once the server is up: it times the replay
        if args.connect is not None:
            from .sim.distributed import parse_address

            host, port = parse_address(args.connect)
            where = f"tcp {host}:{port}"
        elif args.spawn:
            host, port = stack.enter_context(spawned_server())
            where = "spawned server"
        else:
            host = port = None
            where = "in-process"
        t0 = time.perf_counter()
        if host is None:
            service, streamed = replay_in_process(
                trace, service_for_trace(trace)
            )
            stats = service.stats_payload()
        else:
            stats, streamed = asyncio.run(
                replay_to_server(trace, host, port, rate=args.rate)
            )
        elapsed = time.perf_counter() - t0

    latency = stats.get("latency", {})
    print(f"replayed : {n_reports} reports in {elapsed:.3f} s "
          f"({n_reports / elapsed:,.0f} reports/s, {where})")
    print(f"epochs   : {stats['epochs_closed']} closed "
          f"({stats['watermark_closes']} watermark, "
          f"{stats['forced_closes']} forced); "
          f"p99 decision latency "
          f"{latency.get('p99_s', float('nan')) * 1e3:.2f} ms")
    print(f"handovers: {streamed.n_handovers} "
          f"(ping-pongs {streamed.n_ping_pongs}, "
          f"necessary {streamed.n_necessary})")

    if args.verify:
        problems = identity_report(streamed, offline_reference_metrics(trace))
        if problems:
            print("identity : FAILED")
            for problem in problems:
                print(f"  {problem}")
            return 1
        print("identity : OK (stream == offline batch engine, exact)")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        width = max(len(k) for k in EXPERIMENTS)
        for exp in EXPERIMENTS.values():
            print(f"{exp.id:<{width}}  [{exp.kind}]  {exp.description}")
        return 0

    if args.command == "show":
        exp = get_experiment(args.artefact)
        artefact = exp.generate()
        print(f"== {exp.id}: {exp.description} ==\n")
        print(artefact.render() if hasattr(artefact, "render") else artefact)
        return 0

    if args.command == "report":
        print(full_report())
        return 0

    if args.command == "evaluate":
        flc = build_handover_flc()
        explanation = flc.explain(CSSP=args.cssp, SSN=args.ssn, DMB=args.dmb)
        print(explanation.describe())
        verdict = "HANDOVER" if explanation.output > 0.7 else "stay"
        print(f"decision @ threshold 0.7: {verdict}")
        return 0

    if args.command == "simulate":
        params = SimulationParameters()
        scenario = (
            SCENARIO_PINGPONG if args.scenario == "pingpong"
            else SCENARIO_CROSSING
        )
        trace = scenario.generate(params)
        system = FuzzyHandoverSystem(cell_radius_km=params.cell_radius_km)
        result, metrics = run_trace(
            params, system, trace, speed_kmh=args.speed
        )
        print(f"scenario : {scenario.name} (paper iseed="
              f"{scenario.paper_iseed}, frozen seed {scenario.seed})")
        print(f"speed    : {args.speed:g} km/h")
        print(f"sequence : {result.serving_sequence()}")
        print(f"handovers: {metrics.n_handovers} "
              f"(ping-pongs: {metrics.n_ping_pongs})")
        for e in result.events:
            print(f"  step {e.step:3d} @ {e.distance_km:5.2f} km: "
                  f"{e.source} -> {e.target} (output {e.output:.3f})")
        return 0

    if args.command == "serve":
        return _cmd_serve(args)

    if args.command == "replay":
        return _cmd_replay(parser, args)

    if args.command == "worker":
        from .resilience import FaultPlan, FaultRule
        from .sim.distributed import WorkerServer, parse_address

        host, port = parse_address(args.listen)
        fault = (
            FaultPlan(
                rules=(
                    FaultRule(scope="worker", mode="exit",
                              after=args.die_after),
                )
            )
            if args.die_after is not None
            else None
        )
        server = WorkerServer(
            host, port, max_tasks=args.max_tasks, fault=fault
        )
        print(
            f"listening on {server.address[0]}:{server.address[1]}",
            flush=True,
        )
        server.serve_forever()
        return 0

    if args.command == "fleet":
        for flag, count in (
            ("--ues", args.ues),
            ("--walks", args.walks),
            ("--shards", args.shards),
            ("--workers", args.workers),
        ):
            if count is not None and count < 1:
                parser.error(f"{flag} must be >= 1, got {count}")
        if args.population and (
            args.walks is not None or args.speeds is not None
        ):
            parser.error(
                "--walks/--speeds configure the homogeneous fleet; a "
                "--population mix defines mobility and speeds per cohort"
            )
        params = SimulationParameters(
            pathloss_backend=args.backend, flc_backend=args.flc_backend
        )
        if args.population:
            spec = FleetSpec.from_population(
                named_population(
                    args.population, args.ues, params, base_seed=args.seed
                )
            )
            name = f"{args.population}-{args.ues}"
            legs = f"{args.population} mix"
        else:
            walks = 10 if args.walks is None else args.walks
            spec = FleetSpec(
                n_ues=args.ues,
                n_walks=walks,
                base_seed=args.seed,
                speeds_kmh=(
                    tuple(args.speeds) if args.speeds else PAPER_SPEEDS_KMH
                ),
                params=params,
            )
            name = f"fleet-{args.ues}"
            legs = f"{walks} legs/UE"

        tuning_flags = (
            args.heartbeat_interval is not None
            or args.heartbeat_timeout is not None
            or args.max_retries is not None
            or args.no_serial_fallback
        )
        if tuning_flags and args.hosts is None:
            parser.error(
                "--heartbeat-interval/--heartbeat-timeout/--max-retries/"
                "--no-serial-fallback tune the distributed executor and "
                "require --hosts"
            )
        if (
            args.heartbeat_interval is not None
            and args.heartbeat_interval <= 0
        ):
            parser.error(
                f"--heartbeat-interval must be positive, "
                f"got {args.heartbeat_interval}"
            )
        if args.heartbeat_timeout is not None and args.heartbeat_timeout <= 0:
            parser.error(
                f"--heartbeat-timeout must be positive, "
                f"got {args.heartbeat_timeout}"
            )
        if args.max_retries is not None and args.max_retries < 0:
            parser.error(
                f"--max-retries must be >= 0, got {args.max_retries}"
            )
        if args.checkpoint is not None:
            if args.hosts is not None or args.workers is not None:
                parser.error(
                    "--checkpoint runs shards serially in-process "
                    "(it writes each shard's file as the shard "
                    "finishes); drop --hosts/--workers"
                )

        hosts = None
        if args.hosts is not None:
            if args.workers is not None:
                parser.error("--hosts and --workers are mutually exclusive")
            from .sim.distributed import parse_hosts

            hosts = [
                f"{h}:{p}" for h, p in parse_hosts(args.hosts)
            ]
        executor = None
        if hosts is not None and tuning_flags:
            from .sim.distributed import DistributedExecutor

            tuning = {}
            if args.heartbeat_interval is not None:
                tuning["heartbeat_interval"] = args.heartbeat_interval
            if args.heartbeat_timeout is not None:
                tuning["heartbeat_timeout"] = args.heartbeat_timeout
            if args.max_retries is not None:
                tuning["max_retries"] = args.max_retries
            if args.no_serial_fallback:
                tuning["serial_fallback"] = False
            executor = DistributedExecutor(hosts, **tuning)
        t0 = time.perf_counter()
        if args.checkpoint is not None:
            from .resilience import (
                CheckpointError,
                checkpoint_ranges,
                run_fleet_checkpointed,
            )

            n_shards = len(checkpoint_ranges(args.ues, args.shards))
            try:
                fleet = run_fleet_checkpointed(
                    spec, checkpoint_dir=args.checkpoint, n_shards=args.shards
                )
            except CheckpointError as exc:
                parser.error(str(exc))
        else:
            n_shards = len(partition_fleet(args.ues, args.shards))
            fleet = run_fleet(
                spec,
                n_shards=args.shards,
                max_workers=args.workers,
                hosts=None if executor is not None else hosts,
                executor=executor,
            )
        elapsed = time.perf_counter() - t0
        epochs = fleet.n_epochs_total
        # display-only name resolution: never run the "auto" timing
        # probe in the parent (the shards resolve it on their own host)
        requested = resolve_backend(args.backend, probe=False)
        label = (
            "auto (fastest kernel per executing host)"
            if requested == AUTO_BACKEND
            else requested
        )
        flc_label = resolve_flc_backend(args.flc_backend)
        print(f"scenario : {name} (seeds {args.seed}.."
              f"{args.seed + args.ues - 1}, {legs})")
        print(f"backend  : {label} pathloss kernel, "
              f"{flc_label} FLC kernel")
        print(f"fleet    : {fleet.n_ues} UEs, {epochs} measurement epochs")
        if args.checkpoint is not None:
            where = f"checkpointed in {args.checkpoint}"
        elif hosts is not None:
            where = (
                f"{len(hosts)} socket worker{'s' if len(hosts) != 1 else ''}"
            )
        else:
            where = "local"
        print(f"wall     : {elapsed:.3f} s "
              f"({epochs / elapsed:,.0f} UE-epochs/s, "
              f"{n_shards} shard{'s' if n_shards != 1 else ''}, {where})")
        print(f"handovers: {fleet.n_handovers} "
              f"({fleet.mean_handovers_per_ue:.2f}/UE, "
              f"necessary {fleet.n_necessary})")
        print(f"ping-pong: {fleet.n_ping_pongs} "
              f"(rate {fleet.ping_pong_rate:.3f})")
        print(f"wrong-BS : {fleet.wrong_cell_fraction:.4f} of epochs")
        print(f"outage   : {fleet.outage_fraction:.4f} of epochs "
              f"(below {fleet.outage_dbw:g} dBW)")
        if args.population:
            print("cohorts  :")
            width = max(len(n) for n in fleet.cohort_names)
            for cm in fleet.per_cohort():
                print(f"  {cm.describe(width)}")
        if args.metrics_out is not None:
            import pickle

            with open(args.metrics_out, "wb") as fh:
                pickle.dump(fleet, fh, protocol=pickle.HIGHEST_PROTOCOL)
            print(f"metrics  : saved to {args.metrics_out}")
        return 0

    return 2  # pragma: no cover - argparse enforces the choices


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
