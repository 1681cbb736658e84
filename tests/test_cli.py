"""CLI tests (``python -m repro``)."""

import contextlib
import pickle
import re
import time
from types import SimpleNamespace

import pytest

from repro.__main__ import build_parser, main
from repro.sim import (
    FleetSpec,
    SimulationParameters,
    named_population,
    run_fleet,
)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_show_validates_artefact(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["show", "table99"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table3" in out
        assert "figure13" in out
        assert "[table]" in out and "[figure]" in out

    def test_show_static_artefact(self, capsys):
        assert main(["show", "table1"]) == 0
        out = capsys.readouterr().out
        assert "SM   WK   NR   LO" in out

    def test_show_figure(self, capsys):
        assert main(["show", "figure7"]) == 0
        out = capsys.readouterr().out
        assert "Random Walk" in out

    def test_evaluate_handover_case(self, capsys):
        assert main(["evaluate", "-6", "-85", "0.95"]) == 0
        out = capsys.readouterr().out
        assert "HANDOVER" in out
        assert "IF CSSP" in out  # rule explanation present

    def test_evaluate_stay_case(self, capsys):
        assert main(["evaluate", "2", "-115", "0.2"]) == 0
        out = capsys.readouterr().out
        assert "stay" in out

    def test_simulate_pingpong(self, capsys):
        assert main(["simulate", "pingpong"]) == 0
        out = capsys.readouterr().out
        assert "handovers: 0" in out

    def test_simulate_crossing(self, capsys):
        assert main(["simulate", "crossing"]) == 0
        out = capsys.readouterr().out
        assert "handovers: 3" in out
        assert "(-2, 1)" in out

    def test_fleet(self, capsys):
        assert main(["fleet", "--ues", "8", "--walks", "4"]) == 0
        out = capsys.readouterr().out
        assert "8 UEs" in out
        assert "UE-epochs/s" in out
        assert "ping-pong" in out

    def test_fleet_custom_speeds(self, capsys):
        assert main(
            ["fleet", "--ues", "4", "--walks", "3", "--speeds", "0", "50"]
        ) == 0
        out = capsys.readouterr().out
        assert "4 UEs" in out

    def test_fleet_sharded(self, capsys):
        assert main(
            ["fleet", "--ues", "6", "--walks", "3", "--shards", "3"]
        ) == 0
        out = capsys.readouterr().out
        assert "6 UEs" in out
        assert "3 shards" in out

    def test_fleet_sharded_with_workers(self, capsys):
        assert main(
            ["fleet", "--ues", "6", "--walks", "3",
             "--shards", "2", "--workers", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "6 UEs" in out

    def test_fleet_rejects_bad_workers(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fleet", "--ues", "4", "--walks", "3",
                  "--shards", "2", "--workers", "0"])
        assert exc.value.code == 2
        assert "--workers must be >= 1, got 0" in capsys.readouterr().err

    def test_fleet_hosts_and_workers_mutually_exclusive(self, capsys):
        with pytest.raises(SystemExit):
            main(["fleet", "--ues", "4", "--walks", "3",
                  "--hosts", "127.0.0.1:1", "--workers", "2"])

    def test_fleet_rejects_malformed_hosts(self, capsys):
        with pytest.raises(ValueError, match="host:port"):
            main(["fleet", "--ues", "4", "--walks", "3",
                  "--hosts", "nonsense"])

    @pytest.mark.distributed
    def test_fleet_over_socket_workers(self, capsys):
        import threading

        from repro.sim import WorkerServer

        servers = [WorkerServer() for _ in range(2)]
        threads = [
            threading.Thread(target=s.serve_forever, daemon=True)
            for s in servers
        ]
        for t in threads:
            t.start()
        try:
            hosts = ",".join(
                f"{s.address[0]}:{s.address[1]}" for s in servers
            )
            assert main(
                ["fleet", "--ues", "6", "--walks", "3",
                 "--shards", "2", "--hosts", hosts]
            ) == 0
            out = capsys.readouterr().out
            assert "6 UEs" in out
            assert "2 socket workers" in out
        finally:
            for s in servers:
                s.stop()
            for t in threads:
                t.join(timeout=5.0)


class TestWorkerCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["worker"])
        assert args.listen == "127.0.0.1:0"
        assert args.max_tasks is None
        assert args.die_after is None

    def test_parser_knobs(self):
        args = build_parser().parse_args(
            ["worker", "--listen", "0.0.0.0:7777",
             "--max-tasks", "3", "--die-after", "2"]
        )
        assert args.listen == "0.0.0.0:7777"
        assert args.max_tasks == 3
        assert args.die_after == 2

    def test_worker_rejects_malformed_listen(self):
        with pytest.raises(ValueError, match="host:port"):
            main(["worker", "--listen", "nonsense"])

    @pytest.mark.distributed
    def test_worker_serves_and_announces(self, capsys):
        # --max-tasks 0 makes serve_forever return immediately after
        # binding, so the announce line is testable without a client
        assert main(["worker", "--max-tasks", "0"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("listening on 127.0.0.1:")


def fleet_metric_lines(capsys, *extra):
    """The deterministic metric lines of one ``repro fleet`` run (the
    wall-clock line is timing, not physics)."""
    assert main(["fleet", "--ues", "12", "--walks", "4", *extra]) == 0
    out = capsys.readouterr().out
    return [l for l in out.splitlines() if not l.startswith("wall")]


class TestFleetDeterminism:
    """``repro fleet`` is reproducible: identical metrics across
    repeated runs and across shard/worker counts."""

    def test_repeated_runs_identical(self, capsys):
        assert fleet_metric_lines(capsys) == fleet_metric_lines(capsys)

    def test_shards_1_vs_4_identical(self, capsys):
        assert (
            fleet_metric_lines(capsys, "--shards", "1")
            == fleet_metric_lines(capsys, "--shards", "4")
        )

    def test_sharded_repeated_runs_identical(self, capsys):
        assert (
            fleet_metric_lines(capsys, "--shards", "4", "--workers", "2")
            == fleet_metric_lines(capsys, "--shards", "4", "--workers", "2")
        )

    def test_simulate_with_speed(self, capsys):
        assert main(["simulate", "crossing", "--speed", "10"]) == 0
        out = capsys.readouterr().out
        assert "10 km/h" in out


def population_metric_lines(capsys, *extra):
    """Deterministic metric lines of one ``repro fleet --population``
    run (the wall-clock line is timing, not physics)."""
    assert main(
        ["fleet", "--ues", "15", "--population", "urban_mix", *extra]
    ) == 0
    out = capsys.readouterr().out
    return [l for l in out.splitlines() if not l.startswith("wall")]


@pytest.mark.population
class TestFleetPopulations:
    """``repro fleet --population`` runs named heterogeneous mixes with
    a per-cohort breakdown, deterministically."""

    def test_population_reports_cohort_breakdown(self, capsys):
        lines = population_metric_lines(capsys)
        out = "\n".join(lines)
        assert "urban_mix mix" in out
        assert "cohorts" in out
        assert "pedestrian" in out
        assert "stationary" in out
        assert "vehicular" in out
        assert "outage" in out

    def test_population_repeated_runs_identical(self, capsys):
        assert population_metric_lines(capsys) == population_metric_lines(
            capsys
        )

    def test_population_shards_1_vs_4_identical(self, capsys):
        assert (
            population_metric_lines(capsys, "--shards", "1")
            == population_metric_lines(capsys, "--shards", "4")
        )

    def test_population_sharded_repeats_identical(self, capsys):
        assert (
            population_metric_lines(capsys, "--shards", "4", "--workers", "2")
            == population_metric_lines(capsys, "--shards", "4", "--workers", "2")
        )

    def test_unknown_population_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["fleet", "--population", "no-such-mix"]
            )

    @pytest.mark.parametrize(
        "extra",
        [("--speeds", "0", "50"), ("--walks", "4")],
    )
    def test_population_rejects_homogeneous_knobs(self, capsys, extra):
        # argparse-style usage error (exit code 2), not a traceback
        with pytest.raises(SystemExit) as exc:
            main(["fleet", "--ues", "6", "--population", "urban_mix", *extra])
        assert exc.value.code == 2
        assert "--walks/--speeds" in capsys.readouterr().err


@pytest.mark.backend
class TestFleetBackends:
    """``repro fleet --backend`` selects the pathloss kernel without
    changing any metric (the NumPy family is bit-identical)."""

    def test_backend_flag_reported(self, capsys):
        assert main(
            ["fleet", "--ues", "4", "--walks", "3",
             "--backend", "reference"]
        ) == 0
        out = capsys.readouterr().out
        assert "reference pathloss kernel" in out

    def test_default_backend_reported(self, capsys, monkeypatch):
        from repro.radio import BACKEND_ENV_VAR

        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        assert main(["fleet", "--ues", "4", "--walks", "3"]) == 0
        assert "numpy pathloss kernel" in capsys.readouterr().out

    def test_unknown_backend_rejected(self):
        # validated at first kernel use (the parser never probes the
        # optional accelerator imports), with the choices listed
        with pytest.raises(ValueError, match="unknown pathloss backend"):
            main(["fleet", "--ues", "3", "--walks", "3",
                  "--backend", "not-a-kernel"])

    def test_reference_and_numpy_metrics_identical(self, capsys):
        def metrics(backend):
            lines = fleet_metric_lines(capsys, "--backend", backend)
            return [l for l in lines if not l.startswith("backend")]

        assert metrics("reference") == metrics("numpy")


#: ``repro fleet`` options and the spec they describe
FLEET_SPECS = {
    "homogeneous": (
        ["--ues", "12", "--walks", "4", "--speeds", "0", "30",
         "--backend", "reference", "--flc-backend", "lut", "--shards", "2"],
        FleetSpec(
            n_ues=12,
            n_walks=4,
            base_seed=1000,
            speeds_kmh=(0.0, 30.0),
            params=SimulationParameters(
                pathloss_backend="reference", flc_backend="lut"
            ),
        ),
    ),
    "urban_mix": (
        ["--ues", "15", "--population", "urban_mix"],
        FleetSpec.from_population(
            named_population("urban_mix", 15, base_seed=1000)
        ),
    ),
}


class TestFleetCounts:
    """A fleet count below 1 is a usage error that names its flag,
    raised before any fleet is built."""

    @pytest.mark.parametrize(
        "argv,flag",
        [
            (["--shards", "0"], "--shards"),
            (["--ues", "0"], "--ues"),
            (["--ues", "-3"], "--ues"),
            (["--ues", "-3", "--population", "urban_mix"], "--ues"),
            (["--walks", "0"], "--walks"),
            (["--workers", "0", "--shards", "2"], "--workers"),
        ],
    )
    def test_count_below_one_is_a_usage_error(
        self, argv, flag, capsys, monkeypatch
    ):
        import repro.__main__ as cli

        def built(*args, **kwargs):
            raise AssertionError("a fleet was built")

        for name in ("SimulationParameters", "FleetSpec", "named_population"):
            monkeypatch.setattr(cli, name, built)
        with pytest.raises(SystemExit) as exc:
            main(["fleet", *argv])
        assert exc.value.code == 2
        value = argv[argv.index(flag) + 1]
        assert f"{flag} must be >= 1, got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name", ["fleet.ckpt", "shard-0-4.json", "shard-0-2.json"]
    )
    def test_unusable_checkpoint_is_one_usage_error(
        self, name, tmp_path, capsys
    ):
        """A refused checkpoint file ends the command with one error line
        that names it, and status 2."""
        (tmp_path / name).write_text("garbage\n")
        with pytest.raises(SystemExit) as exc:
            main(["fleet", "--ues", "4", "--walks", "2",
                  "--checkpoint", str(tmp_path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error" in line]
        assert len(errors) == 1
        assert errors[0].startswith(
            f"repro: error: checkpoint file {tmp_path / name} "
        )


class TestReplayUsage:
    """``repro replay`` refuses a bad count or rate as a usage error,
    before a trace is recorded or a server spawned."""

    @pytest.mark.parametrize(
        "argv,text",
        [
            (["--ues", "0"], "--ues must be >= 1, got 0"),
            (["--ues", "-2"], "--ues must be >= 1, got -2"),
            (["--walks", "0"], "--walks must be >= 1, got 0"),
            (["--rate", "0", "--spawn"],
             "--rate must be a finite number above 0, got 0.0"),
            (["--rate", "-5", "--spawn"],
             "--rate must be a finite number above 0, got -5.0"),
            (["--rate", "nan", "--spawn"],
             "--rate must be a finite number above 0, got nan"),
            (["--rate", "inf", "--connect", "127.0.0.1:1"],
             "--rate must be a finite number above 0, got inf"),
            (["--rate", "5"],
             "--rate paces a stream over a socket; it needs --spawn or "
             "--connect"),
        ],
    )
    def test_usage_error(self, argv, text, capsys, monkeypatch):
        import repro.serve
        import repro.sim

        def started(*args, **kwargs):
            raise AssertionError("the replay started")

        monkeypatch.setattr(repro.sim, "record_fleet_trace", started)
        monkeypatch.setattr(repro.serve, "spawned_server", started)
        with pytest.raises(SystemExit) as exc:
            main(["replay", "--record", *argv])
        assert exc.value.code == 2
        assert f"repro: error: {text}\n" in capsys.readouterr().err


class TestFleetSpecPin:
    """``repro fleet`` builds one :class:`FleetSpec` and runs exactly it,
    with or without ``--checkpoint``."""

    @pytest.mark.parametrize("checkpoint", [False, True])
    @pytest.mark.parametrize("case", sorted(FLEET_SPECS))
    def test_metrics_out_is_the_spec_run(
        self, case, checkpoint, tmp_path, capsys
    ):
        argv, spec = FLEET_SPECS[case]
        path = tmp_path / "metrics.pkl"
        if checkpoint:
            argv = [*argv, "--checkpoint", str(tmp_path / "ckpt")]
        assert main(["fleet", *argv, "--metrics-out", str(path)]) == 0
        want = pickle.dumps(run_fleet(spec), protocol=pickle.HIGHEST_PROTOCOL)
        assert path.read_bytes() == want

    def test_tile_epochs_option_is_gone(self, capsys):
        # the measurement layer picks tiles from the workload size
        with pytest.raises(SystemExit) as exc:
            main(["fleet", "--ues", "4", "--tile-epochs", "4"])
        assert exc.value.code == 2


class TestReplayTiming:
    def test_spawned_replay_times_the_replay_only(self, capsys, monkeypatch):
        """The printed replay time leaves out the spawned server's
        start-up."""
        import repro.serve

        @contextlib.contextmanager
        def slow_server():
            time.sleep(0.3)
            yield "127.0.0.1", 1

        async def instant_replay(trace, host, port, rate=None):
            stats = {"epochs_closed": 0, "watermark_closes": 0,
                     "forced_closes": 0}
            metrics = SimpleNamespace(
                n_handovers=0, n_ping_pongs=0, n_necessary=0
            )
            return stats, metrics

        monkeypatch.setattr(repro.serve, "spawned_server", slow_server)
        monkeypatch.setattr(repro.serve, "replay_to_server", instant_replay)
        assert main(
            ["replay", "--record", "--ues", "2", "--walks", "2", "--spawn"]
        ) == 0
        out = capsys.readouterr().out
        elapsed = float(re.search(r"reports in ([0-9.]+) s", out).group(1))
        assert elapsed < 0.3
