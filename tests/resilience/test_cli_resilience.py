"""CLI surface of the resilience work: executor-tuning flags,
checkpointed fleet runs, and degraded-mode serve flags — validation
first, then the happy paths."""

from __future__ import annotations

import pickle

import pytest

from repro.__main__ import main
from repro.sim.metrics import FleetMetrics

pytestmark = pytest.mark.resilience


FLEET = ["fleet", "--ues", "2", "--walks", "2"]


def fails_with(capsys, argv, needle):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    err = capsys.readouterr().err
    code = excinfo.value.code
    blob = err + (code if isinstance(code, str) else "")
    assert needle in blob, f"{needle!r} not in {blob!r}"


# ----------------------------------------------------------------------
# executor tuning flags
# ----------------------------------------------------------------------
class TestTuningValidation:
    @pytest.mark.parametrize(
        "flag",
        [
            ["--heartbeat-interval", "0.5"],
            ["--heartbeat-timeout", "4"],
            ["--max-retries", "2"],
            ["--no-serial-fallback"],
        ],
    )
    def test_tuning_requires_hosts(self, capsys, flag):
        fails_with(capsys, FLEET + flag, "require --hosts")

    @pytest.mark.parametrize("value", ["0", "-1.5"])
    def test_heartbeat_interval_must_be_positive(self, capsys, value):
        fails_with(
            capsys,
            FLEET + ["--hosts", "localhost:1", "--heartbeat-interval", value],
            "--heartbeat-interval must be positive",
        )

    def test_heartbeat_timeout_must_be_positive(self, capsys):
        fails_with(
            capsys,
            FLEET + ["--hosts", "localhost:1", "--heartbeat-timeout", "0"],
            "--heartbeat-timeout must be positive",
        )

    def test_max_retries_must_be_nonnegative(self, capsys):
        fails_with(
            capsys,
            FLEET + ["--hosts", "localhost:1", "--max-retries", "-1"],
            "--max-retries must be >= 0",
        )

    def test_hosts_and_workers_exclusive(self, capsys):
        fails_with(
            capsys,
            FLEET + ["--hosts", "localhost:1", "--workers", "2"],
            "mutually exclusive",
        )


# ----------------------------------------------------------------------
# checkpointed fleet runs
# ----------------------------------------------------------------------
class TestCheckpointFlags:
    def test_checkpoint_accepts_population(self, tmp_path, capsys):
        argv = ["fleet", "--ues", "6", "--population", "urban_mix"]
        plain = tmp_path / "plain.pkl"
        checkpointed = tmp_path / "checkpointed.pkl"
        assert main(argv + ["--metrics-out", str(plain)]) == 0
        assert main(
            argv + ["--checkpoint", str(tmp_path / "ckpt"),
                    "--metrics-out", str(checkpointed)]
        ) == 0
        out = capsys.readouterr().out
        assert "cohorts  :" in out
        assert checkpointed.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize(
        "flag", [["--hosts", "localhost:1"], ["--workers", "2"]]
    )
    def test_checkpoint_rejects_remote_execution(self, capsys, flag):
        fails_with(
            capsys,
            FLEET + flag + ["--checkpoint", "/tmp/x"],
            "serially in-process",
        )

    def test_checkpointed_run_and_short_circuit(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        out_a = tmp_path / "a.pkl"
        out_b = tmp_path / "b.pkl"
        argv = FLEET + ["--checkpoint", str(ckpt)]
        assert main(argv + ["--metrics-out", str(out_a)]) == 0
        out = capsys.readouterr().out
        assert f"checkpointed in {ckpt}" in out
        # a re-run returns the stored result, byte-identical
        assert main(argv + ["--metrics-out", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_metrics_out_writes_loadable_fleet_metrics(
        self, tmp_path, capsys
    ):
        out = tmp_path / "metrics.pkl"
        assert main(FLEET + ["--metrics-out", str(out)]) == 0
        assert f"saved to {out}" in capsys.readouterr().out
        with out.open("rb") as fh:
            fleet = pickle.load(fh)
        assert isinstance(fleet, FleetMetrics)


# ----------------------------------------------------------------------
# degraded-mode serve flags
# ----------------------------------------------------------------------
class TestServeFlags:
    def test_silent_after_must_be_positive(self, capsys):
        fails_with(
            capsys,
            ["serve", "--deadline", "5", "--silent-after", "0"],
            "--silent-after must be >= 1",
        )

    def test_silent_after_requires_deadline(self, capsys):
        fails_with(
            capsys,
            ["serve", "--silent-after", "3"],
            "deadline",
        )

    def test_silent_policy_choices_enforced(self, capsys):
        with pytest.raises(SystemExit):
            main(
                ["serve", "--deadline", "5", "--silent-after", "2",
                 "--silent-policy", "shrug"]
            )
        assert "invalid choice" in capsys.readouterr().err
