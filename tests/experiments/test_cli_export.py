"""Tests for the CLI and the JSON/CSV export."""

import json

import pytest

from repro.cli import build_parser, main
from repro.experiments.export import (
    schedule_to_json,
    single_results_to_json,
    sweep_to_csv,
    sweep_to_json,
)
from repro.experiments.multi import run_schedule, sweep


@pytest.fixture(scope="module")
def small_sweep():
    return sweep(counts=(4, 6), repeats=1, seed=5)


class TestExport:
    def test_sweep_json_round_trips(self, small_sweep):
        payload = json.loads(sweep_to_json(small_sweep))
        assert payload["counts"] == [4, 6]
        assert set(payload["finished_time_s"]) == {"FIFO", "BF", "RU", "Rand"}
        assert len(payload["finished_time_s"]["BF"]) == 2
        assert all(v == 0 for v in payload["failures"]["BF"])

    def test_sweep_csv_layout(self, small_sweep):
        text = sweep_to_csv(small_sweep, "finished")
        lines = text.strip().splitlines()
        assert lines[0] == "policy,4,6"
        assert len(lines) == 5  # header + 4 policies

    def test_sweep_csv_unknown_metric(self, small_sweep):
        with pytest.raises(ValueError):
            sweep_to_csv(small_sweep, "latency")

    def test_schedule_json_contains_outcomes(self):
        result = run_schedule("FIFO", 4, 9)
        payload = json.loads(schedule_to_json(result))
        assert payload["count"] == 4
        assert len(payload["containers"]) == 4
        assert {"name", "type_name", "suspended"} <= set(payload["containers"][0])

    def test_single_results_json_partial(self):
        payload = json.loads(single_results_to_json())
        assert payload == {}


class TestCli:
    def test_parser_knows_all_commands(self):
        parser = build_parser()
        for command in ("fig4", "fig5", "fig6", "run", "sweep", "deadlock", "export"):
            args = parser.parse_args(
                [command] if command != "run" else ["run", "--count", "4"]
            )
            assert args.command == command

    def test_daemon_has_no_io_backend_flag(self, capsys):
        with pytest.raises(SystemExit):
            main(["daemon", "--help"])
        out = capsys.readouterr().out
        # --io-workers stays; the backend selector is gone.
        assert "--io-workers" in out
        assert "--io" not in out.replace("--io-workers", "")

    def test_daemon_has_no_transport_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["daemon", "--help"])
        out = capsys.readouterr().out
        # AF_UNIX is the only served transport: its address is --base-dir.
        assert "--base-dir" in out
        for flag in ("--transport", "--host", "--port"):
            assert flag not in out, flag

    def test_run_command_exit_zero(self, capsys):
        code = main(["run", "--policy", "FIFO", "--count", "4", "--seed", "11"])
        assert code == 0
        out = capsys.readouterr().out
        assert "finished" in out and "c000" in out

    def test_fig6_scaled(self, capsys):
        code = main(["fig6", "--steps", "200"])
        assert code == 0
        assert "MNIST" in capsys.readouterr().out

    def test_sweep_custom_counts(self, capsys):
        code = main(["sweep", "--counts", "4,6", "--repeats", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Table IV" in out and "Table V" in out and "Fig. 7" in out

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["sweep", "--repeats", "0", "--counts", "2"], "repeats"),
            (["sweep", "--counts", "0"], "counts"),
        ],
    )
    def test_sweep_rejects_an_empty_grid(self, capsys, argv, named):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and named in captured.err

    def test_export_rejects_zero_repeats_before_writing(self, tmp_path, capsys):
        out = tmp_path / "results"
        assert main(["export", "--out", str(out), "--repeats", "0"]) == 2
        assert "repeats" in capsys.readouterr().err
        assert not out.exists()

    def test_deadlock_command(self, capsys):
        code = main(["deadlock"])
        assert code == 0
        out = capsys.readouterr().out
        assert "deadlocked=True" in out  # unmanaged wedge observed
        assert out.count("with ConVGPU") == 2

    def test_export_writes_files(self, tmp_path, capsys):
        code = main(
            ["export", "--out", str(tmp_path), "--repeats", "1", "--seed", "5"]
        )
        assert code == 0
        names = {p.name for p in tmp_path.iterdir()}
        assert {
            "sweep.json",
            "table4_finished.csv",
            "table5_suspended.csv",
            "single.json",
            "schedule_bf_16.json",
        } <= names
        payload = json.loads((tmp_path / "single.json").read_text())
        assert "fig4_api_response_s" in payload
