"""Unit tests for the post-mortem correlator (`repro.obs.doctor`)."""

import json

import pytest

from repro.core.scheduler.core import GpuMemoryScheduler
from repro.core.scheduler.journal import SchedulerJournal
from repro.core.scheduler.policies import make_policy
from repro.obs.doctor import analyze, render
from repro.obs.recorder import FlightRecorder
from repro.units import GiB


@pytest.fixture
def dump_path(tmp_path):
    """A synthetic flight dump with I/O events and a stage section.

    The sections are in the format older daemons wrote: histogram
    exemplars and a ``trace`` key on the slow entry, which the doctor
    must read and ignore."""
    rec = FlightRecorder(capacity=16)
    read = rec.declare("io.read", a="fd", b="bytes")
    pause = rec.declare("sched.pause", s="container")
    err = rec.declare("io.frame_error", s="error", a="fd")
    rec.record(read, a=7, b=128)
    rec.record(pause, s="b")
    rec.record(err, s="bad frame", a=7)
    rec.add_dump_section(
        lambda: [
            {
                "kind": "stage_summary",
                "stage": "dispatch",
                "sum": 0.004,
                "count": 4,
                "buckets": [[0.0005, 1], [0.001, 2], [0.005, 4]],
                "exemplars": [
                    {"le": 0.005, "exemplar": "trace-9", "value": 0.003}
                ],
            },
            {
                "kind": "slow_trace",
                "ts": 3.0,
                "trace": "trace-9",
                "type": "alloc_request",
                "container": "b",
                "total": 0.02,
                "stages": {"fsync_wait": 0.015},
            },
        ]
    )
    path = str(tmp_path / "flight.jsonl")
    rec.dump(path, reason="sigusr2")
    return path


@pytest.fixture
def wedged_journal(tmp_path):
    """A journal whose final state has one paused (wedged) allocation."""
    path = str(tmp_path / "journal.jsonl")
    scheduler = GpuMemoryScheduler(5 * GiB, make_policy("FIFO"))
    journal = SchedulerJournal(path)
    journal.attach(scheduler)
    scheduler.register_container("a", 4 * GiB)
    scheduler.register_container("b", 4 * GiB)  # assigned only 1 GiB
    decision = scheduler.request_allocation("b", 2, 2 * GiB)
    assert decision.paused
    journal.close()
    return path


class TestAnalyze:
    def test_flight_only_report(self, dump_path):
        report = analyze(dump_path)
        assert report["meta"]["reason"] == "sigusr2"
        assert report["flight_events"] == 3
        assert report["journal_events"] == 0
        assert report["wedged"] == []
        assert report["frame_errors"] == 1
        assert report["event_counts"]["io.read"] == 1

    def test_timeline_merges_and_sorts_journal_events(
        self, dump_path, wedged_journal
    ):
        report = analyze(dump_path, journal_path=wedged_journal)
        assert report["journal_events"] >= 3  # registers + pause
        stamps = [entry["ts"] for entry in report["timeline"]]
        assert stamps == sorted(stamps)
        sources = {entry["source"] for entry in report["timeline"]}
        assert sources == {"flight", "journal"}
        assert report["event_counts"]["AllocationPaused"] == 1

    def test_wedged_container_detected(self, dump_path, wedged_journal):
        report = analyze(dump_path, journal_path=wedged_journal)
        assert len(report["wedged"]) == 1
        entry = report["wedged"][0]
        assert entry["container"] == "b"
        assert entry["pending"] == 1
        assert entry["requests"][0]["pid"] == 2

    def test_stage_rows_estimate_quantiles(self, dump_path):
        report = analyze(dump_path)
        rows = {row["stage"]: row for row in report["stages"]}
        dispatch = rows["dispatch"]
        assert dispatch["count"] == 4
        assert dispatch["mean"] == pytest.approx(0.001)
        assert dispatch["p50"] == 0.001  # 2/4 cumulative at le=0.001
        assert dispatch["p99"] == 0.005

    def test_slow_traces_ranked(self, dump_path):
        report = analyze(dump_path)
        assert report["slow_traces"][0]["total"] == 0.02
        assert report["slow_traces"][0]["container"] == "b"

    def test_metrics_snapshot_cross_check(self, dump_path, tmp_path):
        metrics_path = str(tmp_path / "metrics.json")
        payload = {
            "convgpu_stage_seconds": {
                "kind": "histogram",
                "samples": [{"stage": "dispatch", "sum": 0.004, "count": 4}],
            }
        }
        with open(metrics_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        report = analyze(dump_path, metrics_path=metrics_path)
        assert report["metrics_stage_samples"][0]["stage"] == "dispatch"


class TestRender:
    def test_report_sections_present(self, dump_path, wedged_journal):
        text = render(analyze(dump_path, journal_path=wedged_journal))
        assert "== repro doctor ==" in text
        assert "wedged containers: 1" in text
        assert "b: 1 pending" in text
        assert "-- stage latency (sampled) --" in text
        assert "-- slowest traces --" in text
        assert "alloc_request container=b fsync_wait=15.00ms" in text
        assert "-- timeline" in text
        assert "AllocationPaused" in text
        # An older dump's exemplars and trace ids are read, not rendered.
        assert "trace-9" not in text and "worst" not in text

    def test_clean_report_says_zero_wedged(self, dump_path):
        text = render(analyze(dump_path))
        assert "wedged containers: 0" in text


class TestDoctorCli:
    def test_cli_text_and_exit_codes(
        self, dump_path, wedged_journal, capsys
    ):
        from repro.cli import main

        assert main(["doctor", dump_path]) == 0
        assert "wedged containers: 0" in capsys.readouterr().out
        assert main(["doctor", dump_path, "--journal", wedged_journal]) == 1
        assert "wedged containers: 1" in capsys.readouterr().out

    def test_cli_json_report(self, dump_path, capsys):
        from repro.cli import main

        assert main(["doctor", dump_path, "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["meta"]["reason"] == "sigusr2"

    def test_cli_missing_dump_fails_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        missing = str(tmp_path / "nope.jsonl")
        assert main(["doctor", missing]) == 2
        assert "doctor failed" in capsys.readouterr().err
