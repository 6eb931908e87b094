"""Smoke tests: every shipped example must run cleanly.

Examples are documentation that executes; a broken example is a broken
README.  Each is run in-process (fast, same interpreter) with stdout
captured and spot-checked for its headline output.
"""

import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(monkeypatch, capsys, name: str, argv: list[str] | None = None) -> str:
    monkeypatch.setattr(sys, "argv", [name, *(argv or [])])
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, monkeypatch, capsys):
        out = run_example(monkeypatch, capsys, "quickstart.py")
        assert "exit code: 0" in out
        assert "LD_PRELOAD" in out
        assert "ContainerClosed" in out

    def test_figure3_walkthrough(self, monkeypatch, capsys):
        out = run_example(monkeypatch, capsys, "figure3_walkthrough.py")
        assert "Fig. 3a" in out and "Fig. 3d" in out
        assert "C resumed" in out

    def test_multi_tenant_cloud(self, monkeypatch, capsys):
        out = run_example(
            monkeypatch, capsys, "multi_tenant_cloud.py", ["8", "11"]
        )
        assert "Policy comparison" in out
        assert "every container still completed" in out

    def test_deadlock_demo(self, monkeypatch, capsys):
        out = run_example(monkeypatch, capsys, "deadlock_demo.py")
        assert "CRASHED" in out or "DEADLOCKED" in out
        assert "completed successfully" in out

    def test_trace_replay(self, monkeypatch, capsys):
        out = run_example(monkeypatch, capsys, "trace_replay.py", ["FIFO"])
        assert "trace replay under FIFO" in out
        assert "failures 0" in out

    @pytest.mark.integration
    def test_live_sockets(self, monkeypatch, capsys):
        out = run_example(monkeypatch, capsys, "live_sockets.py")
        assert "resumed after blocking" in out
        assert "daemon stopped" in out
