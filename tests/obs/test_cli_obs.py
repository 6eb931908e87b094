"""CLI observability surfaces: `repro metrics`, `repro top`, `--chrome-trace`."""

import io
import json
from contextlib import redirect_stdout

import pytest

from repro import cli
from repro.core.scheduler.core import GpuMemoryScheduler
from repro.core.scheduler.daemon import SchedulerDaemon
from repro.core.scheduler.events import AllocationPaused
from repro.core.scheduler.policies import make_policy
from repro.experiments.multi import run_schedule
from repro.ipc.unix_socket import UnixSocketClient
from repro.units import MiB


def run_cli(argv) -> tuple[int, str]:
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


class TestObsUrl:
    def test_bare_host_port_gets_scheme_and_path(self):
        assert cli._obs_url("127.0.0.1:9360", "/metrics") == \
            "http://127.0.0.1:9360/metrics"

    def test_base_url_gets_path(self):
        assert cli._obs_url("http://h:1", "/top.json") == "http://h:1/top.json"

    def test_explicit_path_kept(self):
        assert cli._obs_url("http://h:1/custom", "/metrics") == "http://h:1/custom"


class TestChromeTraceFlag:
    def test_run_writes_loadable_trace(self, tmp_path):
        path = str(tmp_path / "trace.json")
        code, out = run_cli(
            ["run", "--policy", "BF", "--count", "8", "--seed", "1",
             "--chrome-trace", path]
        )
        assert code == 0
        assert f"trace events to {path}" in out
        doc = json.load(open(path))
        assert {"traceEvents", "metadata", "displayTimeUnit"} <= set(doc)
        assert doc["metadata"]["policy"] == "BF"
        # One pause interval per AllocationPaused of the same run, and the
        # timeline's only intervals are those pauses.
        paused = run_schedule("BF", 8, 1, capture_events=True).events
        paused = [e for e in paused if isinstance(e, AllocationPaused)]
        intervals = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert paused and len(intervals) == len(paused)
        assert {e["cat"] for e in intervals} == {"pause"}

    def test_events_are_captured_only_on_request(self):
        assert run_schedule("BF", 2, 2017).events == []

    def test_run_without_flag_writes_nothing(self, tmp_path):
        code, out = run_cli(["run", "--policy", "BF", "--count", "2"])
        assert code == 0 and "trace events" not in out


@pytest.mark.integration
class TestScrapeCommands:
    @pytest.fixture
    def daemon(self):
        scheduler = GpuMemoryScheduler(1024 * MiB, make_policy("FIFO"))
        daemon = SchedulerDaemon(scheduler, metrics_port=0).start()
        control = UnixSocketClient(daemon.control_path)
        control.call("register_container", container_id="cli-c1", limit=128 * MiB)
        yield daemon
        control.close()
        daemon.stop()

    def test_metrics_pretty_print(self, daemon):
        code, out = run_cli(["metrics", daemon.metrics_server.url])
        assert code == 0
        assert "convgpu_alloc_decision_seconds (histogram)" in out
        assert "_bucket" not in out  # buckets hidden by default

    def test_metrics_buckets_flag(self, daemon):
        code, out = run_cli(["metrics", daemon.metrics_server.url, "--buckets"])
        assert code == 0 and "_bucket" in out

    def test_metrics_raw_is_prometheus_text(self, daemon):
        code, out = run_cli(["metrics", daemon.metrics_server.url, "--raw"])
        assert code == 0
        assert "# TYPE convgpu_alloc_decision_seconds histogram" in out

    def test_top_renders_container_row(self, daemon):
        code, out = run_cli(
            ["top", daemon.metrics_server.url, "--iterations", "1"]
        )
        assert code == 0
        assert "cli-c1" in out
        assert "managed container" in out

    def test_unreachable_endpoint_fails_cleanly(self):
        code, _ = run_cli(["metrics", "127.0.0.1:1", "--timeout", "0.5"])
        assert code == 1
        code, _ = run_cli(["top", "127.0.0.1:1", "--timeout", "0.5",
                           "--iterations", "1"])
        assert code == 1
