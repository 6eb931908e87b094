"""Chrome trace-event export tests (`repro.obs.chrome`)."""

import json

from repro.core.scheduler.events import (
    AllocationGranted,
    AllocationPaused,
    AllocationResumed,
    ContainerClosed,
)
from repro.obs.chrome import (
    chrome_trace_document,
    scheduler_events_to_chrome,
    write_chrome_trace,
)
_PAUSE_RESUME = [
    AllocationPaused(time=0.0, container_id="c1", pid=1, size=8, api="cudaMalloc"),
    AllocationResumed(time=1.0, container_id="c1", pid=1, size=8, waited=1.0),
]


class TestSchedulerEventsToChrome:
    def test_pause_resume_becomes_interval(self):
        events = [
            AllocationPaused(time=1.0, container_id="c1", pid=7, size=64, api="cudaMalloc"),
            AllocationResumed(time=4.0, container_id="c1", pid=7, size=64, waited=3.0),
        ]
        out = scheduler_events_to_chrome(events)
        (interval,) = [e for e in out if e["ph"] == "X"]
        assert interval["name"] == "paused cudaMalloc"
        assert interval["ts"] == 1.0 * 1e6 and interval["dur"] == 3.0 * 1e6
        assert interval["args"]["waited_s"] == 3.0

    def test_open_pause_flushed_as_failed_at_close(self):
        events = [
            AllocationPaused(time=1.0, container_id="c1", pid=7, size=64, api="cudaMalloc"),
            ContainerClosed(time=5.0, container_id="c1", reclaimed=64, suspended_total=4.0),
        ]
        out = scheduler_events_to_chrome(events)
        (interval,) = [e for e in out if e["ph"] == "X"]
        assert interval["name"] == "paused cudaMalloc (failed)"
        assert interval["dur"] == 4.0 * 1e6

    def test_other_events_are_instants_with_payload(self):
        events = [
            AllocationGranted(time=2.0, container_id="c1", pid=7, size=64,
                              api="cudaMalloc"),
        ]
        out = scheduler_events_to_chrome(events)
        (instant,) = [e for e in out if e["ph"] == "i"]
        assert instant["name"] == "AllocationGranted"
        assert instant["args"]["size"] == 64
        assert "time" not in instant["args"] and "container_id" not in instant["args"]

    def test_one_row_per_container(self):
        events = [
            AllocationGranted(time=0.0, container_id="a", pid=1, size=1,
                              api="cudaMalloc"),
            AllocationGranted(time=1.0, container_id="b", pid=2, size=1,
                              api="cudaMalloc"),
        ]
        out = scheduler_events_to_chrome(events)
        instants = [e for e in out if e["ph"] == "i"]
        assert instants[0]["tid"] != instants[1]["tid"]
        thread_names = [e["args"]["name"] for e in out if e.get("name") == "thread_name"]
        assert thread_names == ["a", "b"]


class TestDocument:
    def test_document_carries_events_and_metadata(self):
        doc = chrome_trace_document(
            scheduler_events=_PAUSE_RESUME, metadata={"policy": "BF"}
        )
        assert doc["metadata"] == {"policy": "BF"}
        assert any(e.get("cat") == "pause" for e in doc["traceEvents"])

    def test_write_chrome_trace_loads_back(self, tmp_path):
        path = str(tmp_path / "trace.json")
        count = write_chrome_trace(path, scheduler_events=_PAUSE_RESUME)
        doc = json.load(open(path))
        assert len(doc["traceEvents"]) == count > 0
        assert doc["displayTimeUnit"] == "ms"
