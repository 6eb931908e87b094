"""Chrome trace-event export (``about://tracing`` / Perfetto).

A scheduler :class:`~repro.core.scheduler.events.EventLog` becomes
instant events plus pause→resume intervals, one row per container — this
is how a *simulated* schedule (virtual seconds) renders as a timeline.

The produced JSON follows the Trace Event Format's "JSON array" flavour
(the object flavour with ``traceEvents`` is also accepted by the viewer;
we emit the object form so metadata can ride along).  Timestamps are
microseconds, so virtual seconds are scaled by 1e6.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Sequence

__all__ = [
    "scheduler_events_to_chrome",
    "chrome_trace_document",
    "write_chrome_trace",
]

_US = 1e6  # seconds -> microseconds


def scheduler_events_to_chrome(
    events: Sequence[Any], *, pid: int = 2
) -> list[dict[str, Any]]:
    """Timeline of scheduler events: one tid per container.

    Pauses render as ``X`` intervals (matched to the following resume of
    the same container+pid, or to the container's close), everything else
    as instant events carrying its payload in ``args``.
    """
    out: list[dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": "scheduler events"},
        }
    ]
    tids: dict[str, int] = {}

    def tid_of(container_id: str) -> int:
        tid = tids.get(container_id)
        if tid is None:
            tid = len(tids) + 1
            tids[container_id] = tid
            out.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "args": {"name": container_id},
                }
            )
        return tid

    # Open pauses per (container, pid), FIFO — matches the scheduler's
    # strictly in-order resume guarantee.
    open_pauses: dict[str, list[dict[str, Any]]] = {}
    for event in events:
        kind = type(event).__name__
        container = event.container_id
        tid = tid_of(container)
        ts = event.time * _US
        if kind == "AllocationPaused":
            open_pauses.setdefault(container, []).append(
                {"start": event.time, "pid": event.pid, "size": event.size,
                 "api": event.api}
            )
            continue
        if kind == "AllocationResumed" and open_pauses.get(container):
            pause = open_pauses[container].pop(0)
            out.append(
                {
                    "name": f"paused {pause['api']}",
                    "cat": "pause",
                    "ph": "X",
                    "ts": pause["start"] * _US,
                    "dur": max(event.time - pause["start"], 0.0) * _US,
                    "pid": pid,
                    "tid": tid,
                    "args": {"pid": pause["pid"], "size": pause["size"],
                             "waited_s": event.waited},
                }
            )
            continue
        args = {
            f.name: getattr(event, f.name)
            for f in dataclasses.fields(event)
            if f.name not in ("time", "container_id")
        }
        out.append(
            {
                "name": kind,
                "cat": "scheduler",
                "ph": "i",
                "s": "t",
                "ts": ts,
                "pid": pid,
                "tid": tid,
                "args": args,
            }
        )
        if kind == "ContainerClosed":
            # Any pause still open fails at close; render it up to here.
            for pause in open_pauses.pop(container, []):
                out.append(
                    {
                        "name": f"paused {pause['api']} (failed)",
                        "cat": "pause",
                        "ph": "X",
                        "ts": pause["start"] * _US,
                        "dur": max(event.time - pause["start"], 0.0) * _US,
                        "pid": pid,
                        "tid": tid,
                        "args": {"pid": pause["pid"], "size": pause["size"]},
                    }
                )
    return out


def chrome_trace_document(
    *,
    scheduler_events: Sequence[Any] = (),
    metadata: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """The full ``about://tracing`` document (object flavour)."""
    events = scheduler_events_to_chrome(scheduler_events) if scheduler_events else []
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "metadata": metadata or {},
    }


def write_chrome_trace(
    path: str,
    *,
    scheduler_events: Sequence[Any] = (),
    metadata: dict[str, Any] | None = None,
) -> int:
    """Write the trace document to ``path``; returns the event count."""
    document = chrome_trace_document(
        scheduler_events=scheduler_events, metadata=metadata
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh)
        fh.write("\n")
    return len(document["traceEvents"])
