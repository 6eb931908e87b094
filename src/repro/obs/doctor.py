"""Post-mortem correlation: flight dump × journal × metrics snapshot.

``repro doctor`` answers "what was the daemon doing when it died, and
why was it slow?" from artifacts that survive a SIGKILL:

- the **flight dump** (``repro.obs.recorder`` JSONL) — the last few
  thousand I/O, scheduler, journal and lifecycle events, plus the stage
  summaries and slow traces embedded as dump sections;
- the **journal** (optional) — the durable record of every scheduler
  decision, whose event timestamps share the wall clock with flight
  events so the two merge into one timeline;
- a **metrics snapshot** (optional ``/metrics.json`` capture) — used to
  cross-check stage totals against the live registry.

The analysis is a plain data structure (:func:`analyze`) so tests and
CI assert on fields; :func:`render` turns it into the operator report.
Wedged-container detection replays the journal through the same
:func:`~repro.core.scheduler.journal.restore` path crash recovery uses:
a container that still holds *pending* (paused) allocation requests at
the end of the journal was wedged at the moment of death.
"""

from __future__ import annotations

import json
from typing import Any

from repro.obs.recorder import read_dump

__all__ = ["analyze", "render", "load_metrics"]

#: Stages reported in hot-path order (mirrors repro.obs.stages.STAGES).
_STAGE_ORDER = (
    "recv",
    "frame",
    "decode",
    "dispatch",
    "lock",
    "transition",
    "fsync_wait",
    "encode",
    "send",
)


def load_metrics(path: str) -> dict[str, Any]:
    """Load a ``/metrics.json`` capture (the optional third input)."""
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def _quantile(buckets: list[list[float]], count: int, q: float) -> float | None:
    """Upper-bound estimate of quantile ``q`` from cumulative buckets."""
    if not count:
        return None
    threshold = q * count
    for le, cumulative in buckets:
        if cumulative >= threshold:
            return le
    return None  # beyond the last finite bucket (+Inf overflow)


def _stage_rows(sections: list[dict[str, Any]]) -> list[dict[str, Any]]:
    by_stage = {s["stage"]: s for s in sections}
    rows: list[dict[str, Any]] = []
    for stage in _STAGE_ORDER:
        summary = by_stage.get(stage)
        if summary is None:
            continue
        count = summary["count"]
        buckets = summary["buckets"]
        row: dict[str, Any] = {
            "stage": stage,
            "count": count,
            "sum": summary["sum"],
            "mean": summary["sum"] / count if count else 0.0,
            "p50": _quantile(buckets, count, 0.50),
            "p99": _quantile(buckets, count, 0.99),
        }
        rows.append(row)
    return rows


def _journal_entries(journal_path: str) -> list[dict[str, Any]]:
    from repro.core.scheduler.journal import read_journal

    _meta, records, _torn = read_journal(journal_path)
    entries: list[dict[str, Any]] = []
    for record in records:
        if record.get("kind") != "event":
            continue
        entry = {
            "ts": record["time"],
            "source": "journal",
            "event": record["event"],
            "container": record.get("container_id", ""),
        }
        for key in ("pid", "size", "waited", "reason"):
            if key in record:
                entry[key] = record[key]
        entries.append(entry)
    return entries


def _wedged_containers(journal_path: str) -> list[dict[str, Any]]:
    from repro.core.scheduler.journal import restore

    scheduler = restore(journal_path)
    wedged: list[dict[str, Any]] = []
    for record in scheduler.containers():
        if record.pending:
            wedged.append(
                {
                    "container": record.container_id,
                    "pending": len(record.pending),
                    "requests": [
                        {"pid": p.pid, "size": p.size} for p in record.pending
                    ],
                }
            )
    return wedged


def analyze(
    dump_path: str,
    *,
    journal_path: str | None = None,
    metrics_path: str | None = None,
    top: int = 10,
) -> dict[str, Any]:
    """Correlate the post-mortem inputs into one JSON-able report."""
    meta, lines = read_dump(dump_path)
    flight = [dict(line, source="flight") for line in lines
              if line.get("kind") == "flight_event"]
    stage_sections = [line for line in lines if line.get("kind") == "stage_summary"]
    slow = [line for line in lines if line.get("kind") == "slow_trace"]

    timeline = list(flight)
    journal_events = 0
    wedged: list[dict[str, Any]] = []
    if journal_path is not None:
        entries = _journal_entries(journal_path)
        journal_events = len(entries)
        timeline.extend(entries)
        wedged = _wedged_containers(journal_path)
    timeline.sort(key=lambda e: e["ts"])

    event_counts: dict[str, int] = {}
    for entry in timeline:
        name = entry["event"]
        event_counts[name] = event_counts.get(name, 0) + 1

    slow.sort(key=lambda s: s["total"], reverse=True)
    report: dict[str, Any] = {
        "dump": dump_path,
        "meta": meta,
        "timeline": timeline,
        "event_counts": dict(sorted(event_counts.items())),
        "flight_events": len(flight),
        "journal_events": journal_events,
        "stages": _stage_rows(stage_sections),
        "slow_traces": slow[:top],
        "wedged": wedged,
        "frame_errors": event_counts.get("io.frame_error", 0),
        "stalls": event_counts.get("daemon.watchdog_stall", 0),
    }
    if metrics_path is not None:
        metrics = load_metrics(metrics_path)
        family = metrics.get("convgpu_stage_seconds", {})
        report["metrics_stage_samples"] = (
            family.get("samples", []) if isinstance(family, dict) else []
        )
    return report


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _fmt_seconds(value: float | None) -> str:
    if value is None:
        return "-"
    if value >= 1.0:
        return f"{value:.2f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.2f}ms"
    return f"{value * 1e6:.0f}µs"


def render(report: dict[str, Any], *, tail: int = 40) -> str:
    """The operator-facing text report (what ``repro doctor`` prints)."""
    meta = report["meta"]
    out: list[str] = []
    out.append("== repro doctor ==")
    out.append(
        f"dump: {report['dump']} (reason={meta.get('reason', '?')}, "
        f"pid={meta.get('pid', '?')}, version={meta.get('version', '?')})"
    )
    out.append(
        f"events: {report['flight_events']} flight + "
        f"{report['journal_events']} journal "
        f"(overwritten={meta.get('overwritten', 0)}, "
        f"unknown_tags={meta.get('unknown_tags', 0)})"
    )
    out.append(f"frame errors: {report['frame_errors']}")
    out.append(f"watchdog stalls: {report['stalls']}")
    out.append(f"wedged containers: {len(report['wedged'])}")
    for entry in report["wedged"]:
        requests = ", ".join(
            f"pid={r['pid']} size={r['size']}" for r in entry["requests"]
        )
        out.append(
            f"  {entry['container']}: {entry['pending']} pending ({requests})"
        )

    if report["stages"]:
        out.append("")
        out.append("-- stage latency (sampled) --")
        out.append(
            f"{'stage':<12}{'count':>8}{'mean':>10}{'p50':>10}{'p99':>10}"
        )
        for row in report["stages"]:
            out.append(
                f"{row['stage']:<12}{row['count']:>8}"
                f"{_fmt_seconds(row['mean']):>10}"
                f"{_fmt_seconds(row['p50']):>10}"
                f"{_fmt_seconds(row['p99']):>10}"
            )

    if report["slow_traces"]:
        out.append("")
        out.append("-- slowest traces --")
        for entry in report["slow_traces"]:
            stages = entry.get("stages", {})
            breakdown = " ".join(
                f"{name}={_fmt_seconds(seconds)}"
                for name, seconds in sorted(
                    stages.items(), key=lambda kv: kv[1], reverse=True
                )
            )
            out.append(
                f"  {_fmt_seconds(entry['total'])} {entry.get('type', '?')} "
                f"container={entry.get('container') or '-'} {breakdown}"
            )

    timeline = report["timeline"]
    if timeline:
        out.append("")
        out.append(f"-- timeline (last {min(tail, len(timeline))} of "
                   f"{len(timeline)}) --")
        for entry in timeline[-tail:]:
            payload = {
                k: v
                for k, v in entry.items()
                if k not in ("ts", "kind", "source", "event", "thread")
            }
            detail = " ".join(f"{k}={v}" for k, v in sorted(payload.items()))
            out.append(
                f"  {entry['ts']:.6f} [{entry['source']:>7}] "
                f"{entry['event']} {detail}".rstrip()
            )
    return "\n".join(out) + "\n"
