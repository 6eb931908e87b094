"""Command-line interface: ``python -m repro <command>``.

Regenerates the paper's evaluation from a shell, the way a user of the
original system would drive it:

- ``fig4`` / ``fig5`` / ``fig6``  — single-container experiments;
- ``run``      — one multi-container schedule, with the per-container table;
- ``sweep``    — the full Fig. 7/8 grid (Tables IV and V);
- ``deadlock`` — the §I failure scenarios with and without ConVGPU;
- ``crash``    — the daemon-crash fault injection (journal recovery);
- ``export``   — write all results as JSON/CSV into a directory;
- ``daemon``   — run the live scheduler daemon in the foreground
  (``--journal-path`` for crash safety, ``--recover`` to restart from a
  crashed daemon's journal, ``--metrics-port`` for the Prometheus
  endpoint, ``--log-level``/``--log-json`` for structured logging);
- ``recover``  — inspect a journal offline: record counts, the restored
  state table, and an invariant check;
- ``compact``  — rewrite a journal offline down to its newest snapshot
  plus the event tail (fsynced sidecar + atomic rename; the live daemon
  does the same in the background with ``--compact-at-bytes``);
- ``metrics``  — scrape a daemon's ``/metrics`` endpoint and pretty-print;
- ``top``      — live per-container table from a daemon's ``/top.json``
  (plus sampled stage-latency and batch-shape tables from
  ``/metrics.json``);
- ``dump``     — capture a flight-recorder dump from a live daemon
  (HTTP ``/flight.jsonl``) or signal one by pid (SIGUSR2);
- ``doctor``   — post-mortem correlation of a flight dump, a journal and
  an optional metrics snapshot (timeline, wedged containers, stage
  breakdown, slowest traces).
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
import time

from repro.obs.log import LEVELS, configure_logging
from repro.tables import format_table

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ConVGPU reproduction (CLUSTER 2017) — experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig4 = sub.add_parser("fig4", help="API response time (Fig. 4)")
    fig4.add_argument("--repeats", type=int, default=10)
    fig4.add_argument("--mode", choices=("sim", "live"), default="sim")

    fig5 = sub.add_parser("fig5", help="container creation time (Fig. 5)")
    fig5.add_argument("--repeats", type=int, default=10)
    fig5.add_argument("--mode", choices=("sim", "live"), default="sim")

    fig6 = sub.add_parser("fig6", help="MNIST trainer runtime (Fig. 6)")
    fig6.add_argument("--steps", type=int, default=20_000)

    run = sub.add_parser("run", help="one multi-container schedule")
    run.add_argument("--policy", default="BF")
    run.add_argument("--count", type=int, default=16)
    run.add_argument("--seed", type=int, default=None)
    run.add_argument(
        "--chrome-trace", default=None, metavar="PATH",
        help="write the run as a Chrome trace-event file (about://tracing)",
    )

    sweep_cmd = sub.add_parser("sweep", help="the full Fig. 7/8 grid")
    sweep_cmd.add_argument("--repeats", type=int, default=6)
    sweep_cmd.add_argument("--seed", type=int, default=None)
    sweep_cmd.add_argument(
        "--counts", default=None,
        help="comma-separated container counts (default: the paper's, 4-38)",
    )

    sub.add_parser("deadlock", help="the §I failure scenarios")

    crash = sub.add_parser("crash", help="daemon-crash fault injection")
    crash.add_argument("--policy", default="FIFO")

    export_cmd = sub.add_parser("export", help="write JSON/CSV results")
    export_cmd.add_argument("--out", default="results")
    export_cmd.add_argument("--repeats", type=int, default=6)
    export_cmd.add_argument("--seed", type=int, default=None)

    daemon_cmd = sub.add_parser(
        "daemon", help="run the live scheduler daemon (foreground)"
    )
    daemon_cmd.add_argument(
        "--journal-path", default=None,
        help="write-ahead journal file (enables crash recovery)",
    )
    daemon_cmd.add_argument(
        "--recover", action="store_true",
        help="restore state from --journal-path instead of starting fresh",
    )
    daemon_cmd.add_argument(
        "--compact-at-bytes", type=int, default=None, metavar="BYTES",
        help="background-compact the journal (meta + newest snapshot + "
             "tail, swapped in by atomic rename) whenever it outgrows "
             "BYTES; bounds file size and restart cost (default: off)",
    )
    daemon_cmd.add_argument("--base-dir", default=None,
                            help="socket directory (temp dir when omitted)")
    daemon_cmd.add_argument(
        "--codec", choices=("auto", "json"), default="auto",
        help="wire codec: auto (default) negotiates binary per connection "
             "and falls back to JSON for old peers; json pins the "
             "trace-friendly debug mode (docs/PROTOCOL.md)",
    )
    daemon_cmd.add_argument("--total-memory", type=int, default=4096,
                            help="GPU pool size in MiB")
    daemon_cmd.add_argument("--policy", default="FIFO")
    daemon_cmd.add_argument(
        "--policy-plugin", action="append", default=[], metavar="MODULE",
        dest="policy_plugins",
        help="import MODULE before resolving --policy; the module registers "
             "out-of-tree policies via repro.register_policy (repeatable)",
    )
    daemon_cmd.add_argument(
        "--heartbeat-timeout", type=float, default=None,
        help="reap containers silent for this many seconds (off by default)",
    )
    daemon_cmd.add_argument("--reap-interval", type=float, default=1.0)
    daemon_cmd.add_argument(
        "--ready-file", default=None,
        help="write a JSON line with the serving endpoints once listening",
    )
    daemon_cmd.add_argument(
        "--metrics-port", type=int, default=0, metavar="PORT",
        help="observability HTTP port on 127.0.0.1 (0 = ephemeral; serves "
             "/metrics, /metrics.json, /top.json, /flight.jsonl, /healthz)",
    )
    daemon_cmd.add_argument(
        "--flight-dump", default=None, metavar="PATH",
        help="flight-recorder dump file (default: <base-dir>/flight.jsonl); "
             "written on SIGUSR2, on a crashed daemon thread, and on an "
             "I/O-loop watchdog stall",
    )
    daemon_cmd.add_argument(
        "--watchdog-interval", type=float, default=5.0, metavar="SECONDS",
        help="I/O-loop stall threshold for the flight-dump watchdog "
             "(default: 5)",
    )
    daemon_cmd.add_argument(
        "--no-metrics", action="store_true",
        help="disable the observability HTTP endpoint entirely",
    )
    daemon_cmd.add_argument(
        "--log-level", choices=tuple(LEVELS), default="info",
        help="structured-log threshold (default: info)",
    )
    daemon_cmd.add_argument(
        "--log-json", dest="log_json", action="store_true", default=True,
        help="emit logs as JSON lines (default)",
    )
    daemon_cmd.add_argument(
        "--no-log-json", dest="log_json", action="store_false",
        help="emit human-readable one-line logs instead of JSON",
    )

    recover_cmd = sub.add_parser(
        "recover", help="inspect a scheduler journal offline"
    )
    recover_cmd.add_argument("journal", help="path to the journal file")
    recover_cmd.add_argument(
        "--no-verify", action="store_true",
        help="skip the accounting-invariant check on the restored state",
    )
    recover_cmd.add_argument(
        "--policy-plugin", action="append", default=[], metavar="MODULE",
        dest="policy_plugins",
        help="import MODULE before restoring (a journal written under a "
             "plug-in policy needs it registered to rebuild the scheduler)",
    )

    compact_cmd = sub.add_parser(
        "compact", help="compact a journal offline (newest snapshot + tail)"
    )
    compact_cmd.add_argument("journal", help="path to the journal file")
    compact_cmd.add_argument(
        "--policy-plugin", action="append", default=[], metavar="MODULE",
        dest="policy_plugins",
        help="import MODULE first (a journal with no snapshot yet is "
             "replayed to synthesize one, which needs its policy registered)",
    )

    metrics_cmd = sub.add_parser(
        "metrics", help="scrape a daemon's /metrics endpoint and pretty-print"
    )
    metrics_cmd.add_argument(
        "url",
        help="daemon observability URL (host:port or http://host:port[/metrics])",
    )
    metrics_cmd.add_argument(
        "--raw", action="store_true",
        help="print the Prometheus text verbatim instead of pretty-printing",
    )
    metrics_cmd.add_argument(
        "--buckets", action="store_true",
        help="include per-bucket histogram rows (hidden by default)",
    )
    metrics_cmd.add_argument("--timeout", type=float, default=5.0)

    top_cmd = sub.add_parser(
        "top", help="live per-container table from a daemon's /top.json"
    )
    top_cmd.add_argument(
        "url",
        help="daemon observability URL (host:port or http://host:port[/top.json])",
    )
    top_cmd.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between refreshes (default: 2)",
    )
    top_cmd.add_argument(
        "--iterations", type=int, default=0,
        help="number of refreshes before exiting (0 = until interrupted)",
    )
    top_cmd.add_argument("--timeout", type=float, default=5.0)

    dump_cmd = sub.add_parser(
        "dump", help="capture a flight-recorder dump from a live daemon"
    )
    dump_cmd.add_argument(
        "target",
        help="daemon observability URL (host:port) to fetch /flight.jsonl "
             "from, or a daemon pid to signal with SIGUSR2",
    )
    dump_cmd.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the fetched dump here (default: stdout; ignored for a "
             "pid target, which writes to the daemon's --flight-dump path)",
    )
    dump_cmd.add_argument("--timeout", type=float, default=5.0)

    doctor_cmd = sub.add_parser(
        "doctor", help="post-mortem report from a flight dump (+ journal)"
    )
    doctor_cmd.add_argument("dump", help="flight-recorder dump file (JSONL)")
    doctor_cmd.add_argument(
        "--journal", default=None, metavar="PATH",
        help="scheduler journal to merge into the timeline and replay for "
             "wedged-container detection",
    )
    doctor_cmd.add_argument(
        "--metrics", default=None, metavar="PATH",
        help="a saved /metrics.json snapshot to cross-check stage totals",
    )
    doctor_cmd.add_argument(
        "--top", type=int, default=10, metavar="K",
        help="slowest traces to report (default: 10)",
    )
    doctor_cmd.add_argument(
        "--tail", type=int, default=40, metavar="N",
        help="timeline entries to print (default: 40)",
    )
    doctor_cmd.add_argument(
        "--json", action="store_true",
        help="emit the full structured report as JSON instead of text",
    )

    lint_cmd = sub.add_parser(
        "lint", help="reprolint: AST invariant checks (DESIGN.md §12)"
    )
    lint_cmd.add_argument(
        "paths", nargs="*", default=["src"],
        help="files/directories to analyze (default: src)",
    )
    lint_cmd.add_argument(
        "--format", choices=("text", "sarif"), default="text", dest="fmt",
    )

    san_cmd = sub.add_parser(
        "san",
        help="reprosan: run pytest under the lockset race sanitizer "
             "(DESIGN.md §16)",
    )
    san_cmd.add_argument(
        "pytest_args", nargs="*", default=["tests/core"],
        help="arguments forwarded to pytest (default: tests/core)",
    )
    san_cmd.add_argument(
        "--format", choices=("text", "sarif"), default="text", dest="fmt",
    )
    return parser


# The figure commands import the simulator and the experiment drivers
# themselves: the serving commands (daemon, recover, compact, ...) share
# this module and must not load them (DESIGN.md §11, "the serving closure").


def _seed(args) -> int:
    """``--seed``, or the root seed of the published tables."""
    from repro.experiments.multi import DEFAULT_SEED

    return DEFAULT_SEED if args.seed is None else args.seed


def _cmd_fig4(args) -> int:
    from repro.experiments.report import format_fig4
    from repro.experiments.single import api_response_experiment

    result = api_response_experiment(repeats=args.repeats, mode=args.mode)
    print(format_fig4(result.with_convgpu, result.without_convgpu))
    return 0


def _cmd_fig5(args) -> int:
    from repro.experiments.single import creation_time_experiment

    result = creation_time_experiment(repeats=args.repeats, mode=args.mode)
    print(
        format_table(
            ("series", "creation time (s)"),
            [
                ("without ConVGPU", f"{result.without_convgpu:.4f}"),
                ("with ConVGPU", f"{result.with_convgpu:.4f}"),
                ("overhead", f"{result.overhead:.4f} ({result.overhead_percent:.1f}%)"),
            ],
            title="Fig. 5 — creation time of the container",
        )
    )
    return 0


def _cmd_fig6(args) -> int:
    from repro.experiments.single import mnist_runtime_experiment
    from repro.workloads.mnist import MnistConfig

    result = mnist_runtime_experiment(MnistConfig().scaled(args.steps))
    print(
        format_table(
            ("series", "runtime (s)"),
            [
                ("without ConVGPU", f"{result.without_convgpu:.2f}"),
                ("with ConVGPU", f"{result.with_convgpu:.2f}"),
                ("overhead", f"{result.overhead_percent:.2f}%"),
            ],
            title="Fig. 6 — overall runtime of TensorFlow MNIST program",
        )
    )
    return 0


def _cmd_run(args) -> int:
    from repro.experiments.multi import run_schedule

    capture = args.chrome_trace is not None
    result = run_schedule(args.policy, args.count, _seed(args), capture_events=capture)
    if capture:
        from repro.obs.chrome import write_chrome_trace

        written = write_chrome_trace(
            args.chrome_trace,
            scheduler_events=result.events,
            metadata={
                "policy": args.policy,
                "containers": result.count,
                "seed": result.seed,
            },
        )
        print(f"wrote {written} trace events to {args.chrome_trace}")
    print(
        format_table(
            ("container", "type", "submitted", "finished", "suspended (s)", "exit"),
            [
                (
                    o.name,
                    o.type_name,
                    f"{o.submitted_at:.0f}s",
                    f"{o.finished_at:.1f}s",
                    f"{o.suspended:.1f}",
                    str(o.exit_code),
                )
                for o in result.outcomes
            ],
            title=(
                f"{args.policy}: {result.count} containers, seed {result.seed} — "
                f"finished {result.finished_time:.1f}s, "
                f"avg suspended {result.avg_suspended:.1f}s, "
                f"failures {result.failures}"
            ),
        )
    )
    return 0 if result.failures == 0 else 1


def _cmd_sweep(args) -> int:
    from repro.experiments.multi import SweepGridError, sweep
    from repro.experiments.report import ascii_series_plot, format_policy_table
    from repro.workloads.arrivals import PAPER_CONTAINER_COUNTS

    counts = (
        PAPER_CONTAINER_COUNTS if args.counts is None
        else tuple(int(token) for token in args.counts.split(","))
    )
    try:
        result = sweep(counts=counts, repeats=args.repeats, seed=_seed(args))
    except SweepGridError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    print(
        format_policy_table(
            result.finished, result.counts,
            title="Table IV — finished time (s)",
        )
    )
    print()
    print(
        format_policy_table(
            result.suspended, result.counts,
            title="Table V — average suspended time (s)",
        )
    )
    print()
    print(
        ascii_series_plot(
            {p: result.finished_row(p) for p in result.policies},
            list(result.counts),
            title="Fig. 7 — finished time",
        )
    )
    return 0


def _cmd_deadlock(args) -> int:
    from repro.experiments.failure import deadlock_experiment, overcommit_experiment

    for label, experiment in (
        ("over-commit", overcommit_experiment),
        ("deadlock", deadlock_experiment),
    ):
        for managed in (False, True):
            outcome = experiment(managed)
            mode = "with ConVGPU" if managed else "without ConVGPU"
            print(
                f"{label:11s} {mode:16s} exits={outcome.exit_codes} "
                f"deadlocked={outcome.deadlocked} wall={outcome.wall_time:.1f}s"
            )
    return 0


def _cmd_crash(args) -> int:
    from repro.experiments.failure import daemon_crash_experiment

    outcome = daemon_crash_experiment(policy=args.policy)
    print(
        format_table(
            ("check", "result"),
            [
                ("state identical after recovery", str(outcome.state_identical)),
                ("wrapper reattached", str(outcome.reattached)),
                ("orphaned request adopted", str(outcome.adopted)),
                ("paused allocation resumed", str(outcome.resumed)),
                ("reconnect attempts", str(outcome.reconnect_attempts)),
                ("events journaled at kill", str(outcome.journaled_events)),
            ],
            title=f"daemon-crash fault injection ({args.policy})",
        )
    )
    survived = (
        outcome.state_identical
        and outcome.reattached
        and outcome.adopted
        and outcome.resumed
    )
    return 0 if survived else 1


def _load_policy_plugins(modules) -> None:
    """Import each plug-in module; importing is registration (the module
    calls ``repro.register_policy`` at top level)."""
    import importlib

    from repro.core.scheduler.policies import POLICIES

    for name in modules:
        before = set(POLICIES)
        importlib.import_module(name)
        added = sorted(set(POLICIES) - before)
        if added:
            print(f"policy plugin {name}: registered {', '.join(added)}")


def _cmd_daemon(args) -> int:
    from repro.core.scheduler import (
        GpuMemoryScheduler,
        HeartbeatMonitor,
        SchedulerDaemon,
        SchedulerJournal,
        make_policy,
    )
    from repro.core.scheduler.daemon import require_positive
    from repro.errors import SchedulerError
    from repro.units import MiB

    try:
        require_positive({
            "--heartbeat-timeout": args.heartbeat_timeout,
            "--reap-interval": args.reap_interval,
            "--watchdog-interval": args.watchdog_interval,
        })
    except SchedulerError as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.recover and args.journal_path is None:
        print("--recover requires --journal-path", file=sys.stderr)
        return 2
    configure_logging(level=args.log_level, json_mode=args.log_json)
    _load_policy_plugins(args.policy_plugins)
    monitor = (
        HeartbeatMonitor(timeout=args.heartbeat_timeout)
        if args.heartbeat_timeout is not None
        else None
    )
    common = {
        "base_dir": args.base_dir,
        "codec": args.codec,
        "monitor": monitor,
        "reap_interval": args.reap_interval,
        "metrics_port": None if args.no_metrics else args.metrics_port,
        "flight_dump": args.flight_dump,
        "watchdog_interval": args.watchdog_interval,
    }
    # Wall clock, not monotonic: journaled timestamps must stay comparable
    # across a restart (suspension accounting spans the crash).
    if args.recover:
        daemon = SchedulerDaemon.recover(
            args.journal_path,
            clock=time.time,
            compact_at_bytes=args.compact_at_bytes,
            **common,
        )
    else:
        scheduler = GpuMemoryScheduler(
            args.total_memory * MiB, make_policy(args.policy), clock=time.time
        )
        journal = None
        if args.journal_path is not None:
            journal = SchedulerJournal(
                args.journal_path, compact_at_bytes=args.compact_at_bytes
            )
            journal.attach(scheduler)
        daemon = SchedulerDaemon(scheduler, journal=journal, **common)
    daemon.start()

    # Post-mortem hooks: SIGUSR2 dumps the flight recorder on demand, and
    # an uncaught exception on any daemon thread dumps before the thread
    # dies — both land at the same path `repro doctor` reads.
    flight_path = args.flight_dump or os.path.join(daemon.base_dir, "flight.jsonl")
    signal.signal(signal.SIGUSR2, lambda *_: daemon.dump_flight("sigusr2"))
    previous_excepthook = threading.excepthook

    def _crash_hook(hook_args) -> None:
        try:
            daemon.dump_flight("crash")
        except OSError:
            pass
        previous_excepthook(hook_args)

    threading.excepthook = _crash_hook

    endpoints = {
        "pid": os.getpid(),
        "codec": args.codec,
        "base_dir": daemon.base_dir,
        "control": daemon.control_path,
        "flight_dump": flight_path,
    }
    if daemon.metrics_server is not None:
        endpoints["metrics"] = daemon.metrics_server.url + "/metrics"
    if args.ready_file is not None:
        # Write-then-rename so a polling reader never sees a partial file.
        staging = args.ready_file + ".tmp"
        with open(staging, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(endpoints) + "\n")
        os.replace(staging, args.ready_file)
    print(f"daemon serving: {json.dumps(endpoints)}", flush=True)

    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: stop.set())
    stop.wait()
    daemon.stop()
    return 0


def _cmd_recover(args) -> int:
    from repro.core.scheduler import format_snapshot, inspect_journal, snapshot
    from repro.errors import JournalError

    _load_policy_plugins(args.policy_plugins)
    try:
        summary, scheduler = inspect_journal(args.journal)
    except JournalError as exc:
        # Missing, unreadable, or a directory: one line, not a traceback.
        print(exc, file=sys.stderr)
        return 1
    meta = summary["meta"] or {}
    print(
        format_table(
            ("field", "value"),
            [
                ("journal", summary["path"]),
                ("policy", str(meta.get("policy"))),
                ("total memory (MiB)", str((meta.get("total_memory") or 0) // (1 << 20))),
                ("events", str(summary["events"])),
                ("snapshots", str(summary["snapshots"])),
                ("events replayed", str(summary["events_replayed"])),
                ("torn lines dropped", str(summary["torn_lines"])),
            ],
            title="journal summary",
        )
    )
    for name, count in summary["event_counts"].items():
        print(f"  {name:24s} {count}")
    if scheduler is None:
        # A terminated-but-unparseable line is real corruption, not a torn
        # write; the counts above stop at that line.
        print(f"\ncorruption detected: {summary['corrupt']}", file=sys.stderr)
        print("restore aborted; repair or truncate the journal first",
              file=sys.stderr)
        return 1
    print()
    print(format_snapshot(snapshot(scheduler)))
    if not args.no_verify:
        scheduler.check_invariants()
        print("\ninvariants: OK")
    return 0


def _cmd_compact(args) -> int:
    from repro.core.scheduler import compact_journal
    from repro.errors import JournalError

    _load_policy_plugins(args.policy_plugins)
    try:
        stats = compact_journal(args.journal)
    except JournalError as exc:
        print(f"compaction failed (journal untouched): {exc}", file=sys.stderr)
        return 1
    print(
        format_table(
            ("field", "value"),
            [
                ("journal", stats["path"]),
                ("bytes before", str(stats["bytes_before"])),
                ("bytes after", str(stats["bytes_after"])),
                ("events kept", str(stats["events_kept"])),
                ("events dropped", str(stats["events_dropped"])),
                ("snapshots dropped", str(stats["snapshots_dropped"])),
                ("torn lines dropped", str(stats["torn_dropped"])),
            ],
            title="journal compaction",
        )
    )
    return 0


def _obs_url(url: str, path: str) -> str:
    """Normalize ``host:port``/base URLs to a full observability endpoint."""
    if "://" not in url:
        url = "http://" + url
    scheme, _, rest = url.partition("://")
    host, slash, existing = rest.partition("/")
    if slash and existing:
        return url  # caller gave an explicit path; trust it
    return f"{scheme}://{host}{path}"


def _http_get(url: str, timeout: float) -> str:
    import urllib.request

    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.read().decode("utf-8")


def _cmd_metrics(args) -> int:
    from repro.obs.exporters import parse_prometheus

    url = _obs_url(args.url, "/metrics")
    try:
        text = _http_get(url, args.timeout)
    except OSError as exc:
        print(f"scrape of {url} failed: {exc}", file=sys.stderr)
        return 1
    if args.raw:
        print(text, end="")
        return 0
    families = parse_prometheus(text)
    for name in sorted(families):
        family = families[name]
        header = f"{name} ({family['type']})"
        if family["help"]:
            header += f" — {family['help']}"
        print(header)
        for key in sorted(family["samples"]):
            if key.startswith("_bucket") and not args.buckets:
                continue
            value = family["samples"][key]
            shown = int(value) if float(value).is_integer() else value
            print(f"  {key or '(no labels)'} = {shown}")
    return 0


def _render_top(rows: list) -> str:
    from repro.units import format_size

    return format_table(
        ("container", "limit", "reserved", "used", "inflight",
         "pending", "pauses", "suspended (s)"),
        [
            (
                str(row.get("container", "?")),
                format_size(row.get("limit", 0)),
                format_size(row.get("reserved", 0)),
                format_size(row.get("used", 0)),
                format_size(row.get("inflight", 0)),
                str(row.get("pending", 0)),
                str(row.get("pauses", 0)),
                f"{row.get('suspended_s', 0.0):.1f}",
            )
            for row in rows
        ],
        title=f"{len(rows)} managed container(s)",
    )


def _render_stage_tables(metrics: dict) -> str:
    """Stage-latency + batch-shape tables from a ``/metrics.json`` payload."""
    sections: list[str] = []
    stage_family = metrics.get("convgpu_stage_seconds", {})
    rows = []
    for entry in stage_family.get("samples", []):
        count = entry.get("count", 0)
        if not count:
            continue
        mean = entry.get("sum", 0.0) / count
        rows.append((entry.get("stage", "?"), str(count), f"{mean * 1e6:.1f}"))
    if rows:
        sections.append(
            format_table(
                ("stage", "samples", "mean (µs)"),
                rows,
                title="stage latency (sampled)",
            )
        )
    batch_rows = []
    for name, label in (
        ("convgpu_ipc_batch_depth", "batch depth"),
        ("convgpu_ipc_coalesced_reply_bytes", "coalesced reply bytes"),
    ):
        for entry in metrics.get(name, {}).get("samples", []):
            count = entry.get("count", 0)
            if not count:
                continue
            batch_rows.append(
                (
                    label,
                    entry.get("transport", "?"),
                    str(count),
                    f"{entry.get('sum', 0.0) / count:.1f}",
                )
            )
    if batch_rows:
        sections.append(
            format_table(
                ("histogram", "transport", "observations", "mean"),
                batch_rows,
                title="batch shape",
            )
        )
    return "\n".join(sections)


def _cmd_top(args) -> int:
    url = _obs_url(args.url, "/top.json")
    metrics_url = _obs_url(args.url, "/metrics.json")
    refreshes = 0
    try:
        while True:
            try:
                rows = json.loads(_http_get(url, args.timeout))
            except OSError as exc:
                print(f"poll of {url} failed: {exc}", file=sys.stderr)
                return 1
            print(_render_top(rows), flush=True)
            try:
                metrics = json.loads(_http_get(metrics_url, args.timeout))
            except (OSError, ValueError):
                metrics = {}  # older daemon without /metrics.json: table only
            tables = _render_stage_tables(metrics)
            if tables:
                print(tables, flush=True)
            refreshes += 1
            if args.iterations and refreshes >= args.iterations:
                return 0
            time.sleep(args.interval)
            print()
    except KeyboardInterrupt:
        return 0


def _cmd_dump(args) -> int:
    if args.target.isdigit():
        # A pid: ask the daemon to dump locally (its SIGUSR2 handler writes
        # to the path announced in its ready file / startup line).
        try:
            os.kill(int(args.target), signal.SIGUSR2)
        except (OSError, ProcessLookupError) as exc:
            print(f"signal to pid {args.target} failed: {exc}", file=sys.stderr)
            return 1
        print(f"sent SIGUSR2 to {args.target}; the daemon writes its "
              f"--flight-dump path")
        return 0
    url = _obs_url(args.target, "/flight.jsonl")
    try:
        text = _http_get(url, args.timeout)
    except OSError as exc:
        print(f"fetch of {url} failed: {exc}", file=sys.stderr)
        return 1
    if args.out is None:
        print(text, end="")
        return 0
    staging = args.out + ".tmp"
    with open(staging, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(staging, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_doctor(args) -> int:
    from repro.obs.doctor import analyze, render

    try:
        report = analyze(
            args.dump,
            journal_path=args.journal,
            metrics_path=args.metrics,
            top=args.top,
        )
    except (OSError, ValueError) as exc:
        print(f"doctor failed: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True, default=repr))
    else:
        print(render(report, tail=args.tail), end="")
    return 1 if report["wedged"] else 0


def _cmd_export(args) -> int:
    from repro.experiments import export as export_mod
    from repro.experiments.multi import SweepGridError, run_schedule, sweep
    from repro.experiments.single import (
        api_response_experiment,
        creation_time_experiment,
        mnist_runtime_experiment,
    )

    seed = _seed(args)
    try:
        sweep_result = sweep(repeats=args.repeats, seed=seed)
    except SweepGridError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    os.makedirs(args.out, exist_ok=True)

    def write(name: str, text: str) -> None:
        path = os.path.join(args.out, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {path}")

    write("sweep.json", export_mod.sweep_to_json(sweep_result))
    write("table4_finished.csv", export_mod.sweep_to_csv(sweep_result, "finished"))
    write("table5_suspended.csv", export_mod.sweep_to_csv(sweep_result, "suspended"))
    write("sweep_p95_suspended.csv", export_mod.sweep_to_csv(sweep_result, "p95_suspended"))
    write("sweep_slowdown.csv", export_mod.sweep_to_csv(sweep_result, "slowdown"))
    write("sweep_fairness.csv", export_mod.sweep_to_csv(sweep_result, "fairness"))
    fig4 = api_response_experiment(repeats=10, mode="sim")
    fig5 = creation_time_experiment(repeats=10, mode="sim")
    fig6 = mnist_runtime_experiment()
    write("single.json", export_mod.single_results_to_json(fig4, fig5, fig6))
    one_run = run_schedule("BF", 16, seed)
    write("schedule_bf_16.json", export_mod.schedule_to_json(one_run))
    return 0


def _render_findings(fmt: str, findings, *, tool: str) -> str:
    from repro.analysis import render_sarif, render_text

    if fmt == "sarif":
        return render_sarif(findings, tool_name=tool)
    return render_text(findings)


def _cmd_lint(args) -> int:
    from repro.analysis import analyze_paths

    try:
        findings = analyze_paths(args.paths)
    except FileNotFoundError as exc:
        print(f"no such file or directory: {exc}", file=sys.stderr)
        return 2
    print(_render_findings(args.fmt, findings, tool="reprolint"))
    return 1 if findings else 0


def _cmd_san(args) -> int:
    from repro.analysis import apply_suppressions
    from repro.analysis.san import SanSession

    try:
        import pytest
    except ImportError:  # pragma: no cover - pytest ships with dev envs
        print("repro san needs pytest on the import path", file=sys.stderr)
        return 2

    with SanSession() as session:
        if args.fmt == "text":
            pytest_rc = pytest.main(list(args.pytest_args))
        else:
            # SARIF owns stdout; pytest's progress moves to stderr so
            # `repro san --format sarif > out.sarif` yields a parseable
            # document.
            import contextlib

            with contextlib.redirect_stdout(sys.stderr):
                pytest_rc = pytest.main(list(args.pytest_args))
    report = session.report()
    findings, suppressed = apply_suppressions(
        report.findings(session.root), session.root
    )
    print(_render_findings(args.fmt, findings, tool="reprosan"))
    if args.fmt == "text":
        print(report.summary(), file=sys.stderr)
        if suppressed:
            print(f"({suppressed} suppressed inline)", file=sys.stderr)
    if pytest_rc != 0:
        return int(pytest_rc)
    return 1 if findings else 0


_COMMANDS = {
    "fig4": _cmd_fig4,
    "fig5": _cmd_fig5,
    "fig6": _cmd_fig6,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "deadlock": _cmd_deadlock,
    "crash": _cmd_crash,
    "export": _cmd_export,
    "daemon": _cmd_daemon,
    "recover": _cmd_recover,
    "compact": _cmd_compact,
    "metrics": _cmd_metrics,
    "top": _cmd_top,
    "dump": _cmd_dump,
    "doctor": _cmd_doctor,
    "lint": _cmd_lint,
    "san": _cmd_san,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
