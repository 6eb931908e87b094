"""Spawn-to-ready time and peak RSS of the serving processes.

Each run starts real processes from the source tree under test and times
them from the outside:

- ``daemon``: ``python -m repro daemon`` with a fresh journal, from spawn
  to its ready file, with the metrics endpoint on (ephemeral port);
- ``daemon-nometrics``: the same with ``--no-metrics``;
- ``recover``/``recover-nometrics``: the same two with ``--recover`` of a
  copy of a 100k-event journal (8 live containers, interval snapshots as a
  daemon writes them) — restart-to-serve.

Peak RSS is the process's ``VmHWM`` read from ``/proc`` at ready.  With two
trees the runs alternate (A first on even runs, B first on odd), and the
summary gives each tree's median and range, the ratio of medians and how
many of the pairs the second tree won.  Linux only.

    PYTHONPATH=src python benchmarks/daemon_footprint.py \\
        --runs 10 --tree parent=../parent --tree change=.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCENARIOS = ("daemon", "daemon-nometrics", "recover", "recover-nometrics")
JOURNAL_EVENTS = 100_000


def build_journal(path: str) -> int:
    """A daemon-shaped journal: 8 containers cycling request/commit/release."""
    from repro.core.scheduler import GpuMemoryScheduler, SchedulerJournal, make_policy
    from repro.units import GiB, MiB

    scheduler = GpuMemoryScheduler(64 * GiB, make_policy("FIFO"), clock=time.time)
    journal = SchedulerJournal(path, fsync=False)
    journal.attach(scheduler)
    names = [f"r{index}" for index in range(8)]
    for name in names:
        scheduler.register_container(name, 4 * GiB)
    held: dict[str, list[int]] = {name: [] for name in names}
    step = 0
    while journal.events_written < JOURNAL_EVENTS:
        name = names[step % len(names)]
        address = 0x2000_0000 + step * 0x100
        scheduler.request_allocation(name, 1, MiB)
        scheduler.commit_allocation(name, 1, address, MiB)
        held[name].append(address)
        if len(held[name]) > 4:
            scheduler.release_allocation(name, 1, held[name].pop(0))
        step += 1
    events = journal.events_written
    journal.close()
    return events


def _env(tree: str) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(tree, "src")
    return env


def _hwm_mib(pid: int) -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def _wait_file(path: str, proc: subprocess.Popen, timeout: float = 60.0) -> None:
    deadline = time.monotonic() + timeout
    while not os.path.exists(path):
        if proc.poll() is not None:
            raise RuntimeError(f"process exited with {proc.returncode} before ready")
        if time.monotonic() > deadline:
            raise RuntimeError(f"not ready after {timeout}s")
        time.sleep(0.001)


def run_daemon(tree: str, work: str, *, metrics: bool, journal: str | None) -> tuple[float, float]:
    """(spawn-to-ready ms, VmHWM MiB at ready) of one ``repro daemon``."""
    ready = os.path.join(work, "ready.json")
    argv = [
        sys.executable, "-m", "repro", "daemon",
        "--base-dir", os.path.join(work, "sock"),
        "--total-memory", "4096",
        "--ready-file", ready,
    ]
    if journal is None:
        argv += ["--journal-path", os.path.join(work, "fresh.wal")]
    else:
        argv += ["--journal-path", journal, "--recover"]
    if not metrics:
        argv.append("--no-metrics")
    began = time.perf_counter()
    proc = subprocess.Popen(
        argv, env=_env(tree), cwd=tree,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        _wait_file(ready, proc)
        ready_ms = (time.perf_counter() - began) * 1e3
        hwm = _hwm_mib(proc.pid)
        proc.send_signal(signal.SIGTERM)
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return ready_ms, hwm


def run_one(tree: str, scenario: str, source_journal: str) -> tuple[float, float]:
    work = tempfile.mkdtemp(prefix="footprint-")
    try:
        journal = None
        if scenario.startswith("recover"):
            journal = os.path.join(work, "copy.wal")
            shutil.copyfile(source_journal, journal)
        return run_daemon(
            tree, work, metrics=not scenario.endswith("nometrics"), journal=journal
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _span(values: list[float], fmt: str) -> str:
    return (
        f"{statistics.median(values):{fmt}} "
        f"({min(values):{fmt}}-{max(values):{fmt}})"
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument(
        "--tree", action="append", default=None, metavar="LABEL=PATH",
        help="a source checkout to measure (repeat for alternating pairs; "
             "default: this checkout)",
    )
    args = parser.parse_args()
    trees = []
    for spec in args.tree or [f"this={REPO_ROOT}"]:
        label, _, path = spec.partition("=")
        trees.append((label, os.path.abspath(path or label)))

    journal_dir = tempfile.mkdtemp(prefix="footprint-journal-")
    try:
        source = os.path.join(journal_dir, "source.wal")
        began = time.perf_counter()
        events = build_journal(source)
        print(
            f"journal: {events} events, {os.path.getsize(source) / 2**20:.1f} MiB, "
            f"built in {time.perf_counter() - began:.1f} s",
            flush=True,
        )
        results = {(label, s): [] for label, _ in trees for s in SCENARIOS}
        for run in range(args.runs):
            # Alternate which tree goes first, so drift favours neither.
            order = trees if run % 2 == 0 else trees[::-1]
            for scenario in SCENARIOS:
                for label, path in order:
                    results[label, scenario].append(run_one(path, scenario, source))
            print(f"run {run + 1}/{args.runs} done", file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(journal_dir, ignore_errors=True)

    print(f"\n{'scenario':<18} {'tree':<8} {'ready_ms median (range)':>26} "
          f"{'hwm_mib median (range)':>24}")
    for scenario in SCENARIOS:
        for label, _ in trees:
            rows = results[label, scenario]
            print(f"{scenario:<18} {label:<8} "
                  f"{_span([r[0] for r in rows], '.0f'):>26} "
                  f"{_span([r[1] for r in rows], '.1f'):>24}")
    if len(trees) == 2:
        (a, _), (b, _) = trees
        print(f"\n{'scenario':<18} {'ready ' + b + '/' + a:>16} {'wins':>6} "
              f"{'hwm ' + b + '/' + a:>16} {'wins':>6}")
        for scenario in SCENARIOS:
            pairs = list(zip(results[a, scenario], results[b, scenario]))
            cells = []
            for field in (0, 1):
                base = statistics.median(p[0][field] for p in pairs)
                new = statistics.median(p[1][field] for p in pairs)
                wins = sum(p[1][field] < p[0][field] for p in pairs)
                cells.append(f"{new / base:>16.3f} {f'{wins}/{len(pairs)}':>6}")
            print(f"{scenario:<18} {' '.join(cells)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
