"""The benchmark's daemon launcher.

Builds the daemon every live workload talks to from public constructors
only — the defaults of ``repro daemon`` plus journal fsync, which that CLI
has no flag for:

    GpuMemoryScheduler + SchedulerJournal(path, fsync=True, mode="group")
    + SchedulerDaemon(io="loop", codec="auto", transport="unix")

Run as a script it is the child process of an untraced run: it writes a
ready file, serves until SIGTERM (or until its parent disappears) and stops
the daemon in order, which closes the journal.  The traced run calls
:func:`build_daemon` in-process instead, so the benchmark's spans can wrap
the daemon's layers.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import threading
import time

from _common import require_source_tree

if __name__ == "__main__":
    require_source_tree()

from repro.core.scheduler.core import GpuMemoryScheduler  # noqa: E402
from repro.core.scheduler.daemon import SchedulerDaemon  # noqa: E402
from repro.core.scheduler.journal import SchedulerJournal  # noqa: E402
from repro.core.scheduler.policies import make_policy  # noqa: E402


def build_daemon(base_dir: str, journal_path: str, total_memory: int, policy: str):
    """A started daemon with an attached fsync'ing group-commit journal."""
    scheduler = GpuMemoryScheduler(
        total_memory, make_policy(policy, None), clock=time.monotonic
    )
    journal = SchedulerJournal(journal_path, fsync=True, mode="group")
    journal.attach(scheduler)
    daemon = SchedulerDaemon(
        scheduler,
        base_dir,
        journal=journal,
        io="loop",
        codec="auto",
        transport="unix",
    )
    return daemon.start()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--base-dir", required=True)
    parser.add_argument("--journal", required=True)
    parser.add_argument("--total-memory", type=int, required=True)
    parser.add_argument("--policy", default="FIFO")
    parser.add_argument("--ready-file", required=True)
    args = parser.parse_args()

    done = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: done.set())
    signal.signal(signal.SIGINT, lambda *_: done.set())
    parent = os.getppid()

    began = time.perf_counter()
    daemon = build_daemon(args.base_dir, args.journal, args.total_memory, args.policy)
    start_ms = (time.perf_counter() - began) * 1000.0
    try:
        ready = {"pid": os.getpid(), "control": daemon.control_path, "start_ms": start_ms}
        with open(args.ready_file + ".tmp", "w", encoding="utf-8") as fh:
            json.dump(ready, fh)
        os.rename(args.ready_file + ".tmp", args.ready_file)
        # An orphaned daemon must not outlive the benchmark that started it.
        while not done.wait(0.5):
            if os.getppid() != parent:
                break
    finally:
        daemon.stop()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
