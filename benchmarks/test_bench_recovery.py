"""Recovery at scale — journal size and restore time under compaction.

Snapshots bound *replay* (``restore()`` builds and applies only the tail
after the newest snapshot), but the journal file grows with total history
and ``restore()`` validates every line of it on the way to that snapshot:
the "restore before" column is that scan, linear in history and nothing
else (DESIGN.md §8).  Compaction (DESIGN.md §14) rewrites the file down to
``meta + newest snapshot + event tail``, so both the on-disk footprint and
the recovery scan become flat in total history.

This benchmark drives 10k / 100k / 1M events through a journaled
scheduler, then measures journal size and ``restore()`` wall time before
and after ``compact_journal``.  The committed results file is the
acceptance artifact: post-compaction size and restore time must stay flat
as history grows 100x.

CI smoke runs only the smallest cell (``-k 10k``); the full table is
regenerated with ``make bench-recovery``.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core.scheduler.core import GpuMemoryScheduler
from repro.core.scheduler.journal import (
    SchedulerJournal,
    compact_journal,
    restore,
    serialize_state,
)
from repro.core.scheduler.policies import FifoPolicy
from repro.experiments.report import format_table
from repro.units import GiB, MiB

SNAPSHOT_INTERVAL = 256

CELLS = (("10k", 10_000), ("100k", 100_000), ("1M", 1_000_000))

_ROWS: dict[str, dict[str, float]] = {}


def _build_journal(path: str, events: int) -> GpuMemoryScheduler:
    """Churn one container through ``events`` worth of history."""
    scheduler = GpuMemoryScheduler(4 * GiB, FifoPolicy(), context_overhead=0)
    journal = SchedulerJournal(
        path, mode="sync", fsync=False, snapshot_interval=SNAPSHOT_INTERVAL
    )
    journal.attach(scheduler)
    try:
        scheduler.register_container("bench", 2 * GiB)
        cycles = events // 3  # request + commit + release = 3 events each
        for index in range(cycles):
            address = index + 1
            decision = scheduler.request_allocation("bench", 1, 16 * MiB)
            assert decision.granted
            scheduler.commit_allocation("bench", 1, address, 16 * MiB)
            scheduler.release_allocation("bench", 1, address)
    finally:
        journal.close()
    return scheduler


def _timed_restore(path: str) -> tuple[float, GpuMemoryScheduler]:
    began = time.perf_counter()
    scheduler = restore(path)
    return time.perf_counter() - began, scheduler


@pytest.mark.parametrize(
    ("label", "events"), CELLS, ids=[cell[0] for cell in CELLS]
)
def test_bench_recovery_scaling(label, events, tmp_path, record_output):
    path = str(tmp_path / f"recovery-{label}.journal")
    live = _build_journal(path, events)
    expected = serialize_state(live)

    bytes_before = os.path.getsize(path)
    restore_before, recovered = _timed_restore(path)
    assert serialize_state(recovered) == expected

    compact_began = time.perf_counter()
    stats = compact_journal(path)
    compact_seconds = time.perf_counter() - compact_began

    bytes_after = os.path.getsize(path)
    restore_after, recompacted = _timed_restore(path)
    assert serialize_state(recompacted) == expected
    assert bytes_after < bytes_before
    assert stats["events_kept"] <= SNAPSHOT_INTERVAL

    _ROWS[label] = {
        "events": events,
        "bytes_before": bytes_before,
        "bytes_after": bytes_after,
        "restore_before": restore_before,
        "restore_after": restore_after,
        "compact_seconds": compact_seconds,
    }

    if len(_ROWS) < len(CELLS):
        return  # partial runs (CI smoke: -k 10k) skip the table

    rows = [
        (
            cell,
            f"{row['events']:,}",
            f"{row['bytes_before'] / 1024:,.0f}",
            f"{row['bytes_after'] / 1024:,.1f}",
            f"{row['restore_before'] * 1000:,.1f}",
            f"{row['restore_after'] * 1000:,.2f}",
            f"{row['compact_seconds'] * 1000:,.1f}",
        )
        for cell, row in ((cell, _ROWS[cell]) for cell, _ in CELLS)
    ]
    record_output(
        "recovery_scaling",
        format_table(
            (
                "cell",
                "events",
                "size before (KiB)",
                "size after (KiB)",
                "restore before (ms)",
                "restore after (ms)",
                "compact (ms)",
            ),
            rows,
            title=(
                "Recovery at scale — journal compaction "
                f"(snapshot_interval={SNAPSHOT_INTERVAL})"
            ),
        )
        + "\n\nproperty: post-compaction size and restore() time are flat in"
        "\ntotal history (meta + newest snapshot + <=interval event tail);"
        "\nthe pre-compaction columns grow linearly with it",
    )

    # The acceptance gate: 100x the history must not move the
    # post-compaction footprint or recovery scan beyond tail-length noise.
    small, large = _ROWS[CELLS[0][0]], _ROWS[CELLS[-1][0]]
    assert large["bytes_after"] <= 4 * small["bytes_after"], (
        "post-compaction size grew with history: "
        f"{small['bytes_after']} -> {large['bytes_after']} bytes"
    )
    assert large["restore_after"] < large["restore_before"] / 5, (
        "compaction did not flatten the recovery scan: "
        f"{large['restore_before']:.3f}s -> {large['restore_after']:.3f}s"
    )
