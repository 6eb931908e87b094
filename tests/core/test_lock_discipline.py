"""Lock-discipline assertions for the core/runtime split (DESIGN.md §11).

The refactor's contract: the scheduler mutex is held only across the pure
state transition plus the in-memory log append.  Every slow effect happens
*after* release — in particular

- no journal ``fsync`` (or any journal disk write) runs on a thread that
  holds the scheduler lock while in group-commit mode, and
- no user-supplied resume callback runs under the lock.

These tests pin that with an ownership-tracking lock swapped in for the
scheduler's mutex and an ``os.fsync`` spy in the journal module.  The seed
behaviour (``mode="sync"``) is also exercised to prove the instrumentation
actually detects an under-lock fsync — that mode *should* trip it.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.scheduler import journal as journal_mod
from repro.core.scheduler.core import GpuMemoryScheduler
from repro.core.scheduler.daemon import SchedulerDaemon
from repro.core.scheduler.journal import SchedulerJournal
from repro.core.scheduler.policies import FifoPolicy
from repro.ipc import protocol
from repro.ipc.unix_socket import ReplyHandle, UnixSocketClient
from repro.units import MiB

TOTAL = 1024 * MiB


class OwnershipLock:
    """An RLock that knows which thread currently owns it."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._owner: int | None = None
        self._depth = 0

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._lock.acquire(blocking, timeout)
        if acquired:
            self._owner = threading.get_ident()
            self._depth += 1
        return acquired

    def release(self) -> None:
        self._depth -= 1
        if self._depth == 0:
            self._owner = None
        self._lock.release()

    def __enter__(self) -> "OwnershipLock":
        self.acquire()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.release()

    def held_by_current_thread(self) -> bool:
        return self._owner == threading.get_ident()


def _build_scheduler() -> tuple[GpuMemoryScheduler, OwnershipLock]:
    scheduler = GpuMemoryScheduler(TOTAL, FifoPolicy(), context_overhead=0)
    lock = OwnershipLock()
    scheduler._lock = lock
    return scheduler, lock


def _drive_pause_resume(scheduler: GpuMemoryScheduler, on_resume) -> None:
    """A small workload with grants, a pause, a resume, and an exit."""
    scheduler.register_container("a", TOTAL)
    scheduler.register_container("b", 512 * MiB)  # pool exhausted: assigned 0
    assert scheduler.request_allocation("a", 1, TOTAL).granted
    scheduler.commit_allocation("a", 1, 0x1000, TOTAL)
    decision = scheduler.request_allocation(
        "b", 2, 256 * MiB, on_resume=on_resume
    )
    assert decision.paused
    # Closing "a" frees the pool; redistribution resumes "b" on this thread.
    scheduler.container_exit("a")
    scheduler.container_exit("b")


def test_group_mode_never_fsyncs_or_calls_back_under_the_lock(
    tmp_path, monkeypatch
):
    scheduler, lock = _build_scheduler()

    fsyncs: list[bool] = []  # True = scheduler lock held by fsync-ing thread
    monkeypatch.setattr(
        journal_mod.os,
        "fsync",
        lambda fd: fsyncs.append(lock.held_by_current_thread()),
    )

    callbacks: list[bool] = []

    def on_resume(payload) -> None:
        callbacks.append(lock.held_by_current_thread())
        assert payload["decision"] in ("grant", "reject")

    journal = SchedulerJournal(
        str(tmp_path / "wal.jsonl"),
        fsync=True,
        mode="group",
        snapshot_interval=1,  # force quiescent-point snapshots every batch
    )
    journal.attach(scheduler)
    try:
        _drive_pause_resume(scheduler, on_resume)
        journal.wait_durable()
    finally:
        journal.close()

    assert len(fsyncs) > 0, "fsync spy never fired — workload not journaled"
    assert not any(fsyncs), "journal fsync ran while the scheduler lock was held"
    assert len(callbacks) == 1, "the paused allocation never resumed"
    assert not any(callbacks), "resume callback ran while the lock was held"


def test_sync_mode_fsyncs_under_the_lock_proving_the_spy_works(
    tmp_path, monkeypatch
):
    # The ablation baseline (seed behaviour) writes inside the event-log
    # listener, which runs under the scheduler lock.  If this stopped
    # tripping the spy, the group-mode test above would be vacuous.
    scheduler, lock = _build_scheduler()

    fsyncs: list[bool] = []
    monkeypatch.setattr(
        journal_mod.os,
        "fsync",
        lambda fd: fsyncs.append(lock.held_by_current_thread()),
    )

    journal = SchedulerJournal(
        str(tmp_path / "wal.jsonl"), fsync=True, mode="sync"
    )
    journal.attach(scheduler)
    try:
        _drive_pause_resume(scheduler, lambda payload: None)
    finally:
        journal.close()

    assert len(fsyncs) > 0
    assert any(fsyncs), "sync-mode fsync no longer runs under the lock?"


def test_durability_precedes_the_resume_callback(tmp_path):
    # WAL ordering across the group-commit boundary: when a resume
    # callback fires, the events of the transition that caused it must
    # already be readable from the journal file.
    scheduler, _ = _build_scheduler()
    journal = SchedulerJournal(
        str(tmp_path / "wal.jsonl"), mode="group", snapshot_interval=None
    )
    seen: list[int] = []

    def on_resume(payload) -> None:
        _, records, _ = journal_mod.read_journal(journal.path)
        names = [r.get("event") for r in records if r["kind"] == "event"]
        seen.append(names.count("AllocationResumed"))

    journal.attach(scheduler)
    try:
        _drive_pause_resume(scheduler, on_resume)
    finally:
        journal.close()

    assert seen == [1], "resume reply left before its events were durable"


def test_container_exit_tears_down_unlocked_after_fsync_and_resume(
    tmp_path, monkeypatch
):
    # The same spies one layer up: a control-socket container_exit with a
    # paused waiter fsyncs, then delivers the resume, then stops the
    # exiting container's server — none of it under the scheduler lock.
    scheduler, lock = _build_scheduler()
    journal = SchedulerJournal(
        str(tmp_path / "wal.jsonl"), fsync=True, mode="group"
    )
    journal.attach(scheduler)
    daemon = SchedulerDaemon(
        scheduler, base_dir=str(tmp_path / "convgpu"), journal=journal
    ).start()
    trail: list[tuple[str, bool]] = []

    def paused_alloc() -> None:
        with UnixSocketClient(daemon.container_socket_path("b")) as client:
            client.call(
                protocol.MSG_ALLOC_REQUEST,
                container_id="b", pid=2, size=256 * MiB, api="cudaMalloc",
            )

    waiter = threading.Thread(target=paused_alloc)
    try:
        with UnixSocketClient(daemon.control_path) as control:
            for container_id in ("a", "b"):
                control.call(
                    protocol.MSG_REGISTER_CONTAINER,
                    container_id=container_id, limit=TOTAL,
                )
            waiter.start()
            deadline = time.monotonic() + 10.0
            while (
                not scheduler.container("b").pending
                and time.monotonic() < deadline
            ):
                time.sleep(0.01)
            assert scheduler.container("b").pending, "request never paused"

            def spy(name, original):
                def wrapper(*args):
                    trail.append((name, lock.held_by_current_thread()))
                    return original(*args)

                return wrapper

            server = daemon._container_servers["a"]
            monkeypatch.setattr(
                journal_mod.os, "fsync", spy("fsync", journal_mod.os.fsync)
            )
            monkeypatch.setattr(
                ReplyHandle, "send", spy("resume", ReplyHandle.send)
            )
            monkeypatch.setattr(server, "stop", spy("stop", server.stop))
            control.call(protocol.MSG_CONTAINER_EXIT, container_id="a")
        waiter.join(timeout=10.0)
        assert not waiter.is_alive(), "the paused allocation never resumed"
    finally:
        monkeypatch.undo()
        daemon.stop()

    names = [name for name, _ in trail]
    assert names.index("fsync") < names.index("resume") < names.index("stop")
    assert not any(held for _, held in trail), trail


def test_unknown_journal_mode_rejected(tmp_path):
    from repro.errors import JournalError

    with pytest.raises(JournalError, match="mode"):
        SchedulerJournal(str(tmp_path / "wal.jsonl"), mode="batched")
