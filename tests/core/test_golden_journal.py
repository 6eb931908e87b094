"""A journal written in an older format still restores (DESIGN.md §7).

``golden/journal_before_pid_inflight.jsonl`` was written by the scheduler
before it attributed inflight bytes to pids.  It holds a meta line, five
events, a snapshot (container ``a`` with a grant of pid 2 not yet
committed) and three events after it: pid 7 of ``b`` is granted and exits
before committing, then pid 1 of ``a`` exits.  Never regenerate it: its
point is the old format.
"""

import os

from repro.core.scheduler import SchedulerJournal, restore, serialize_state
from repro.core.scheduler.journal import journal_summary
from repro.core.scheduler.records import UNATTRIBUTED_PID
from repro.units import MiB

GOLDEN = os.path.join(
    os.path.dirname(__file__), "golden", "journal_before_pid_inflight.jsonl"
)
OVERHEAD = 66 * MiB


def test_the_old_format_journal_restores():
    summary = journal_summary(GOLDEN)
    assert (summary["events"], summary["snapshots"]) == (8, 1)
    scheduler = restore(GOLDEN)
    scheduler.check_invariants()
    views = {
        r.container_id: (r.assigned, r.used, r.inflight, r.inflight_by_pid)
        for r in scheduler.state.records()
    }
    assert views == {
        # pid 1's commit and overhead go with its exit.  pid 2's grant
        # (50 MiB + its overhead) is still inflight; the old snapshot does
        # not say whose it is.
        "a": (512 * MiB, 0, 50 * MiB + OVERHEAD, {UNATTRIBUTED_PID: 50 * MiB + OVERHEAD}),
        # pid 7's exit returns its grant, which the writer left inflight.
        "b": (256 * MiB, 0, 0, {}),
    }


def test_an_unattributed_grant_still_commits_and_journals_on(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    with open(GOLDEN, "rb") as src, open(path, "wb") as dst:
        dst.write(src.read())
    scheduler = restore(path)
    with SchedulerJournal(path) as journal:
        journal.attach(scheduler, compact=True)
        scheduler.commit_allocation("a", 2, 0x2000, 50 * MiB)
        record = scheduler.container("a")
        assert (record.used, record.inflight) == (50 * MiB + OVERHEAD, 0)
        scheduler.process_exit("a", 2)
        assert scheduler.container("a").used == 0
    scheduler.check_invariants()
    assert serialize_state(restore(path)) == serialize_state(scheduler)
