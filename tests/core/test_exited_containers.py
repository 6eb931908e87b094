"""An exited container leaves no record (§III-B, DESIGN.md §7).

``container_exit`` clears every record of the container: the scheduler's
state, its snapshots and its journal restore scale with the containers
alive now, not with how many ever lived.  A name that exits may register
again; it comes back as a new container, last in ``created_seq`` order.
"""

import json

import pytest

from repro.core.scheduler import (
    GpuMemoryScheduler,
    SchedulerJournal,
    make_policy,
    restore,
    serialize_state,
)
from repro.core.scheduler.policies import PAPER_POLICIES, RandomPolicy
from repro.core.scheduler.state import CONTEXT_OVERHEAD_CHARGE
from repro.errors import UnknownContainerError
from repro.units import GiB, MiB


def lives_beside_one_open(policy_name, lives, path):
    """One container kept open while ``lives`` unique ids come and go.

    Each life registers, requests 1 MiB, commits it and exits.  Returns
    the live scheduler, its journal already closed.
    """
    sched = GpuMemoryScheduler(4 * GiB, make_policy(policy_name))
    with SchedulerJournal(path, snapshot_interval=64) as journal:
        journal.attach(sched)
        sched.register_container("keep", 2 * GiB)
        sched.request_allocation("keep", 1, 8 * MiB)
        sched.commit_allocation("keep", 1, 0x1000, 8 * MiB)
        for index in range(lives):
            cid = f"life{index:04d}"
            sched.register_container(cid, GiB)
            assert sched.request_allocation(cid, 1, MiB).granted
            sched.commit_allocation(cid, 1, 0x2000, MiB)
            sched.container_exit(cid)
    return sched


@pytest.mark.parametrize("policy_name", PAPER_POLICIES)
def test_history_leaves_no_trace(policy_name, tmp_path):
    states = {}
    for lives in (1, 200):
        path = str(tmp_path / f"{lives}.wal")
        sched = lives_beside_one_open(policy_name, lives, path)
        assert [r.container_id for r in sched.state.records()] == ["keep"]
        sched.check_invariants()
        live = serialize_state(sched)
        assert serialize_state(restore(path)) == live
        assert live["seq"] == 1 + lives
        states[lives] = {k: v for k, v in live.items() if k != "seq"}
    assert states[1] == states[200]


def test_exited_name_is_unknown_to_every_verb():
    sched = GpuMemoryScheduler(4 * GiB, make_policy("FIFO"))
    sched.register_container("a", GiB)
    assert sched.container_exit("a") == GiB
    for verb in (
        lambda: sched.container("a"),
        lambda: sched.mem_get_info("a", 1),
        lambda: sched.request_allocation("a", 1, MiB),
        lambda: sched.process_exit("a", 1),
    ):
        with pytest.raises(UnknownContainerError):
            verb()
    assert sched.container_exit("a") == 0  # a second exit is a no-op


class _SpyRandom(RandomPolicy):
    """Rand, remembering each candidate list its ``ScanIndex`` hands it."""

    def __init__(self):
        super().__init__()
        self.seen = []

    def select(self, paused, free):
        self.seen.append([r.container_id for r in paused])
        return super().select(paused, free)


def test_reregistered_name_is_a_new_container_last_in_order():
    policy = _SpyRandom()
    sched = GpuMemoryScheduler(3 * GiB, policy)
    sched.register_container("x", 3 * GiB)  # takes the whole device
    sched.register_container("a", GiB)
    sched.register_container("b", GiB)
    sched.container_exit("a")
    record = sched.register_container("a", GiB)
    assert record.created_seq == 4
    assert [r.container_id for r in sched.state.records()] == ["x", "b", "a"]
    assert sched.request_allocation("a", 1, MiB, on_resume=lambda p: None).paused
    assert sched.request_allocation("b", 1, MiB, on_resume=lambda p: None).paused
    sched.container_exit("x")
    # Rand's candidates follow created_seq: the re-registered "a" is last.
    assert policy.seen[0] == ["b", "a"]
    sched.check_invariants()


def test_attach_after_everyone_exited_keeps_the_sequence(tmp_path):
    """A state whose containers all exited, its log trimmed by a snapshot,
    still gets a first snapshot on a fresh journal: ``created_seq`` must
    carry on from where the live scheduler stands."""
    sched = GpuMemoryScheduler(4 * GiB, make_policy("FIFO"))
    with SchedulerJournal(str(tmp_path / "first.wal")) as first:
        first.attach(sched)
        sched.register_container("a", GiB)
        sched.container_exit("a")
        first.write_snapshot()
    assert not sched.state.records() and not len(sched.log)
    path = str(tmp_path / "second.wal")
    with SchedulerJournal(path) as second:
        second.attach(sched)
        assert sched.register_container("b", GiB).created_seq == 2
    assert serialize_state(restore(path)) == serialize_state(sched)


def _entry(cid, created_seq, *, closed, assigned=0, used=0, allocations=()):
    return {
        "container_id": cid,
        "limit": GiB,
        "created_seq": created_seq,
        "created_at": float(created_seq),
        "assigned": assigned,
        "used": used,
        "inflight": 0,
        "closed": closed,
        "allocations": [list(a) for a in allocations],
        "pids_charged": [1] if allocations else [],
        "overhead_pending": [],
        "pending": [],
        "last_suspended_at": -1.0,
        "suspended_total": 0.0,
        "pause_count": 0,
    }


def test_snapshot_with_closed_entries_restores_the_open_state(tmp_path):
    """A journal whose snapshot still lists closed records (the format
    before exits dropped them) restores to its open containers only."""
    held = 8 * MiB + CONTEXT_OVERHEAD_CHARGE
    meta = {
        "kind": "meta",
        "version": 1,
        "total_memory": 4 * GiB,
        "policy": "FIFO",
        "context_overhead": CONTEXT_OVERHEAD_CHARGE,
        "resume_mode": "fit",
    }
    state = {
        "seq": 2,
        "containers": [
            _entry("gone", 1, closed=True),
            _entry(
                "live", 2, closed=False, assigned=GiB, used=held,
                allocations=[
                    (0x1000, 1, 8 * MiB, False),
                    (-1, 1, CONTEXT_OVERHEAD_CHARGE, True),
                ],
            ),
        ],
    }
    path = tmp_path / "old.wal"
    path.write_text(
        json.dumps(meta) + "\n" + json.dumps({"kind": "snapshot", "state": state}) + "\n"
    )
    sched = restore(str(path))
    sched.check_invariants()
    assert [r.container_id for r in sched.state.records()] == ["live"]
    assert sched.reserved == GiB
    assert sched.container("live").used == held
    # No tombstone: the closed name registers again, after the snapshot's seq.
    assert sched.register_container("gone", GiB).created_seq == 3
