"""Inflight bytes are kept per pid (DESIGN.md §7.10).

A process's exit returns the grants it never committed, whatever the
policy; a snapshot keeps whose grant is whose; a snapshot written before
inflight was kept per pid restores its inflight bytes unattributed, where
a commit or abort may draw on them and no exit returns them; and a journal
replays every pid's grant back to the live state.
"""

import json

import numpy as np
import pytest

from repro.core.scheduler import SchedulerJournal, restore, serialize_state
from repro.core.scheduler.core import GpuMemoryScheduler
from repro.core.scheduler.policies import POLICIES, make_policy
from repro.core.scheduler.records import UNATTRIBUTED_PID
from repro.core.scheduler.state import SchedulerState
from repro.errors import SchedulerError
from repro.units import GiB, MiB


def make_state(policy_name="FIFO", total=10, overhead=0):
    policy = make_policy(policy_name, np.random.default_rng(0))
    return SchedulerState(total, policy, context_overhead=overhead)


def request(state, cid, pid, size, now):
    return state.request(cid, pid, size, "cudaMalloc", None, now).value


class TestBooks:
    """One dict entry per pid with grants open, summing to ``inflight``."""

    def test_a_first_grant_carries_the_context_charge(self):
        state = make_state(overhead=1)
        state.register("a", 10, 0.0)
        assert request(state, "a", 1, 2, 1.0).granted
        a = state.container("a")
        assert (a.inflight, a.inflight_by_pid) == (3, {1: 3})
        state.commit("a", 1, 0x10, 2, 2.0)
        assert (a.used, a.inflight, a.inflight_by_pid) == (3, 0, {})
        state.check_invariants()

    def test_an_exit_returns_a_first_grant_with_its_charge(self):
        state = make_state(overhead=1)
        state.register("a", 10, 0.0)
        assert request(state, "a", 1, 2, 1.0).granted
        assert state.process_exit("a", 1, 2.0).value == 3
        a = state.container("a")
        assert (a.used, a.inflight, a.inflight_by_pid) == (0, 0, {})
        assert 1 not in a.pids_charged
        state.check_invariants()

    def test_a_partial_commit_leaves_the_rest_on_the_pid(self):
        state = make_state()
        state.register("a", 10, 0.0)
        assert request(state, "a", 1, 3, 1.0).granted
        assert request(state, "a", 1, 2, 2.0).granted
        assert state.container("a").inflight_by_pid == {1: 5}
        state.commit("a", 1, 0x10, 3, 3.0)
        a = state.container("a")
        assert (a.used, a.inflight, a.inflight_by_pid) == (3, 2, {1: 2})
        state.check_invariants()

    def test_a_settled_pid_keeps_no_entry(self):
        state = make_state()
        state.register("a", 10, 0.0)
        assert request(state, "a", 1, 3, 1.0).granted
        assert request(state, "a", 2, 2, 2.0).granted
        state.abort("a", 1, 3, 3.0)
        state.commit("a", 2, 0x10, 2, 4.0)
        a = state.container("a")
        assert (a.inflight, a.inflight_by_pid) == (0, {})
        state.check_invariants()

    def test_a_second_exit_returns_nothing(self):
        state = make_state()
        state.register("a", 10, 0.0)
        assert request(state, "a", 1, 3, 1.0).granted
        assert state.process_exit("a", 1, 2.0).value == 3
        assert state.process_exit("a", 1, 3.0).value == 0
        state.check_invariants()

    def test_an_exit_without_grants_leaves_the_others(self):
        state = make_state()
        state.register("a", 10, 0.0)
        assert request(state, "a", 1, 3, 1.0).granted
        assert state.process_exit("a", 2, 2.0).value == 0
        a = state.container("a")
        assert (a.inflight, a.inflight_by_pid) == (3, {1: 3})
        state.check_invariants()

    def test_a_container_exit_returns_its_grants_to_the_pool(self):
        state = make_state()
        state.register("a", 6, 0.0)
        assert request(state, "a", 1, 3, 1.0).granted
        assert state.unreserved == 4
        state.container_exit("a", 2.0)
        assert state.unreserved == 10
        state.check_invariants()


@pytest.mark.parametrize("policy_name", sorted(POLICIES))
class TestUnderEveryPolicy:
    def test_an_exit_makes_room_under_the_limit(self, policy_name):
        """The grant pid 1 took with it no longer counts against the
        container's limit of 4: pid 2's request for 3 fits."""
        state = make_state(policy_name)
        state.register("c", 4, 0.0)
        assert request(state, "c", 1, 2, 1.0).granted
        assert state.process_exit("c", 1, 2.0).value == 2
        assert request(state, "c", 2, 3, 3.0).granted
        c = state.container("c")
        assert (c.inflight, c.inflight_by_pid) == (3, {2: 3})
        state.check_invariants()

    def test_an_exit_holding_a_grant_resumes_its_container(self, policy_name):
        """The grant pid 1 never committed is what keeps pid 2 waiting; its
        exit resumes the container, which then leaves the policy's
        candidates: b's memory goes to c alone."""
        state = make_state(policy_name)
        state.register("b", 6, 0.0)
        state.register("a", 6, 1.0)  # gets the 4 left
        assert request(state, "a", 1, 3, 2.0).granted
        assert request(state, "a", 2, 3, 3.0).paused
        assert state.process_exit("a", 1, 4.0).value == 3
        a = state.container("a")
        assert not a.paused
        assert (a.inflight, a.inflight_by_pid) == (3, {2: 3})
        state.check_invariants()
        state.register("c", 4, 5.0)  # nothing left
        assert request(state, "c", 1, 2, 6.0).paused
        state.container_exit("b", 7.0)
        c = state.container("c")
        assert (a.assigned, c.assigned, c.paused) == (4, 4, False)
        assert c.inflight_by_pid == {1: 2}
        state.check_invariants()

    def test_a_snapshot_keeps_whose_grant_is_whose(self, policy_name):
        state = make_state(policy_name, total=20)
        state.register("a", 10, 0.0)
        state.register("b", 10, 1.0)
        state.register("c", 10, 2.0)  # nothing left: its request pauses
        assert request(state, "a", 1, 3, 3.0).granted
        assert request(state, "a", 2, 2, 4.0).granted
        assert request(state, "a", 1, 1, 5.0).granted
        state.commit("a", 1, 0x10, 3, 6.0)
        assert request(state, "c", 1, 4, 7.0).paused
        payload = json.loads(json.dumps(state.serialize()))

        restored = make_state(policy_name, total=20)
        restored.load_snapshot(payload)
        restored.check_invariants()
        assert restored.serialize() == state.serialize()
        assert restored.container("a").inflight_by_pid == {1: 1, 2: 2}
        # Both go on alike: the exit returns pid 2's grant, and the
        # container exit hands b's memory to c through the rebuilt index.
        for each in (state, restored):
            assert each.process_exit("a", 2, 8.0).value == 2
            each.container_exit("b", 9.0)
            assert not each.container("c").paused
            each.check_invariants()
        assert restored.serialize() == state.serialize()


def legacy_state():
    """A state restored from a snapshot that predates per-pid inflight:
    pid 1 holds a grant of 3 and pid 2 one of 2 in container ``a``."""
    state = make_state()
    state.register("a", 10, 0.0)
    assert request(state, "a", 1, 3, 1.0).granted
    assert request(state, "a", 2, 2, 2.0).granted
    payload = state.serialize()
    for entry in payload["containers"]:
        del entry["inflight_by_pid"]
    restored = make_state()
    restored.load_snapshot(payload)
    return restored


class TestSnapshotBeforePidInflight:
    def test_its_inflight_restores_unattributed(self):
        state = legacy_state()
        a = state.container("a")
        assert (a.inflight, a.inflight_by_pid) == (5, {UNATTRIBUTED_PID: 5})
        state.check_invariants()

    def test_a_commit_draws_on_them_only_past_its_own_bytes(self):
        state = legacy_state()
        assert request(state, "a", 1, 1, 3.0).granted
        state.commit("a", 1, 0x10, 3, 4.0)  # its own 1, then 2 of the 5
        a = state.container("a")
        assert (a.used, a.inflight) == (3, 3)
        assert a.inflight_by_pid == {UNATTRIBUTED_PID: 3}
        state.check_invariants()

    def test_an_abort_draws_on_them(self):
        state = legacy_state()
        state.abort("a", 2, 2, 3.0)
        a = state.container("a")
        assert a.inflight_by_pid == {UNATTRIBUTED_PID: 3}
        state.check_invariants()

    def test_an_exit_does_not_return_them(self):
        """Nobody knows whose they are, so no exit returns them."""
        state = legacy_state()
        assert state.process_exit("a", 1, 3.0).value == 0
        assert state.container("a").inflight_by_pid == {UNATTRIBUTED_PID: 5}
        state.check_invariants()

    def test_a_commit_past_them_is_refused(self):
        state = legacy_state()
        with pytest.raises(SchedulerError, match="pid 1's inflight"):
            state.commit("a", 1, 0x10, 6, 3.0)
        assert state.container("a").inflight_by_pid == {UNATTRIBUTED_PID: 5}


class TestJournal:
    @staticmethod
    def run(scheduler):
        scheduler.register_container("a", 512 * MiB)
        assert scheduler.request_allocation("a", 1, 100 * MiB).granted
        assert scheduler.request_allocation("a", 2, 50 * MiB).granted
        assert scheduler.request_allocation("a", 3, 20 * MiB).granted
        scheduler.process_exit("a", 1)  # its grant goes with it
        scheduler.commit_allocation("a", 2, 0x1000, 50 * MiB)

    def test_replay_rebuilds_each_pids_grant(self, tmp_path):
        path = str(tmp_path / "j.wal")
        scheduler = GpuMemoryScheduler(GiB, make_policy("FIFO"), context_overhead=0)
        with SchedulerJournal(path, snapshot_interval=None) as journal:
            journal.attach(scheduler)
            self.run(scheduler)
        replayed = restore(path)
        assert replayed.container("a").inflight_by_pid == {3: 20 * MiB}
        replayed.check_invariants()
        assert serialize_state(replayed) == serialize_state(scheduler)

    def test_compaction_keeps_each_pids_grant(self, tmp_path):
        path = str(tmp_path / "j.wal")
        scheduler = GpuMemoryScheduler(GiB, make_policy("FIFO"), context_overhead=0)
        with SchedulerJournal(path, snapshot_interval=None) as journal:
            journal.attach(scheduler)
            self.run(scheduler)
            assert journal.compact()
        with open(path) as f:
            snapshots = [r for r in map(json.loads, f) if r["kind"] == "snapshot"]
        assert [c["inflight_by_pid"] for c in snapshots[-1]["state"]["containers"]] == [
            [[3, 20 * MiB]]
        ]
        replayed = restore(path)
        replayed.check_invariants()
        assert serialize_state(replayed) == serialize_state(scheduler)

