"""Tests for the GPU memory scheduler decision engine (§III-D/E)."""

import ast
import inspect
import textwrap

import pytest

from tests.conftest import ManualClock

from repro.core.scheduler.core import (
    CONTEXT_OVERHEAD_CHARGE,
    Decision,
    GpuMemoryScheduler,
)
from repro.core.scheduler.events import (
    AllocationPaused,
    AllocationResumed,
    MemoryAssigned,
    ReservationReclaimed,
)
from repro.core.scheduler.policies import make_policy
from repro.core.scheduler.state import SchedulerState
from repro.errors import LimitExceededError, SchedulerError, UnknownContainerError
from repro.units import GiB, MiB

OVH = CONTEXT_OVERHEAD_CHARGE


@pytest.fixture
def clock():
    return ManualClock()


@pytest.fixture
def sched(clock):
    return GpuMemoryScheduler(5 * GiB, make_policy("FIFO"), clock=clock)


def full_alloc(sched, cid, pid, size, address):
    """Grant + commit one allocation, asserting success."""
    decision = sched.request_allocation(cid, pid, size)
    assert decision.granted, decision
    sched.commit_allocation(cid, pid, address, size)


class TestRegistration:
    def test_assigns_min_of_limit_and_unreserved(self, sched):
        a = sched.register_container("a", 4 * GiB)
        assert a.assigned == 4 * GiB
        b = sched.register_container("b", 2 * GiB)  # only 1 GiB left
        assert b.assigned == 1 * GiB  # partial, Fig. 3b
        c = sched.register_container("c", GiB)
        assert c.assigned == 0  # nothing left, like Container D

    def test_limit_above_device_rejected(self, sched):
        with pytest.raises(LimitExceededError):
            sched.register_container("huge", 6 * GiB)

    def test_nonpositive_limit_rejected(self, sched):
        with pytest.raises(SchedulerError):
            sched.register_container("zero", 0)

    def test_duplicate_registration_rejected(self, sched):
        sched.register_container("a", GiB)
        with pytest.raises(SchedulerError):
            sched.register_container("a", GiB)

    def test_name_reusable_after_exit(self, sched):
        sched.register_container("a", GiB)
        sched.container_exit("a")
        record = sched.register_container("a", 2 * GiB)
        assert record.limit == 2 * GiB


class TestAllocationDecisions:
    def test_grant_within_assigned(self, sched):
        sched.register_container("a", GiB)
        decision = sched.request_allocation("a", 1, 100 * MiB)
        assert decision.granted

    def test_reject_beyond_limit(self, sched):
        sched.register_container("a", 256 * MiB)
        # 256 MiB request + 66 MiB overhead > 256 MiB limit.
        decision = sched.request_allocation("a", 1, 256 * MiB)
        assert decision.rejected
        assert "limit" in decision.reason

    def test_context_overhead_charged_once_per_pid(self, sched):
        sched.register_container("a", GiB)
        full_alloc(sched, "a", 1, 100 * MiB, 0x1000)
        record = sched.container("a")
        assert record.used == 100 * MiB + OVH
        full_alloc(sched, "a", 1, 100 * MiB, 0x2000)
        assert record.used == 200 * MiB + OVH  # charged once

    def test_overhead_charged_per_pid_not_per_container(self, sched):
        sched.register_container("a", GiB)
        full_alloc(sched, "a", 1, 10 * MiB, 0x1000)
        full_alloc(sched, "a", 2, 10 * MiB, 0x2000)
        assert sched.container("a").used == 20 * MiB + 2 * OVH

    def test_exact_fit_with_overhead_granted(self, sched):
        sched.register_container("a", GiB)
        decision = sched.request_allocation("a", 1, GiB - OVH)
        assert decision.granted

    def test_pause_when_underassigned(self, sched, clock):
        sched.register_container("a", 4 * GiB)
        sched.register_container("b", 4 * GiB)  # assigned only 1 GiB
        decision = sched.request_allocation("b", 2, 2 * GiB)
        assert decision.paused
        assert sched.container("b").paused
        assert len(sched.log.of_type(AllocationPaused)) == 1

    def test_request_behind_pending_queues_fifo(self, sched):
        sched.register_container("a", 4 * GiB)
        sched.register_container("b", 4 * GiB)
        sched.request_allocation("b", 2, 2 * GiB)  # paused
        # Small request that *would* fit must still queue behind the head.
        decision = sched.request_allocation("b", 3, 10 * MiB)
        assert decision.paused

    def test_unknown_container_rejected(self, sched):
        with pytest.raises(UnknownContainerError):
            sched.request_allocation("ghost", 1, MiB)

    def test_closed_container_rejected(self, sched):
        sched.register_container("a", GiB)
        sched.container_exit("a")
        with pytest.raises(UnknownContainerError):
            sched.request_allocation("a", 1, MiB)


class TestCommitAbortRelease:
    def test_commit_moves_inflight_to_used(self, sched):
        sched.register_container("a", GiB)
        sched.request_allocation("a", 1, 100 * MiB)
        record = sched.container("a")
        assert record.inflight == 100 * MiB + OVH
        sched.commit_allocation("a", 1, 0x1000, 100 * MiB)
        assert record.inflight == 0
        assert record.used == 100 * MiB + OVH

    def test_duplicate_commit_rejected(self, sched):
        sched.register_container("a", GiB)
        full_alloc(sched, "a", 1, 10 * MiB, 0x1000)
        sched.request_allocation("a", 1, 10 * MiB)
        with pytest.raises(SchedulerError):
            sched.commit_allocation("a", 1, 0x1000, 10 * MiB)

    def test_commit_exceeding_inflight_rejected(self, sched):
        sched.register_container("a", GiB)
        with pytest.raises(SchedulerError):
            sched.commit_allocation("a", 1, 0x1000, 10 * MiB)

    def test_abort_rolls_back_overhead(self, sched):
        sched.register_container("a", GiB)
        sched.request_allocation("a", 1, 100 * MiB)
        sched.abort_allocation("a", 1, 100 * MiB)
        record = sched.container("a")
        assert record.inflight == 0
        assert 1 not in record.pids_charged  # next request re-charges

    def test_release_returns_size_and_shrinks_used(self, sched):
        sched.register_container("a", GiB)
        full_alloc(sched, "a", 1, 100 * MiB, 0x1000)
        released = sched.release_allocation("a", 1, 0x1000)
        assert released == 100 * MiB
        assert sched.container("a").used == OVH  # overhead stays

    def test_release_unknown_address_rejected(self, sched):
        sched.register_container("a", GiB)
        with pytest.raises(SchedulerError):
            sched.release_allocation("a", 1, 0xBAD)


class TestProcessExit:
    def test_reclaims_leaked_memory_and_overhead(self, sched):
        """§III-D: "some program may not free its allocated GPU memory"."""
        sched.register_container("a", GiB)
        full_alloc(sched, "a", 1, 100 * MiB, 0x1000)
        full_alloc(sched, "a", 1, 50 * MiB, 0x2000)
        reclaimed = sched.process_exit("a", 1)
        assert reclaimed == 150 * MiB + OVH
        assert sched.container("a").used == 0

    def test_only_the_exiting_pid_is_cleared(self, sched):
        sched.register_container("a", GiB)
        full_alloc(sched, "a", 1, 100 * MiB, 0x1000)
        full_alloc(sched, "a", 2, 50 * MiB, 0x2000)
        sched.process_exit("a", 1)
        assert sched.container("a").used == 50 * MiB + OVH


class TestContainerExit:
    def test_returns_reservation_to_pool(self, sched):
        sched.register_container("a", 4 * GiB)
        assert sched.unreserved == 1 * GiB
        reclaimed = sched.container_exit("a")
        assert reclaimed == 4 * GiB
        assert sched.unreserved == 5 * GiB

    def test_exit_is_idempotent(self, sched):
        sched.register_container("a", GiB)
        sched.container_exit("a")
        assert sched.container_exit("a") == 0

    def test_unknown_container_exit_is_noop(self, sched):
        assert sched.container_exit("ghost") == 0

    def test_pending_replies_failed_on_exit(self, sched):
        sched.register_container("a", 4 * GiB)
        sched.register_container("b", 4 * GiB)
        replies = []
        sched.request_allocation("b", 2, 2 * GiB, on_resume=replies.append)
        sched.container_exit("b")
        assert replies == [{"decision": "reject", "reason": "container exited"}]


class TestMemGetInfo:
    def test_container_sees_its_slice_not_the_device(self, sched):
        """Isolation (§III-A): total = limit, free = limit - used."""
        sched.register_container("a", GiB)
        full_alloc(sched, "a", 1, 100 * MiB, 0x1000)
        free, total = sched.mem_get_info("a", 1)
        assert total == GiB
        assert free == GiB - 100 * MiB - OVH


class TestRedistributionScenario:
    """The §III-E walkthrough (Fig. 3a-d) as one scripted test."""

    def test_figure_3_walkthrough(self, sched, clock):
        # (a) A and B running on the GPU.
        sched.register_container("A", 2 * GiB)
        sched.register_container("B", 2 * GiB)
        full_alloc(sched, "A", 1, GiB, 0xA)
        full_alloc(sched, "B", 2, GiB, 0xB)
        # (b) C gets only the remaining 1 GiB of its 2.5 GiB requirement.
        c = sched.register_container("C", 2560 * MiB)
        assert c.assigned == GiB
        # C works fine within its partial assignment.
        assert sched.request_allocation("C", 3, 500 * MiB).granted
        sched.commit_allocation("C", 3, 0xC1, 500 * MiB)
        # (c) C requests beyond its assignment -> suspended (valid request).
        clock.advance(10)
        c_replies = []
        decision = sched.request_allocation(
            "C", 3, 1500 * MiB, on_resume=c_replies.append
        )
        assert decision.paused
        # D arrives with nothing assigned and suspends immediately.
        d = sched.register_container("D", 2 * GiB)
        assert d.assigned == 0
        d_replies = []
        assert sched.request_allocation(
            "D", 4, GiB, on_resume=d_replies.append
        ).paused
        # (d) B terminates; C is first (FIFO) and resumes fully...
        clock.advance(10)
        sched.container_exit("B")
        assert c_replies == [{"decision": "grant"}]
        assert sched.container("C").assigned == 2560 * MiB
        # ...while D got the leftovers but remains suspended.
        assert d_replies == []
        assert sched.container("D").paused
        assert sched.container("D").assigned > 0
        # Suspension time was accounted for C (Fig. 8 metric).
        assert sched.container("C").suspended_total == pytest.approx(10.0)
        sched.check_invariants()


class TestWedgeResolution:
    def test_all_paused_wedge_is_broken(self, clock):
        """Deadlock prevention (§I): no all-paused starvation.

        Under Recent-Use, a redistribution can dump the freed memory into
        the most-recently-suspended container *partially*, leaving every
        open container paused with stranded partial reservations.  The
        reclaim step must break that wedge.
        """
        sched = GpuMemoryScheduler(5 * GiB, make_policy("RU"), clock=clock)
        replies = {"b": [], "c": []}
        # a: 2 GiB, fully assigned, actually allocating -> running.
        sched.register_container("a", 2 * GiB)
        full_alloc(sched, "a", 1, int(1.9 * GiB), 0xA)
        # b: 4 GiB wanted, only 3 GiB left -> partial; pauses on 3.9 GiB.
        sched.register_container("b", 4 * GiB)
        clock.advance(1)
        assert sched.request_allocation(
            "b", 2, int(3.9 * GiB), on_resume=replies["b"].append
        ).paused
        # c: 4 GiB wanted, nothing left -> assigned 0; pauses too (later).
        sched.register_container("c", 4 * GiB)
        clock.advance(1)
        assert sched.request_allocation(
            "c", 3, int(3.9 * GiB), on_resume=replies["c"].append
        ).paused
        # a exits.  RU picks c (most recent), whose 4 GiB insufficiency
        # swallows the 2 GiB freed without resuming -> would be a wedge.
        sched.container_exit("a")
        resumed = replies["b"] + replies["c"]
        assert {"decision": "grant"} in resumed
        assert len(sched.log.of_type(ReservationReclaimed)) >= 1
        sched.check_invariants()

    def test_no_reclaim_while_someone_runs(self, sched):
        sched.register_container("a", GiB)
        sched.register_container("b", 5 * GiB)  # partial
        sched.request_allocation("b", 2, 5 * GiB - OVH)  # paused
        # a is registered and not paused -> no wedge.
        assert len(sched.log.of_type(ReservationReclaimed)) == 0


class TestSuspendedAccounting:
    def test_wait_duration_recorded(self, sched, clock):
        sched.register_container("a", 5 * GiB)
        sched.register_container("b", GiB)
        assert sched.container("b").assigned == 0
        sched.request_allocation("b", 2, 100 * MiB)
        clock.advance(42.0)
        sched.container_exit("a")
        resumed = sched.log.of_type(AllocationResumed)
        assert len(resumed) == 1
        assert resumed[0].waited == pytest.approx(42.0)
        assert sched.container("b").suspended_total == pytest.approx(42.0)
        assert sched.container("b").pause_count == 1


class TestResumeModes:
    @pytest.mark.parametrize("mode,resumes", [("fit", True), ("full", False)])
    def test_fit_resumes_on_headroom_full_waits_for_limit(self, clock, mode, resumes):
        sched = GpuMemoryScheduler(
            5 * GiB, make_policy("FIFO"), clock=clock, resume_mode=mode
        )
        sched.register_container("a", 4 * GiB)
        sched.register_container("b", 2 * GiB)  # partial: 1 GiB assigned
        # pid 2 fills most of b's partial assignment...
        full_alloc(sched, "b", 2, 800 * MiB, 0xB1)
        # ...so pid 3's request pauses (866+500+66 > 1024 assigned).
        assert sched.request_allocation("b", 3, 500 * MiB).paused
        # pid 2 frees: the pending 566 MiB now fits the 1 GiB assignment.
        sched.release_allocation("b", 2, 0xB1)
        # "fit" resumes on headroom; "full" still demands assigned == limit.
        assert sched.container("b").paused is not resumes

    def test_unknown_mode_rejected(self, clock):
        with pytest.raises(SchedulerError):
            GpuMemoryScheduler(
                GiB, make_policy("FIFO"), clock=clock, resume_mode="later"
            )


class TestRefusedVerbLeavesStateUntouched:
    """A verb that raises must not half-mutate: nothing is written before
    its event exists, so the state serializes exactly as before the call."""

    @pytest.fixture
    def granted(self, sched):
        # pid 1: one committed allocation; pid 2: 16 MiB (+overhead) inflight.
        sched.register_container("a", GiB)
        full_alloc(sched, "a", 1, 10 * MiB, 0x1)
        assert sched.request_allocation("a", 2, 16 * MiB).granted
        return sched

    @pytest.mark.parametrize(
        "refused",
        [
            lambda s: s.commit_allocation("a", 2, 0x2, 32 * MiB),  # > inflight
            lambda s: s.abort_allocation("a", 2, 32 * MiB),  # > inflight
            lambda s: s.release_allocation("a", 1, 0xDEAD),  # unknown address
        ],
        ids=["commit", "abort", "release"],
    )
    def test_state_and_log_unchanged(self, granted, refused):
        before = granted.state.serialize()
        events = len(granted.log)
        with pytest.raises(SchedulerError):
            refused(granted)
        assert granted.state.serialize() == before
        assert len(granted.log) == events
        # The correct commit still finds its overhead charge pending.
        granted.commit_allocation("a", 2, 0x2, 16 * MiB)
        record = granted.container("a")
        assert record.inflight == 0
        assert record.used == 26 * MiB + 2 * OVH
        granted.check_invariants()


class TestOneMutator:
    def test_only_apply_event_and_load_snapshot_write_bookkeeping(self):
        """Structural guard (DESIGN.md §11): in ``SchedulerState`` no store
        to an attribute or subscript, and no in-place mutator call on one,
        outside ``apply_event`` / ``load_snapshot``.  Allowed: building the
        ``Transition`` and attaching the unjournaled ``pending.resume``."""
        writers = ("__init__", "apply_event", "load_snapshot")
        mutators = {"add", "discard", "remove", "pop", "append", "insert", "extend"}
        mutators |= {"clear", "update", "setdefault", "rebuild"}
        mutators |= {"on_pause", "on_resume", "on_assign", "on_close"}
        places = (ast.Attribute, ast.Subscript)

        def allowed(target):
            text = ast.unparse(target)
            return text.startswith("transition.") or text.endswith(".resume")

        (cls,) = ast.parse(textwrap.dedent(inspect.getsource(SchedulerState))).body
        offenders = []
        for method in cls.body:
            if not isinstance(method, ast.FunctionDef) or method.name in writers:
                continue
            for node in ast.walk(method):
                target = None
                if isinstance(node, places) and not isinstance(node.ctx, ast.Load):
                    target = node
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in mutators
                    and isinstance(node.func.value, places)
                ):
                    target = node.func.value
                if target is not None and not allowed(target):
                    offenders.append(f"{method.name}: {ast.unparse(node)}")
        assert not offenders, offenders


class TestOverheadDisabled:
    def test_zero_overhead_ablation(self, clock):
        sched = GpuMemoryScheduler(
            GiB, make_policy("FIFO"), clock=clock, context_overhead=0
        )
        sched.register_container("a", 256 * MiB)
        decision = sched.request_allocation("a", 1, 256 * MiB)
        assert decision.granted  # no overhead: full limit allocatable
        sched.commit_allocation("a", 1, 0x1, 256 * MiB)
        assert sched.container("a").used == 256 * MiB


class TestInvariantChecker:
    def test_clean_state_passes(self, sched):
        sched.register_container("a", GiB)
        full_alloc(sched, "a", 1, 10 * MiB, 0x1)
        sched.check_invariants()

    def test_corruption_detected(self, sched):
        sched.register_container("a", GiB)
        sched.container("a").used = 123  # corrupt directly
        with pytest.raises(SchedulerError):
            sched.check_invariants()
