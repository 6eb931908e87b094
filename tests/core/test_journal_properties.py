"""Property-based crash-consistency suite for the scheduler journal.

Random operation sequences drive a journaled scheduler; the properties
assert that

1. restoring from the journal reproduces the live state exactly
   (``serialize_state`` equality — byte-identical, not just invariant-safe);
2. killing the daemon at *every* event boundary (``restore(event_limit=k)``)
   yields a scheduler whose accounting invariants hold;
3. snapshot compaction is semantically invisible — any ``snapshot_interval``
   restores to the same state as the pure event log, in either journal
   mode, and the restored event log equals the live one: both hold exactly
   the events since the newest snapshot.

All four paper policies are exercised; the Random policy is the acid test
for the replay design (derived decisions are applied verbatim from the
journal, never re-drawn from the RNG).
"""

import itertools
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.scheduler import (
    GpuMemoryScheduler,
    PAPER_POLICIES,
    SchedulerJournal,
    make_policy,
    read_journal,
    restore,
    serialize_state,
    snapshot,
)
from repro.errors import SchedulerError
from repro.units import MiB

from tests.conftest import ManualClock

TOTAL = 1024 * MiB
CONTAINER_IDS = ("c0", "c1", "c2")
LIMITS = (256 * MiB, 512 * MiB, 768 * MiB)
SIZES = (32 * MiB, 128 * MiB, 300 * MiB, 600 * MiB)

OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("advance"), st.sampled_from((0.5, 1.0, 2.5))),
        st.tuples(
            st.just("register"),
            st.sampled_from(CONTAINER_IDS),
            st.sampled_from(LIMITS),
        ),
        st.tuples(
            st.just("alloc"),
            st.sampled_from(CONTAINER_IDS),
            st.integers(min_value=1, max_value=3),  # pid
            st.sampled_from(SIZES),
            st.booleans(),  # commit the grant (else abort — native failure)
        ),
        st.tuples(st.just("commit_resumed"), st.integers(min_value=0, max_value=7)),
        st.tuples(st.just("release"), st.integers(min_value=0, max_value=15)),
        st.tuples(
            st.just("pexit"),
            st.sampled_from(CONTAINER_IDS),
            st.integers(min_value=1, max_value=3),
        ),
        st.tuples(st.just("cexit"), st.sampled_from(CONTAINER_IDS)),
    ),
    min_size=1,
    max_size=25,
)


def run_operations(scheduler, clock, ops, after_op=None):
    """Drive the scheduler through one random schedule.

    Invalid operations (allocating in an unregistered container, releasing
    an address twice, ...) are simply skipped — the generator explores the
    schedule space; the *scheduler* is the validity oracle.  ``after_op``
    (if given) is called with the op index after each op — the compaction
    property uses it to compact at arbitrary points in the stream.
    """
    next_address = 1
    committed = []        # (container_id, pid, address) live on the device
    resumed = []          # grants delivered through on_resume, not yet committed

    def make_on_resume(container_id, pid, size):
        def on_resume(payload):
            if payload.get("decision") == "grant":
                resumed.append((container_id, pid, size))
        return on_resume

    for index, op in enumerate(ops):
        kind = op[0]
        try:
            if kind == "advance":
                clock.advance(op[1])
            elif kind == "register":
                scheduler.register_container(op[1], op[2])
            elif kind == "alloc":
                _, cid, pid, size, commit = op
                decision = scheduler.request_allocation(
                    cid, pid, size, on_resume=make_on_resume(cid, pid, size)
                )
                if decision.granted:
                    if commit:
                        scheduler.commit_allocation(cid, pid, next_address, size)
                        committed.append((cid, pid, next_address))
                        next_address += 1
                    else:
                        scheduler.abort_allocation(cid, pid, size)
            elif kind == "commit_resumed":
                if resumed:
                    cid, pid, size = resumed.pop(op[1] % len(resumed))
                    scheduler.commit_allocation(cid, pid, next_address, size)
                    committed.append((cid, pid, next_address))
                    next_address += 1
            elif kind == "release":
                if committed:
                    cid, pid, address = committed.pop(op[1] % len(committed))
                    scheduler.release_allocation(cid, pid, address)
            elif kind == "pexit":
                _, cid, pid = op
                scheduler.process_exit(cid, pid)
                committed[:] = [c for c in committed if c[:2] != (cid, pid)]
            elif kind == "cexit":
                scheduler.container_exit(op[1])
                committed[:] = [c for c in committed if c[0] != op[1]]
        except SchedulerError:
            pass
        if after_op is not None:
            after_op(index)
    scheduler.check_invariants()


def journaled_run(policy_name, ops, *, snapshot_interval=None, seed=0,
                  compact_after=(), mode="group"):
    """Execute ``ops`` under a journal; return (scheduler, clock, path).

    ``compact_after`` is a collection of op indices: after each one, the
    journal is compacted in place (sidecar rewrite + atomic rename) while
    the run keeps going — the compaction-invisibility property.
    """
    clock = ManualClock()
    scheduler = GpuMemoryScheduler(
        TOTAL,
        make_policy(policy_name, np.random.default_rng(seed)),
        clock=clock,
    )
    fd, path = tempfile.mkstemp(suffix=".journal")
    os.close(fd)
    os.unlink(path)  # journal wants to create it
    journal = SchedulerJournal(
        path, snapshot_interval=snapshot_interval, mode=mode
    )
    journal.attach(scheduler)
    compact_points = frozenset(compact_after)
    after_op = None
    if compact_points:
        def after_op(index):
            if index in compact_points:
                assert journal.compact()
    try:
        run_operations(scheduler, clock, ops, after_op=after_op)
    finally:
        journal.close()
    return scheduler, clock, path


def cleanup(path):
    if os.path.exists(path):
        os.unlink(path)


@pytest.mark.parametrize("policy_name", PAPER_POLICIES)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=OPERATIONS)
def test_restore_reproduces_live_state(policy_name, ops):
    """The tentpole guarantee: restored state is identical to pre-crash."""
    live, clock, path = journaled_run(policy_name, ops)
    try:
        restored = restore(path, clock=clock)
        assert serialize_state(restored) == serialize_state(live)
        assert snapshot(restored) == snapshot(live)
        assert restored.log.events == live.log.events
        restored.check_invariants()
    finally:
        cleanup(path)


@pytest.mark.parametrize("policy_name", PAPER_POLICIES)
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=OPERATIONS)
def test_crash_at_every_event_boundary(policy_name, ops):
    """Kill-and-restore after each journaled event never corrupts state.

    The pure log (``snapshot_interval=None``) is the oracle: a journal of
    the same ops with interval snapshots restores, at every ``k``, to the
    state the pure log gives at that ``k`` — a snapshot between the k-th
    event and the next one counts — and to the log cut at that snapshot.
    """
    live, clock, path = journaled_run(policy_name, ops)
    history = live.log.events
    oracle = []
    try:
        for k in range(len(history) + 1):
            oracle.append(serialize_state(restore(path, clock=clock, event_limit=k)))
        # The final boundary is the live scheduler.
        assert oracle[-1] == serialize_state(live)
    finally:
        cleanup(path)
    for interval in (None, 1, 3):
        _, clock, path = journaled_run(policy_name, ops, snapshot_interval=interval)
        try:
            # Events ahead of each snapshot record: where the log restarts.
            cuts, events = [0], 0
            for record in read_journal(path)[1]:
                if record["kind"] == "snapshot":
                    cuts.append(events)
                else:
                    events += 1
            assert events == len(history)
            for k in range(len(history) + 1):
                partial = restore(path, clock=clock, event_limit=k)
                partial.check_invariants()
                assert serialize_state(partial) == oracle[k], (interval, k)
                cut = max(c for c in cuts if c <= k)
                assert partial.log.events == history[cut:k], (interval, k)
        finally:
            cleanup(path)


@pytest.mark.parametrize("policy_name", ("FIFO", "Rand"))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=OPERATIONS)
def test_snapshot_compaction_is_invisible(policy_name, ops):
    """Every snapshot_interval restores to the same state as the pure log."""
    reference, clock, ref_path = journaled_run(policy_name, ops)
    expected = serialize_state(reference)
    try:
        for mode, interval in itertools.product(("group", "sync"), (1, 3, 256)):
            live, iclock, ipath = journaled_run(
                policy_name, ops, snapshot_interval=interval, mode=mode
            )
            try:
                restored = restore(ipath, clock=iclock)
                assert serialize_state(restored) == expected
                assert restored.log.events == live.log.events
            finally:
                cleanup(ipath)
    finally:
        cleanup(ref_path)


@pytest.mark.parametrize("policy_name", ("FIFO", "Rand"))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=OPERATIONS, data=st.data())
def test_compaction_at_random_points_is_invisible(policy_name, ops, data):
    """Compacting mid-stream never changes what recovery reconstructs.

    The journal is rewritten (snapshot + tail, atomic rename) after
    arbitrary ops while the run continues on the re-opened handle; the
    final restore must still be byte-identical to the live scheduler, and
    every remaining crash boundary (event_limit over the surviving tail)
    must restore a prefix of the live history with invariants intact.
    """
    reference, _, ref_path = journaled_run(policy_name, ops)
    expected = serialize_state(reference)
    cleanup(ref_path)
    compact_points = data.draw(
        st.sets(st.integers(min_value=0, max_value=len(ops) - 1), max_size=3),
        label="compact_after",
    )
    live, clock, path = journaled_run(
        policy_name, ops, compact_after=compact_points
    )
    try:
        restored = restore(path, clock=clock)
        assert serialize_state(restored) == expected
        assert serialize_state(live) == expected
        # Both logs are exactly the events since the newest snapshot.
        tail = restored.log.events
        assert tail == live.log.events
        for k in range(len(tail) + 1):
            partial = restore(path, clock=clock, event_limit=k)
            partial.check_invariants()
            assert partial.log.events == tail[:k]
    finally:
        cleanup(path)


@pytest.mark.parametrize("stage", ("mid_rewrite", "pre_rename", "post_rename"))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=OPERATIONS)
def test_crash_at_compaction_boundary(stage, ops):
    """Crashing anywhere inside a compaction never loses or forks state.

    The compactor's three crash windows: mid-sidecar-rewrite (half-written
    sidecar beside the intact journal), prepared-but-pre-rename (complete
    sidecar beside the intact journal), and post-rename-pre-reopen (the
    compacted file *is* the journal).  In every case restore must be
    byte-identical, and the next attach must clean up any stale sidecar
    and keep journaling.
    """
    live, clock, path = journaled_run("FIFO", ops)
    expected = serialize_state(live)
    sidecar = path + ".compact"
    try:
        # Recreate the compactor's on-disk artifacts by hand, then "crash".
        scheduler = restore(path, clock=clock)
        journal = SchedulerJournal(path, snapshot_interval=None, mode="sync")
        journal.attach(scheduler, compact=True)  # guarantees a snapshot
        journal.close()
        prepared, _ = journal._prepare_sidecar()
        assert prepared == sidecar
        if stage == "mid_rewrite":
            with open(sidecar, "rb+") as fh:
                fh.truncate(max(1, os.path.getsize(sidecar) // 2))
        elif stage == "post_rename":
            os.rename(sidecar, path)
        # pre_rename: the complete sidecar sits beside the intact journal.

        restored = restore(path, clock=clock)
        assert serialize_state(restored) == expected
        # Recovery re-attach: stale sidecar removed, journaling continues.
        journal2 = SchedulerJournal(path)
        journal2.attach(restored, compact=True)
        assert not os.path.exists(sidecar)
        journal2.close()
        assert serialize_state(restore(path, clock=clock)) == expected
    finally:
        cleanup(path)
        cleanup(sidecar)


@pytest.mark.stress
@pytest.mark.parametrize("policy_name", PAPER_POLICIES)
@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ops=OPERATIONS)
def test_crash_consistency_stress(policy_name, ops):
    """The deep lane: many more random schedules (run with `pytest -m stress`)."""
    live, clock, path = journaled_run(policy_name, ops)
    try:
        restored = restore(path, clock=clock)
        assert serialize_state(restored) == serialize_state(live)
        for k in range(len(live.log) + 1):
            restore(path, clock=clock, event_limit=k).check_invariants()
    finally:
        cleanup(path)
