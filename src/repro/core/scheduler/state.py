"""Pure transition core of the GPU memory scheduler (DESIGN.md §11).

This module is the lock-free half of the core/runtime split: a
:class:`SchedulerState` owns every byte of bookkeeping (§III-D's records,
the sequence counter, the reserved-memory total and the policy's candidate
index) and exposes one deterministic **transition function** per protocol
verb.  Every transition has the same shape — *validate → decide → build
the event → emit* — and :meth:`SchedulerState.apply_event` is the only
code that writes bookkeeping: ``_emit`` applies each event through it
before handing it to the runtime, and the journal's replay calls it
directly.  The live path and recovery therefore run the same statements,
and a refused verb leaves the state untouched because nothing mutates
before its event exists.  A transition returns a :class:`Transition`
describing everything that must happen *outside* the caller's critical
section:

- ``events``      — the typed scheduler events (already applied) that the
  runtime appends to its :class:`~repro.core.scheduler.events.EventLog`
  (and thus the journal);
- ``resumptions`` — deferred-reply callbacks to deliver (socket I/O);
- ``waits``       — pause durations to feed the latency histogram.

Nothing in this file touches a lock, a clock, a socket, a metric or a file
descriptor: timestamps come in through the explicit ``now`` argument and
all effects go out through the :class:`Transition`.  That makes every
transition a plain function of ``(state, inputs, now)`` — the property the
golden-trace suite and the journal's crash-consistency suite both lean on.

The runtime wrapper that adds the mutex, the event log, metrics and the
group-commit journal handshake lives in
:class:`~repro.core.scheduler.core.GpuMemoryScheduler`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.core.scheduler.events import (
    AllocationAborted,
    AllocationCommitted,
    AllocationGranted,
    AllocationPaused,
    AllocationRejected,
    AllocationReleased,
    AllocationResumed,
    ContainerClosed,
    ContainerRegistered,
    MemoryAssigned,
    ProcessExited,
    ReservationReclaimed,
    SchedulerEvent,
)
from repro.core.scheduler.policies import CandidateIndex, SchedulingPolicy
from repro.core.scheduler.records import (
    UNATTRIBUTED_PID,
    AllocationRecord,
    ContainerRecord,
    PendingAllocation,
)
from repro.errors import (
    JournalError,
    LimitExceededError,
    SchedulerError,
    UnknownContainerError,
)
from repro.units import MiB, format_size

__all__ = [
    "CONTEXT_OVERHEAD_CHARGE",
    "Decision",
    "Transition",
    "SchedulerState",
]

#: What §III-D charges per pid on its first allocation: 64 MiB process data
#: + 2 MiB context.
CONTEXT_OVERHEAD_CHARGE: int = 66 * MiB

#: A deferred-reply delivery: ``callback(payload)``, run outside the lock.
Resumption = tuple[Callable[[dict[str, Any]], None], dict[str, Any]]


class Decision:
    """Outcome of an allocation request."""

    GRANT = "grant"
    PAUSE = "pause"
    REJECT = "reject"

    __slots__ = ("kind", "reason")

    def __init__(self, kind: str, reason: str = "") -> None:
        self.kind = kind
        self.reason = reason

    @property
    def granted(self) -> bool:
        return self.kind == Decision.GRANT

    @property
    def paused(self) -> bool:
        return self.kind == Decision.PAUSE

    @property
    def rejected(self) -> bool:
        return self.kind == Decision.REJECT

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        suffix = f" ({self.reason})" if self.reason else ""
        return f"<Decision {self.kind}{suffix}>"


@dataclass
class Transition:
    """What one transition decided plus the effects it deferred.

    The pure core *describes* effects; the runtime *executes* them after
    releasing the mutex.  ``metric`` names the decision counter to bump
    (``None`` e.g. for an adopted orphan, which the seed implementation
    also did not re-count).
    """

    value: Any = None
    events: list[SchedulerEvent] = field(default_factory=list)
    resumptions: list[Resumption] = field(default_factory=list)
    #: Pause durations (seconds) resolved by this transition.
    waits: list[float] = field(default_factory=list)
    metric: str | None = None


class SchedulerState:
    """Lock-free scheduler bookkeeping + deterministic transitions.

    Single-threaded by contract: the caller (the runtime facade, the
    journal's replay loop, or a test) serializes access.  ``reserved`` is
    maintained incrementally so the redistribution loop's free-memory reads
    are O(1) instead of a rescan per pick.
    """

    def __init__(
        self,
        total_memory: int,
        policy: SchedulingPolicy,
        *,
        context_overhead: int = CONTEXT_OVERHEAD_CHARGE,
        resume_mode: str = "fit",
    ) -> None:
        if total_memory <= 0:
            raise SchedulerError(f"total_memory must be positive: {total_memory}")
        if resume_mode not in ("fit", "full"):
            raise SchedulerError(f"unknown resume_mode {resume_mode!r}")
        if context_overhead < 0:
            raise SchedulerError("context_overhead must be >= 0")
        self.total_memory = total_memory
        self.policy = policy
        self.context_overhead = context_overhead
        self.resume_mode = resume_mode
        self._containers: dict[str, ContainerRecord] = {}
        self._seq = 0
        #: Sum of the containers' ``assigned``, maintained incrementally.
        self._reserved = 0
        #: The policy's incremental candidate index over *this* state (one
        #: index per state, so one policy instance can serve several states).
        self._index: CandidateIndex = policy.make_index(self)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def reserved(self) -> int:
        """Sum of all live reservations (O(1))."""
        return self._reserved

    @property
    def unreserved(self) -> int:
        """Physical memory not promised to any container (O(1))."""
        return self.total_memory - self._reserved

    @property
    def seq(self) -> int:
        """Registrations so far: the counter ``created_seq`` is drawn from."""
        return self._seq

    def records(self) -> Iterable[ContainerRecord]:
        """The live containers' records, in ``created_seq`` order.

        A snapshot tuple, not a live view: callers iterate outside the
        runtime lock (policy indexes hold one across transitions), and a
        live ``.values()`` view would mutate under them (state-escape).
        """
        return tuple(self._containers.values())

    def container(self, container_id: str) -> ContainerRecord:
        record = self._containers.get(container_id)
        if record is None:
            raise UnknownContainerError(f"unknown container {container_id!r}")
        return record

    def mem_get_info(self, container_id: str, pid: int) -> tuple[int, int]:
        """The container's virtualized ``cudaMemGetInfo`` view (§IV-B)."""
        record = self.container(container_id)
        return record.limit - record.used - record.inflight, record.limit

    def check_invariants(self) -> None:
        """Assert global accounting invariants (property tests lean on this)."""
        reserved = 0
        for record in self._containers.values():
            if not 0 <= record.assigned <= record.limit:
                raise SchedulerError(
                    f"{record.container_id}: assigned {record.assigned} "
                    f"outside [0, {record.limit}]"
                )
            if record.used + record.inflight > record.assigned:
                raise SchedulerError(
                    f"{record.container_id}: used+inflight "
                    f"{record.used + record.inflight} > assigned {record.assigned}"
                )
            committed = sum(r.size for r in record.allocations.values())
            if committed != record.used:
                raise SchedulerError(
                    f"{record.container_id}: used {record.used} != "
                    f"sum(allocations) {committed}"
                )
            by_pid = record.inflight_by_pid
            if sum(by_pid.values()) != record.inflight or min(
                by_pid.values(), default=1
            ) <= 0:
                raise SchedulerError(
                    f"{record.container_id}: inflight {record.inflight} != "
                    f"sum of its pids' {by_pid}"
                )
            uncharged = by_pid.keys() - record.pids_charged - {UNATTRIBUTED_PID}
            if uncharged:
                raise SchedulerError(
                    f"{record.container_id}: pids {sorted(uncharged)} hold "
                    f"inflight bytes but were never charged"
                )
            reserved += record.assigned
        if reserved > self.total_memory:
            raise SchedulerError(f"over-reserved: {reserved} > {self.total_memory}")
        if reserved != self._reserved:
            raise SchedulerError(
                f"reserved counter drifted: cached {self._reserved} != "
                f"actual {reserved}"
            )

    def _emit(self, transition: Transition, event: SchedulerEvent) -> None:
        """Apply ``event`` to the bookkeeping and hand it to the runtime.

        The single point where a live transition changes state: the same
        :meth:`apply_event` the journal's replay runs.
        """
        self.apply_event(event)
        transition.events.append(event)

    # ------------------------------------------------------------------
    # transitions: registration / teardown
    # ------------------------------------------------------------------

    def register(self, container_id: str, limit: int, now: float) -> Transition:
        """Declare a container's limit before it is created (§III-B).

        Immediately reserves ``min(limit, unreserved)`` for it (Fig. 3b);
        the remainder arrives later through redistribution.
        """
        if limit <= 0:
            raise SchedulerError(f"limit must be positive: {limit}")
        if limit > self.total_memory:
            raise LimitExceededError(
                f"limit {format_size(limit)} exceeds GPU capacity "
                f"{format_size(self.total_memory)}"
            )
        if container_id in self._containers:
            raise SchedulerError(f"container {container_id!r} already registered")
        transition = Transition()
        self._emit(
            transition,
            ContainerRegistered(
                time=now,
                container_id=container_id,
                limit=limit,
                assigned=min(limit, self.unreserved),
            ),
        )
        transition.value = self._containers[container_id]
        return transition

    def container_exit(self, container_id: str, now: float) -> Transition:
        """The nvidia-docker-plugin's *close* signal (§III-B).

        Clears every record of the container, fails any still-pending
        allocations (their processes are gone anyway, but the reply handles
        must not leak), returns the reservation to the pool, and triggers
        redistribution.  ``value`` is the bytes reclaimed.
        """
        transition = Transition(value=0)
        record = self._containers.get(container_id)
        if record is None:
            return transition
        reclaimed = record.assigned
        suspended_total = record.suspended_total
        # Fail pending replies in-band before the event drops them.
        for pending in record.pending:
            suspended_total += now - pending.requested_at
            transition.waits.append(now - pending.requested_at)
            if pending.resume is not None:
                transition.resumptions.append(
                    (pending.resume, {"decision": "reject", "reason": "container exited"})
                )
        self._emit(
            transition,
            ContainerClosed(
                time=now,
                container_id=container_id,
                reclaimed=reclaimed,
                suspended_total=suspended_total,
            ),
        )
        self._redistribute(now, transition)
        self._resolve_wedge(now, transition)
        transition.value = reclaimed
        return transition

    # ------------------------------------------------------------------
    # transitions: the allocation protocol (wrapper-facing)
    # ------------------------------------------------------------------

    def request(
        self,
        container_id: str,
        pid: int,
        size: int,
        api: str,
        on_resume: Callable[[dict[str, Any]], None] | None,
        now: float,
    ) -> Transition:
        """The wrapper's pre-allocation size check (§III-C step 1).

        ``value`` is the :class:`Decision`; a PAUSE decision queues the
        request and ``on_resume`` is eventually delivered the withheld
        reply payload (grant or reject) by a later transition.
        """
        if size <= 0:
            raise SchedulerError(f"allocation size must be positive: {size}")
        transition = Transition()
        record = self.container(container_id)
        if on_resume is not None and self._adopt_orphan(
            record, pid, size, api, on_resume
        ):
            transition.value = Decision(Decision.PAUSE)
            return transition
        demand = (
            record.used
            + record.inflight
            + record.effective_size(pid, size, self.context_overhead)
        )
        if demand > record.limit:
            self._emit(
                transition,
                AllocationRejected(
                    time=now,
                    container_id=container_id,
                    pid=pid,
                    size=size,
                    reason="exceeds container limit",
                ),
            )
            transition.value = Decision(Decision.REJECT, "exceeds container limit")
            transition.metric = Decision.REJECT
            return transition
        if not record.paused and demand <= record.assigned:
            self._emit(
                transition,
                AllocationGranted(
                    time=now, container_id=container_id, pid=pid, size=size, api=api
                ),
            )
            transition.value = Decision(Decision.GRANT)
            transition.metric = Decision.GRANT
            return transition
        # Valid but under-assigned (or behind earlier pending requests):
        # withhold the reply.  Fig. 3c.
        self._emit(
            transition,
            AllocationPaused(
                time=now, container_id=container_id, pid=pid, size=size, api=api
            ),
        )
        # The callback wraps a live socket: not journaled, so not the event's.
        record.pending[-1].resume = on_resume
        transition.value = Decision(Decision.PAUSE)
        transition.metric = Decision.PAUSE
        # This pause may have been the last runnable container going idle:
        # check for the all-paused wedge and break it if so.
        self._resolve_wedge(now, transition)
        return transition

    def commit(
        self, container_id: str, pid: int, address: int, size: int, now: float
    ) -> Transition:
        """The wrapper's post-allocation report: address + pid + size.

        Moves the inflight reservation to committed usage and records the
        address in the hash structure.  The first commit of a pid also
        materializes its context-overhead record.
        """
        transition = Transition()
        record = self.container(container_id)
        if address in record.allocations:
            raise SchedulerError(
                f"duplicate commit for address {address:#x} in {container_id}"
            )
        total = size + (self.context_overhead if pid in record.overhead_pending else 0)
        inflight = self._inflight_for(record, pid, total)
        if total > inflight:
            raise SchedulerError(
                f"commit of {format_size(total)} exceeds pid {pid}'s inflight "
                f"{format_size(inflight)} in {container_id}"
            )
        self._emit(
            transition,
            AllocationCommitted(
                time=now,
                container_id=container_id,
                pid=pid,
                address=address,
                size=size,
            ),
        )
        return transition

    def abort(self, container_id: str, pid: int, size: int, now: float) -> Transition:
        """The wrapper reports that the *native* allocation failed.

        Rolls the inflight reservation back (including the overhead charge
        when it was the last grant of a pid with no committed allocation
        yet), then re-checks this container's own pending queue — the freed
        headroom may unblock it.
        """
        transition = Transition()
        record = self.container(container_id)
        # While the pid owes its charge, the charge stays inflight with it.
        needed = size + (
            self.context_overhead if pid in record.overhead_pending else 0
        )
        inflight = self._inflight_for(record, pid, needed)
        if needed > inflight:
            raise SchedulerError(
                f"abort of {format_size(needed)} exceeds pid {pid}'s inflight "
                f"{format_size(inflight)} in {container_id}"
            )
        self._emit(
            transition,
            AllocationAborted(time=now, container_id=container_id, pid=pid, size=size),
        )
        self._try_resume(record, now, transition)
        self._resolve_wedge(now, transition)
        return transition

    def release(
        self, container_id: str, pid: int, address: int, now: float
    ) -> Transition:
        """``cudaFree`` path: drop the hash entry, shrink usage (§III-C).

        Freed bytes stay inside the container's reservation (the guarantee
        is for the container's lifetime) but may resume the container's own
        pending allocations.  ``value`` is the released size.
        """
        transition = Transition()
        record = self.container(container_id)
        allocation = record.allocations.get(address)
        if allocation is None:
            raise SchedulerError(
                f"release of unknown address {address:#x} in {container_id}"
            )
        self._emit(
            transition,
            AllocationReleased(
                time=now,
                container_id=container_id,
                pid=pid,
                address=address,
                size=allocation.size,
            ),
        )
        self._try_resume(record, now, transition)
        self._resolve_wedge(now, transition)
        transition.value = allocation.size
        return transition

    def process_exit(self, container_id: str, pid: int, now: float) -> Transition:
        """``__cudaUnregisterFatBinary`` path (§III-C/D).

        Drops *all* allocation records of the pid — "some program may not
        free its allocated GPU memory" — including its context-overhead
        charge, and the bytes it was granted but never committed.
        ``value`` is the bytes reclaimed into the reservation.
        """
        transition = Transition()
        record = self.container(container_id)
        reclaimed = record.usage_of_pid(pid) + record.inflight_by_pid.get(pid, 0)
        self._emit(
            transition,
            ProcessExited(
                time=now, container_id=container_id, pid=pid, reclaimed=reclaimed
            ),
        )
        self._try_resume(record, now, transition)
        self._resolve_wedge(now, transition)
        transition.value = reclaimed
        return transition

    # ------------------------------------------------------------------
    # redistribution + resumption
    # ------------------------------------------------------------------

    def _redistribute(self, now: float, transition: Transition) -> None:
        """Hand unreserved memory to paused containers via the policy.

        The candidate index makes each pick O(log n) (heap pop / bisect)
        instead of the seed's O(n) candidate-list rebuild; the pool size is
        the O(1) incremental ``unreserved``.
        """
        while True:
            free = self.unreserved
            if free <= 0:
                break
            chosen = self._index.pick(free)
            if chosen is None:
                break
            amount = min(chosen.insufficiency, free)
            if amount <= 0:  # defensive; the index only yields insufficiency > 0
                break
            self._emit(
                transition,
                MemoryAssigned(
                    time=now,
                    container_id=chosen.container_id,
                    amount=amount,
                    assigned_total=chosen.assigned + amount,
                    policy=self.policy.name,
                ),
            )
            self._try_resume(chosen, now, transition)

    def _resolve_wedge(self, now: float, transition: Transition) -> None:
        """Break the all-paused reservation wedge (deadlock prevention, §I).

        Partial reservations (registration grants and policy leftovers,
        Fig. 3b/3d) can reach a state where *every* open container is
        paused and every byte is reserved — nobody can run, nobody will
        exit, nothing will ever be redistributed.  The paper asserts its
        algorithms "can prevent the system from falling into deadlock
        situations"; the mechanism we implement for that guarantee is:

        when no open container is runnable, reclaim the *idle* part of
        every paused container's reservation (memory they cannot use —
        their head request exceeds it by definition) back into the pool and
        re-run the policy loop, which then completes containers one at a
        time instead of leaving everyone starved.
        """
        records = self._containers.values()
        if not records or any(not r.paused for r in records):
            return
        reclaimed = 0
        for record in records:
            idle = record.assigned - record.used - record.inflight
            if idle > 0:
                reclaimed += idle
                self._emit(
                    transition,
                    ReservationReclaimed(
                        time=now,
                        container_id=record.container_id,
                        amount=idle,
                        assigned_total=record.assigned - idle,
                    ),
                )
        if reclaimed:
            self._redistribute(now, transition)

    def _try_resume(
        self, record: ContainerRecord, now: float, transition: Transition
    ) -> None:
        """Resume the head of the pending queue while it fits.

        Pending requests resume strictly in order — the wrapper blocks the
        calling thread per request, so out-of-order resumption cannot
        happen on the real socket either.
        """
        while record.pending:
            head = record.pending[0]
            if self.resume_mode == "full" and record.assigned < record.limit:
                break
            if record.used + record.inflight + head.size > record.assigned:
                break
            # With a reply withheld, a grant *is* the head resuming: the
            # event pops it (see apply_event).
            self._emit(
                transition,
                AllocationGranted(
                    time=now,
                    container_id=record.container_id,
                    pid=head.pid,
                    size=head.requested_size,
                    api=head.api,
                ),
            )
            waited = now - head.requested_at
            transition.waits.append(waited)
            self._emit(
                transition,
                AllocationResumed(
                    time=now,
                    container_id=record.container_id,
                    pid=head.pid,
                    size=head.requested_size,
                    waited=waited,
                ),
            )
            if head.resume is not None:
                transition.resumptions.append((head.resume, {"decision": "grant"}))

    def _adopt_orphan(
        self,
        record: ContainerRecord,
        pid: int,
        size: int,
        api: str,
        on_resume: Callable[[dict[str, Any]], None],
    ) -> bool:
        """Re-attach a reconnecting wrapper to its pre-crash pending entry.

        After :func:`~repro.core.scheduler.journal.restore` the pending
        queue is rebuilt from the journal but its ``resume`` callbacks are
        gone (they wrapped the dead daemon's sockets).  When the wrapper's
        retry loop re-issues the identical ``alloc_request``, we adopt the
        orphaned entry — keeping its original queue position and
        ``requested_at`` timestamp — instead of double-queueing the request.
        No event is logged: the pause already is in the journal.

        Returns True when an orphan was adopted.
        """
        for pending in record.pending:
            if (
                pending.resume is None
                and pending.pid == pid
                and pending.requested_size == size
                and pending.api == api
            ):
                pending.resume = on_resume
                return True
        return False

    # ------------------------------------------------------------------
    # the one mutator: live transitions and journal replay
    # ------------------------------------------------------------------

    def apply_event(self, event: SchedulerEvent) -> None:
        """Apply one event to the bookkeeping — the only code that writes it.

        Every live transition reaches its state change through here (via
        :meth:`_emit`) and crash recovery replays the journal through here,
        so the two cannot diverge.  Policy-free: derived amounts
        (redistribution targets, reclaimed idle memory) come from the
        event itself, so replay never re-runs the policy and is
        deterministic even under the Random policy.  Validation is the
        transitions' job; an event that exists is applied as written.
        """
        # Exact-type tests, hottest first: this runs once per live event,
        # and event classes are never subclassed.
        kind = type(event)
        if kind is ContainerRegistered:
            self._seq += 1
            record = ContainerRecord(
                container_id=event.container_id,
                limit=event.limit,
                created_seq=self._seq,
                created_at=event.time,
            )
            record.assigned = event.assigned
            self._reserved += event.assigned
            self._containers[event.container_id] = record
            return
        record = self._containers.get(event.container_id)
        if record is None:
            raise JournalError(
                f"journal references unknown container {event.container_id!r} "
                f"in {type(event).__name__}"
            )
        if kind is AllocationGranted and record.pending:
            # A grant while replies are withheld can only be the head of
            # the pending queue resuming (direct grants require an
            # unpaused container) — same dichotomy request() enforces.
            head = record.pending.pop(0)
            record.suspended_total += event.time - head.requested_at
            record.inflight += head.size
            by_pid = record.inflight_by_pid
            by_pid[head.pid] = by_pid.get(head.pid, 0) + head.size
            if head.pid not in record.pids_charged:
                # The pid exited while it waited: its grant charges it again,
                # owing the overhead if the request carried one.
                record.pids_charged.add(head.pid)
                if head.size != head.requested_size:
                    record.overhead_pending.add(head.pid)
            if not record.pending:
                self._index.on_resume(record)
        elif kind in (AllocationGranted, AllocationPaused):
            effective = event.size
            if event.pid not in record.pids_charged:
                effective += self.context_overhead
                record.pids_charged.add(event.pid)
                record.overhead_pending.add(event.pid)
            if kind is AllocationGranted:
                record.inflight += effective
                by_pid = record.inflight_by_pid
                by_pid[event.pid] = by_pid.get(event.pid, 0) + effective
            else:
                record.pending.append(
                    PendingAllocation(
                        pid=event.pid,
                        size=effective,
                        requested_size=event.size,
                        api=event.api,
                        requested_at=event.time,
                        resume=None,  # request() attaches the live callback
                    )
                )
                record.last_suspended_at = event.time
                record.pause_count += 1
                self._index.on_pause(record)
        elif kind is AllocationCommitted or kind is AllocationAborted:
            pid = event.pid
            amount = event.size
            if kind is AllocationCommitted:
                record.allocations[event.address] = AllocationRecord(
                    address=event.address, pid=pid, size=event.size
                )
                if pid in record.overhead_pending:
                    amount += self.context_overhead
                    record.overhead_pending.discard(pid)
                    key = self._overhead_key(pid)
                    record.allocations[key] = AllocationRecord(
                        address=key,
                        pid=pid,
                        size=self.context_overhead,
                        is_context_overhead=True,
                    )
                record.used += amount
            elif self._returns_charge(record, pid, amount):
                amount += self.context_overhead
                record.overhead_pending.discard(pid)
                record.pids_charged.discard(pid)
            # Take the bytes off the pid's inflight.
            by_pid = record.inflight_by_pid
            held = by_pid.pop(pid, 0)
            if held > amount:
                by_pid[pid] = held - amount
            elif held < amount:
                # Only a journal written before inflight was kept per pid
                # gets here (a live transition refuses the overdraw): the
                # rest comes from the bytes its snapshot left unattributed,
                # as far as they go; beyond them, the pid's exit already
                # returned it.
                legacy = by_pid.pop(UNATTRIBUTED_PID, 0)
                taken = min(legacy, amount - held)
                if legacy > taken:
                    by_pid[UNATTRIBUTED_PID] = legacy - taken
                amount = held + taken
            record.inflight -= amount
        elif kind is AllocationReleased:
            allocation = record.allocations.pop(event.address, None)
            if allocation is None:
                raise JournalError(
                    f"release of unknown address {event.address:#x} during replay"
                )
            record.used -= allocation.size
        elif kind in (AllocationResumed, AllocationRejected):
            pass  # resumed: applied by the preceding grant; rejected: no change
        elif kind in (MemoryAssigned, ReservationReclaimed):
            self._reserved += event.assigned_total - record.assigned
            record.assigned = event.assigned_total
            self._index.on_assign(record)
        elif kind is ProcessExited:
            doomed = [a for a in record.allocations.values() if a.pid == event.pid]
            for allocation in doomed:
                del record.allocations[allocation.address]
            record.used -= sum(a.size for a in doomed)
            record.inflight -= record.inflight_by_pid.pop(event.pid, 0)
            record.pids_charged.discard(event.pid)
            record.overhead_pending.discard(event.pid)
        elif kind is ContainerClosed:
            # An exited container leaves no record (§III-B).  Emptying the
            # queue first makes any index entry left for it read as stale.
            self._reserved -= record.assigned
            record.pending.clear()
            self._index.on_close(record)
            del self._containers[event.container_id]
        else:  # pragma: no cover - registry and appliers move in lockstep
            raise JournalError(f"no replay rule for {type(event).__name__}")

    def serialize(self) -> dict[str, Any]:
        """Full state as plain JSON types (the journal's snapshot payload).

        Container order preserves the ``_containers`` dict order so a
        snapshot restore and an event replay produce indistinguishable
        schedulers.  ``resume`` callbacks are dropped — they wrap
        connections that will not survive a crash.
        """
        return {
            "seq": self._seq,
            "containers": [
                {
                    "container_id": r.container_id,
                    "limit": r.limit,
                    "created_seq": r.created_seq,
                    "created_at": r.created_at,
                    "assigned": r.assigned,
                    "used": r.used,
                    "inflight": r.inflight,
                    "inflight_by_pid": [
                        [pid, size] for pid, size in sorted(r.inflight_by_pid.items())
                    ],
                    "allocations": [
                        [a.address, a.pid, a.size, a.is_context_overhead]
                        for a in r.allocations.values()
                    ],
                    "pids_charged": sorted(r.pids_charged),
                    "overhead_pending": sorted(r.overhead_pending),
                    "pending": [
                        {
                            "pid": p.pid,
                            "size": p.size,
                            "requested_size": p.requested_size,
                            "api": p.api,
                            "requested_at": p.requested_at,
                        }
                        for p in r.pending
                    ],
                    "last_suspended_at": r.last_suspended_at,
                    "suspended_total": r.suspended_total,
                    "pause_count": r.pause_count,
                }
                for r in self._containers.values()
            ],
        }

    def load_snapshot(self, state: dict[str, Any]) -> None:
        """Install a snapshot payload into a fresh state."""
        self._seq = state["seq"]
        self._containers.clear()
        for entry in state["containers"]:
            if entry.get("closed"):  # written before exits dropped the record
                continue
            record = ContainerRecord(
                container_id=entry["container_id"],
                limit=entry["limit"],
                created_seq=entry["created_seq"],
                created_at=entry["created_at"],
                assigned=entry["assigned"],
                used=entry["used"],
                inflight=entry["inflight"],
                last_suspended_at=entry["last_suspended_at"],
                suspended_total=entry["suspended_total"],
                pause_count=entry["pause_count"],
            )
            record.allocations = {
                address: AllocationRecord(
                    address=address, pid=pid, size=size, is_context_overhead=overhead
                )
                for address, pid, size, overhead in entry["allocations"]
            }
            if "inflight_by_pid" in entry:
                record.inflight_by_pid = dict(entry["inflight_by_pid"])
            elif record.inflight:  # written before inflight was kept per pid
                record.inflight_by_pid = {UNATTRIBUTED_PID: record.inflight}
            record.pids_charged = set(entry["pids_charged"])
            record.overhead_pending = set(entry["overhead_pending"])
            record.pending = [
                PendingAllocation(
                    pid=p["pid"],
                    size=p["size"],
                    requested_size=p["requested_size"],
                    api=p["api"],
                    requested_at=p["requested_at"],
                    resume=None,  # orphan: re-attached when the wrapper re-issues
                )
                for p in entry["pending"]
            ]
            self._containers[record.container_id] = record
        self._reserved = sum(r.assigned for r in self._containers.values())
        self._index.rebuild()

    # ------------------------------------------------------------------

    def _returns_charge(self, record: ContainerRecord, pid: int, size: int) -> bool:
        """Whether an abort of ``size`` returns the pid's overhead charge
        too: only with the last grant of a pid that still owes it (a grant
        the pid keeps inflight still needs the context)."""
        return (
            pid in record.overhead_pending
            and record.inflight_by_pid.get(pid) == size + self.context_overhead
        )

    @staticmethod
    def _inflight_for(record: ContainerRecord, pid: int, amount: int) -> int:
        """The inflight bytes a commit or abort of ``amount`` by ``pid`` may
        draw on: the pid's own, and the unattributed ones if those fall
        short (DESIGN.md §7.10)."""
        inflight = record.inflight_by_pid.get(pid, 0)
        if amount > inflight:
            inflight += record.inflight_by_pid.get(UNATTRIBUTED_PID, 0)
        return inflight

    @staticmethod
    def _overhead_key(pid: int) -> int:
        """Synthetic hash key for a pid's context-overhead record.

        Negative so it can never collide with a real device address.
        """
        return -pid
