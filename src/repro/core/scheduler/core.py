"""The GPU memory scheduler runtime — ConVGPU's core engine (§III-D).

"GPU memory scheduler determines to accept, pause, or reject every GPU
memory allocation from the containers."  Since the core/runtime split
(DESIGN.md §11) this module is the *runtime* half: a thin
:class:`GpuMemoryScheduler` facade that wraps the pure transition core
(:class:`~repro.core.scheduler.state.SchedulerState`) with everything the
paper's "each step is protected by a mutex lock" sentence implies in a
live daemon — and nothing more:

- the mutex is held **only** across the state transition and the in-memory
  event-log append (both allocation-free bookkeeping);
- every effect the transition returns is executed *after* the lock is
  released: metrics, then — in one place, ``_deliver`` — journal
  durability (``journal.wait_durable()``, the group-commit handshake)
  followed by the resume-callback deliveries that perform socket I/O.  An
  unbatched call delivers a batch of one; ``commit_batch`` delivers the
  whole ``begin_batch`` window, then runs the callbacks its callers handed
  it (the window's reply sends and container tear-downs).

That ordering keeps the WAL guarantee of PR 1 — a decision is durable
before its reply (or any resumed reply) leaves the daemon — while an fsync
no longer serializes unrelated allocation decisions: the first waiter of a
group commit writes everything queued, and many transitions share one disk
flush.

The algorithmic behaviour measured in Fig. 7/8 lives entirely in the pure
core and is pinned byte-for-byte by ``tests/core/test_golden_traces.py``;
the daemon (live mode) and the simulation runner both drive exactly this
facade.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Sequence

from repro.core.scheduler.events import EventLog
from repro.core.scheduler.policies import SchedulingPolicy
from repro.core.scheduler.records import ContainerRecord
from repro.core.scheduler.state import (
    CONTEXT_OVERHEAD_CHARGE,
    Decision,
    SchedulerState,
    Transition,
)
from repro.obs import stages as _stages
from repro.obs.metrics import DURATION_BUCKETS, REGISTRY
from repro.obs.recorder import RECORDER

__all__ = ["Decision", "GpuMemoryScheduler", "CONTEXT_OVERHEAD_CHARGE"]

_perf_counter = time.perf_counter

# Process-global instrumentation, shared by every scheduler instance (the
# daemon runs exactly one; simulation sweeps accumulate across runs).
# Module-level handles keep the hot path at a dict-free counter increment.
_DECISIONS = REGISTRY.counter(
    "convgpu_alloc_decisions_total",
    "Allocation decisions by outcome (grant/pause/reject)",
    labelnames=("decision",),
)
_PAUSE_SECONDS = REGISTRY.histogram(
    "convgpu_pause_duration_seconds",
    "Time an allocation spent paused before resuming (or failing)",
    buckets=DURATION_BUCKETS,
)
# Label resolution (a family lock + dict lookup) is paid once at import;
# each decision then costs a single Counter.inc / Histogram.observe.
_GRANTS = _DECISIONS.labels(decision="grant")
_PAUSES = _DECISIONS.labels(decision="pause")
_REJECTS = _DECISIONS.labels(decision="reject")
_PAUSE_WAITS = _PAUSE_SECONDS.labels()

# Flight-recorder events for the *rare* transitions only (pause/reject and
# resume deliveries) — grants are the hot path and stay out of the ring.
# Module alias so the obs-overhead benchmark can stub it by (module, name).
_REC = RECORDER
_EV_PAUSE = RECORDER.declare("sched.pause", s="container")
_EV_REJECT = RECORDER.declare("sched.reject", s="container")
_EV_RESUME = RECORDER.declare("sched.resume", a="resumed")


def _container_of(transition: Transition) -> str:
    for event in transition.events:
        container_id = getattr(event, "container_id", "")
        if container_id:
            return container_id
    return ""


class GpuMemoryScheduler:
    """Transport-independent scheduler: pure core + effects runtime.

    Args:
        total_memory: size of the physical GPU pool being partitioned.
        policy: redistribution strategy (one of the paper's four, or an
            ablation policy).
        clock: time source for event timestamps and suspension accounting
            (wall clock in live mode, the DES clock in simulations).
        context_overhead: per-pid first-allocation charge; the ablation
            bench sets this to 0 to show why the estimate matters.
        resume_mode: ``"fit"`` (default; resume as soon as the pending
            allocation fits the reservation) or ``"full"`` (resume only
            once the reservation reaches the declared limit — the stricter
            reading of Fig. 3d, kept for the ablation).

    The public API (``register_container`` … ``process_exit``) is the
    seed's, verb for verb; every call is one locked transition on
    ``self.state`` followed by its unlocked effects.

    ``log`` keeps every event of an *unjournaled* scheduler (simulation,
    tests, the figure harnesses — their readers in ``stats.py`` and
    ``experiments/multi.py`` need the whole history).  With a journal
    attached it holds the events since the newest snapshot only: the
    journal trims it at each one, which is what ``restore()`` rebuilds and
    what keeps a daemon's memory bounded (journal.py).
    """

    def __init__(
        self,
        total_memory: int,
        policy: SchedulingPolicy,
        *,
        clock: Callable[[], float] | None = None,
        context_overhead: int = CONTEXT_OVERHEAD_CHARGE,
        resume_mode: str = "fit",
    ) -> None:
        self.state = SchedulerState(
            total_memory,
            policy,
            context_overhead=context_overhead,
            resume_mode=resume_mode,
        )
        self.clock = clock if clock is not None else (lambda: 0.0)
        self.log = EventLog()
        self._lock = threading.RLock()
        #: Set by SchedulerJournal.attach(); None when running unjournaled.
        self.journal: Any = None
        #: Per-thread batch buffer (``begin_batch``/``commit_batch``).  A
        #: dispatch turn runs on one thread, so thread-local state is
        #: exactly per-turn state.
        self._batch = threading.local()

    # -- configuration passthrough (journal meta + callers read these) -----

    @property
    def total_memory(self) -> int:
        return self.state.total_memory

    @property
    def policy(self) -> SchedulingPolicy:
        return self.state.policy

    @property
    def context_overhead(self) -> int:
        return self.state.context_overhead

    @property
    def resume_mode(self) -> str:
        return self.state.resume_mode

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    @property
    def reserved(self) -> int:
        """Sum of all live reservations."""
        with self._lock:
            return self.state.reserved

    @property
    def unreserved(self) -> int:
        """Physical memory not promised to any container."""
        with self._lock:
            return self.state.unreserved

    def container(self, container_id: str) -> ContainerRecord:
        with self._lock:
            return self.state.container(container_id)

    def containers(self, *, include_closed: bool = False) -> list[ContainerRecord]:
        """The live containers in ``created_seq`` order.

        ``include_closed`` is accepted and ignored: an exited container
        leaves no record, and ``benchmarks/perf`` still passes the keyword.
        """
        with self._lock:
            return list(self.state.records())

    def paused_containers(self) -> list[ContainerRecord]:
        # One consistent snapshot under a single lock acquisition (the seed
        # filtered the result of containers(), taking the lock twice and
        # allowing a resume to slip between the two reads).
        with self._lock:
            return [r for r in self.state.records() if r.paused]

    def check_invariants(self) -> None:
        """Assert global accounting invariants (property tests lean on this)."""
        with self._lock:
            self.state.check_invariants()

    def mem_get_info(self, container_id: str, pid: int) -> tuple[int, int]:
        """The container's virtualized ``cudaMemGetInfo`` view (§IV-B)."""
        with self._lock:
            return self.state.mem_get_info(container_id, pid)

    # ------------------------------------------------------------------
    # transitions (the wrapper/plugin-facing verbs)
    # ------------------------------------------------------------------

    def _transact(self, fn: Callable[[], Transition]) -> Transition:
        """One locked transition + publish, then the unlocked effects.

        When the transport armed a stage clock for this request
        (:func:`repro.obs.stages.current`), the lock wait and the
        transition's critical section are attributed to the ``lock`` and
        ``transition`` stages; with no clock armed anywhere the cost over
        the previous inline form is one module-attribute read and three
        predictable branches.
        """
        clock = _stages.current() if _stages.ARMED_CLOCKS else None
        timed = clock is not None
        began = _perf_counter() if timed else 0.0
        with self._lock:
            acquired = _perf_counter() if timed else 0.0
            transition = fn()
            self._publish(transition)
            done = _perf_counter() if timed else 0.0
        if timed:
            clock.add(_stages.S_LOCK, acquired - began)
            clock.add(_stages.S_TRANSITION, done - acquired)
        self._finish(transition)
        return transition

    def register_container(self, container_id: str, limit: int) -> ContainerRecord:
        """Declare a container's limit before it is created (§III-B)."""
        return self._transact(
            lambda: self.state.register(container_id, limit, self.clock())
        ).value

    def container_exit(self, container_id: str) -> int:
        """The nvidia-docker-plugin's *close* signal (§III-B).

        Returns the bytes reclaimed into the pool.
        """
        return self._transact(
            lambda: self.state.container_exit(container_id, self.clock())
        ).value

    def request_allocation(
        self,
        container_id: str,
        pid: int,
        size: int,
        api: str = "cudaMalloc",
        on_resume: Callable[[dict[str, Any]], None] | None = None,
    ) -> Decision:
        """The wrapper's pre-allocation size check (§III-C step 1).

        Returns GRANT/REJECT immediately; returns PAUSE after queueing the
        request, in which case ``on_resume`` will eventually be called with
        the withheld reply payload (grant or reject).
        """
        return self._transact(
            lambda: self.state.request(
                container_id, pid, size, api, on_resume, self.clock()
            )
        ).value

    def commit_allocation(
        self, container_id: str, pid: int, address: int, size: int
    ) -> None:
        """The wrapper's post-allocation report: address + pid + size."""
        self._transact(
            lambda: self.state.commit(container_id, pid, address, size, self.clock())
        )

    def abort_allocation(self, container_id: str, pid: int, size: int) -> None:
        """The wrapper reports that the *native* allocation failed."""
        self._transact(
            lambda: self.state.abort(container_id, pid, size, self.clock())
        )

    def release_allocation(self, container_id: str, pid: int, address: int) -> int:
        """``cudaFree`` path (§III-C).  Returns the released size."""
        return self._transact(
            lambda: self.state.release(container_id, pid, address, self.clock())
        ).value

    def process_exit(self, container_id: str, pid: int) -> int:
        """``__cudaUnregisterFatBinary`` path (§III-C/D).

        Returns the bytes reclaimed into the reservation.
        """
        return self._transact(
            lambda: self.state.process_exit(container_id, pid, self.clock())
        ).value

    # ------------------------------------------------------------------
    # the effects runtime
    # ------------------------------------------------------------------

    def _publish(self, transition: Transition) -> None:
        """Append the transition's events to the log (caller holds the lock).

        EventLog listeners run here — under the lock — which for an
        attached journal means *enqueueing* the events for the next group
        commit, preserving the global event order at queue-append cost.
        The disk write, flush and fsync happen in ``wait_durable``, after
        the lock is released.
        """
        for event in transition.events:
            self.log.append(event)

    def begin_batch(self) -> None:
        """Enter batch mode on the calling thread (re-entrant).

        Until the matching :meth:`commit_batch`, every transition's
        durability wait and resume-callback deliveries are deferred into a
        per-thread buffer.  The transport's dispatch turn brackets every
        frame it dispatches with these calls, so the turn's decisions share
        a single ``wait_durable`` instead of paying one each — and still no
        reply (direct or resumed) leaves before every decision in the turn
        is on disk.
        """
        depth = getattr(self._batch, "depth", 0)
        if depth == 0:
            self._batch.pending = []
            self._batch.then = []
        self._batch.depth = depth + 1

    def commit_batch(self, then: Callable[[], None] | None = None) -> None:
        """Close one bracket; the outermost flushes the deferred effects.

        ``then`` runs after the outermost bracket's one durability wait and
        its resume deliveries, in the order the callbacks were handed in —
        at once when no bracket is open.  If the wait raises, no ``then``
        runs: a reply whose decision is not durable never leaves.
        """
        depth = getattr(self._batch, "depth", 0)
        if depth == 0:
            if then is not None:
                then()
            return
        if then is not None:
            self._batch.then.append(then)
        self._batch.depth = depth - 1
        if depth > 1:
            return
        pending, self._batch.pending = self._batch.pending, []
        thens, self._batch.then = self._batch.then, []
        self._deliver(pending)
        for callback in thens:
            callback()

    def _finish(self, transition: Transition) -> None:
        """Execute the transition's effects outside the mutex.

        Metrics are not reply-ordered, so they are immediate; the
        reply-ordered part is :meth:`_deliver`, run here for an unbatched
        call (a batch of one) and at :meth:`commit_batch` inside a
        :meth:`begin_batch` window.
        """
        # Read the handles through the module globals each time so the
        # obs-overhead benchmark can stub them by (module, name).
        if transition.metric == Decision.GRANT:
            _GRANTS.inc()
        elif transition.metric == Decision.PAUSE:
            _PAUSES.inc()
            _REC.record(_EV_PAUSE, s=_container_of(transition))
        elif transition.metric == Decision.REJECT:
            _REJECTS.inc()
            _REC.record(_EV_REJECT, s=_container_of(transition))
        for waited in transition.waits:
            _PAUSE_WAITS.observe(waited)
        if getattr(self._batch, "depth", 0) > 0:
            self._batch.pending.append(transition)
        else:
            self._deliver((transition,))

    def _deliver(self, transitions: Sequence[Transition]) -> None:
        """Durability wait, then the resume deliveries of ``transitions``.

        Order matters (WAL): no reply, resumed or direct, may leave before
        its decision is on disk.  One wait covers them all: the journal
        writes every enqueued event up to (at least) the last one in strict
        order, so durability of the last implies durability of all.  The
        resume callbacks may do socket I/O.
        """
        journal = self.journal
        if journal is not None and any(t.events for t in transitions):
            journal.wait_durable()
        resumed = 0
        for transition in transitions:
            for callback, payload in transition.resumptions:
                callback(payload)
                resumed += 1
        if resumed:
            _REC.record(_EV_RESUME, a=resumed)
