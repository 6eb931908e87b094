"""The four scheduling algorithms of the paper, plus ablation extras.

When a container finishes and returns its assigned GPU memory, the
scheduler repeatedly asks the policy to pick one *paused* container to top
up (§III-D).  The paper's four policies:

- **FIFO**  — oldest *created* container first;
- **Best-Fit (BF)** — the container whose insufficiency is closest to (but
  not exceeding) the free memory; if none fits, the least-insufficient one.
  Fig. 7 shows BF winning overall finish time at high load; Fig. 8 shows it
  paying with longer average suspension (starvation of mismatched sizes);
- **Recent-Use (RU)** — most recently suspended first;
- **Random (Rand)** — uniform choice among paused containers.

Extension policies (not in the paper; used by the ablation bench): Worst-Fit
and Smallest-Insufficiency-First.

All ties break on creation order, keeping runs deterministic for a seed.

Since the core/runtime split (DESIGN.md §11) a policy is consulted through
a per-state :class:`CandidateIndex` built by :meth:`SchedulingPolicy.
make_index`.  The index receives lifecycle hooks (``on_pause`` /
``on_resume`` / ``on_assign`` / ``on_close``) from the transition core and
keeps the candidate set *incrementally* — a lazy-deletion heap for FIFO and
Recent-Use, a bisect-sorted insufficiency list for the fit family — so each
redistribution pick is O(log n) instead of a full candidate-list rebuild.
``select()`` remains the policy's pure ordering contract (the scan-based
default index and the direct unit tests still call it); every incremental
index must pick exactly what ``select()`` would.
"""

from __future__ import annotations

import abc
import heapq
from bisect import bisect_left, insort
from typing import TYPE_CHECKING, Callable, Sequence

from repro.core.scheduler.records import ContainerRecord

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    import numpy as np

    from repro.core.scheduler.state import SchedulerState

__all__ = [
    "SchedulingPolicy",
    "CandidateIndex",
    "ScanIndex",
    "FifoPolicy",
    "BestFitPolicy",
    "RecentUsePolicy",
    "RandomPolicy",
    "WorstFitPolicy",
    "SmallestFirstPolicy",
    "POLICIES",
    "make_policy",
]


class CandidateIndex:
    """Incremental redistribution-candidate view over one scheduler state.

    A container is a candidate while it is paused and still short of its
    limit (``ContainerRecord.is_redistribution_candidate``).  The
    transition core invokes the hooks below at every point where a record's
    candidacy or ordering key can change; ``pick`` returns the policy's
    choice among current candidates, or ``None`` when there is none.

    One index serves exactly one :class:`SchedulerState` — built via
    :meth:`SchedulingPolicy.make_index`, so a single policy instance can be
    shared across the per-device states of a multi-GPU cluster.
    """

    def __init__(self, state: "SchedulerState") -> None:
        self._state = state

    # -- lifecycle hooks (called by the transition core) -------------------

    def on_pause(self, record: ContainerRecord) -> None:
        """``record`` just queued a pending allocation (may become candidate)."""

    def on_resume(self, record: ContainerRecord) -> None:
        """``record``'s pending queue just drained (no longer a candidate)."""

    def on_assign(self, record: ContainerRecord) -> None:
        """``record.assigned`` changed (redistribution or wedge reclaim)."""

    def on_close(self, record: ContainerRecord) -> None:
        """``record`` exited: its queue is empty and it leaves the state."""

    def rebuild(self) -> None:
        """Resynchronize from scratch (snapshot load)."""

    def pick(self, free: int) -> ContainerRecord | None:
        """The policy's choice among current candidates, or ``None``."""
        raise NotImplementedError


class ScanIndex(CandidateIndex):
    """Rebuild-and-select fallback: the seed's O(n) scan per pick.

    Kept as the default (and for :class:`RandomPolicy`, deliberately so:
    Rand draws an index into the candidate list in registration order, and
    preserving its RNG stream byte-for-byte requires reproducing that exact
    list construction).
    """

    def __init__(self, state: "SchedulerState", policy: "SchedulingPolicy") -> None:
        super().__init__(state)
        self._policy = policy

    def pick(self, free: int) -> ContainerRecord | None:
        candidates = [
            r for r in self._state.records() if r.is_redistribution_candidate
        ]
        if not candidates:
            return None
        return self._policy.select(candidates, free)


class FifoHeapIndex(CandidateIndex):
    """Lazy-deletion min-heap on ``created_seq`` (FIFO's only key).

    ``created_seq`` never changes, so entries are pushed once per candidacy
    episode and invalid entries (resumed, satisfied or exited records) are
    discarded when they surface at the heap top.
    """

    def __init__(self, state: "SchedulerState") -> None:
        super().__init__(state)
        self._heap: list[tuple[int, ContainerRecord]] = []
        self._queued: set[int] = set()  # created_seq values present in heap
        self.rebuild()

    def _add(self, record: ContainerRecord) -> None:
        if record.is_redistribution_candidate and record.created_seq not in self._queued:
            self._queued.add(record.created_seq)
            heapq.heappush(self._heap, (record.created_seq, record))

    # A pause can create candidacy; a wedge reclaim (assigned shrinking)
    # can restore it for a paused record whose insufficiency had hit 0.
    on_pause = _add
    on_assign = _add

    def rebuild(self) -> None:
        self._heap.clear()
        self._queued.clear()
        for record in self._state.records():
            self._add(record)

    def pick(self, free: int) -> ContainerRecord | None:
        while self._heap:
            seq, record = self._heap[0]
            if record.is_redistribution_candidate:
                return record
            heapq.heappop(self._heap)
            self._queued.discard(seq)
        return None


class RecentUseHeapIndex(CandidateIndex):
    """Lazy-deletion max-heap on ``(last_suspended_at, created_seq)``.

    Every pause re-keys the record (``last_suspended_at`` moves), so the
    heap holds one entry per (record, suspension-time) pair; an entry is
    stale once the record re-paused or left candidacy, and is discarded at
    the top.  ``_keyed`` dedupes pushes for the record's *current* key.
    """

    def __init__(self, state: "SchedulerState") -> None:
        super().__init__(state)
        self._heap: list[tuple[float, int, ContainerRecord]] = []
        self._keyed: dict[int, float] = {}  # created_seq -> pushed key
        self.rebuild()

    def _add(self, record: ContainerRecord) -> None:
        if not record.is_redistribution_candidate:
            return
        if self._keyed.get(record.created_seq) == record.last_suspended_at:
            return
        self._keyed[record.created_seq] = record.last_suspended_at
        heapq.heappush(
            self._heap,
            (-record.last_suspended_at, -record.created_seq, record),
        )

    on_pause = _add
    on_assign = _add

    def rebuild(self) -> None:
        self._heap.clear()
        self._keyed.clear()
        for record in self._state.records():
            self._add(record)

    def pick(self, free: int) -> ContainerRecord | None:
        while self._heap:
            neg_time, neg_seq, record = self._heap[0]
            if (
                record.is_redistribution_candidate
                and record.last_suspended_at == -neg_time
            ):
                return record
            heapq.heappop(self._heap)
            if self._keyed.get(-neg_seq) == -neg_time:
                del self._keyed[-neg_seq]
        return None


class SortedInsufficiencyIndex(CandidateIndex):
    """Bisect-sorted candidate list on ``(insufficiency, created_seq)``.

    Shared by the fit family (BF / WF / SF), whose picks are all order
    statistics of the insufficiency ordering.  The key pair is unique
    (``created_seq`` is), so records never compare; every hook re-syncs the
    touched record in O(log n) + O(n) list splice — still far below the
    seed's full rebuild + linear ``min``/``max`` per pick.
    """

    def __init__(self, state: "SchedulerState", kind: str) -> None:
        super().__init__(state)
        self._kind = kind  # "BF" | "WF" | "SF"
        self._entries: list[tuple[int, int, ContainerRecord]] = []
        self._keys: dict[int, tuple[int, int]] = {}  # created_seq -> key
        self.rebuild()

    def _sync(self, record: ContainerRecord) -> None:
        seq = record.created_seq
        old = self._keys.get(seq)
        new = (
            (record.insufficiency, seq)
            if record.is_redistribution_candidate
            else None
        )
        if old == new:
            return
        if old is not None:
            del self._entries[bisect_left(self._entries, old)]
            del self._keys[seq]
        if new is not None:
            insort(self._entries, (new[0], new[1], record))
            self._keys[seq] = new

    on_pause = _sync
    on_resume = _sync
    on_assign = _sync
    on_close = _sync

    def rebuild(self) -> None:
        self._entries = sorted(
            (r.insufficiency, r.created_seq, r)
            for r in self._state.records()
            if r.is_redistribution_candidate
        )
        self._keys = {seq: (ins, seq) for ins, seq, _ in self._entries}

    def pick(self, free: int) -> ContainerRecord | None:
        entries = self._entries
        if not entries:
            return None
        if self._kind == "SF":
            # Least insufficiency, oldest first: the leftmost entry.
            return entries[0][2]
        if self._kind == "WF":
            # Most insufficiency; ties break oldest-first, i.e. the *first*
            # entry of the maximal-insufficiency run.
            return entries[bisect_left(entries, (entries[-1][0],))][2]
        # BF: the largest insufficiency still covered by ``free`` (ties
        # oldest-first); if nobody fits, the least-insufficient container.
        cut = bisect_left(entries, (free + 1,))
        if cut == 0:
            return entries[0][2]
        return entries[bisect_left(entries, (entries[cut - 1][0],))][2]


class SchedulingPolicy(abc.ABC):
    """Strategy choosing which paused container receives freed memory."""

    #: Short name used in tables/CLI (matches the paper's abbreviations).
    name: str = "abstract"

    @abc.abstractmethod
    def select(
        self, paused: Sequence[ContainerRecord], free: int
    ) -> ContainerRecord:
        """Pick one container from a non-empty ``paused`` sequence.

        ``free`` is the currently unreserved GPU memory in bytes.  The
        scheduler then assigns ``min(insufficiency, free)`` to the pick.
        """

    def make_index(self, state: "SchedulerState") -> CandidateIndex:
        """Build this policy's candidate index over ``state``.

        The default is the scan-based fallback, correct for any ``select``
        implementation; policies with an incremental structure override.
        """
        return ScanIndex(state, self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__}>"


class FifoPolicy(SchedulingPolicy):
    """First-in, first-out: "the oldest created container" (§III-D)."""

    name = "FIFO"

    def select(self, paused: Sequence[ContainerRecord], free: int) -> ContainerRecord:
        return min(paused, key=lambda c: c.created_seq)

    def make_index(self, state: "SchedulerState") -> CandidateIndex:
        return FifoHeapIndex(state)


class BestFitPolicy(SchedulingPolicy):
    """Best-Fit: maximize memory throughput by closest-fit matching."""

    name = "BF"

    def select(self, paused: Sequence[ContainerRecord], free: int) -> ContainerRecord:
        fitting = [c for c in paused if c.insufficiency <= free]
        if fitting:
            # Closest to the remaining memory without exceeding it: the
            # *largest* insufficiency that still fits.
            return max(fitting, key=lambda c: (c.insufficiency, -c.created_seq))
        # Nobody fits entirely: "the container which has the least
        # insufficient memory".
        return min(paused, key=lambda c: (c.insufficiency, c.created_seq))

    def make_index(self, state: "SchedulerState") -> CandidateIndex:
        return SortedInsufficiencyIndex(state, "BF")


class RecentUsePolicy(SchedulingPolicy):
    """Recent-Use: "the most recently suspended containers" (§III-D)."""

    name = "RU"

    def select(self, paused: Sequence[ContainerRecord], free: int) -> ContainerRecord:
        return max(paused, key=lambda c: (c.last_suspended_at, c.created_seq))

    def make_index(self, state: "SchedulerState") -> CandidateIndex:
        return RecentUseHeapIndex(state)


class RandomPolicy(SchedulingPolicy):
    """Random: uniform choice among paused containers."""

    name = "Rand"

    def __init__(self, rng: np.random.Generator | None = None) -> None:
        if rng is None:
            # numpy loads with Rand only: the other policies' daemons never
            # import it (DESIGN.md §11, "the serving closure").
            import numpy as np

            rng = np.random.default_rng(0)
        self._rng = rng

    def select(self, paused: Sequence[ContainerRecord], free: int) -> ContainerRecord:
        index = int(self._rng.integers(0, len(paused)))
        return paused[index]


class WorstFitPolicy(SchedulingPolicy):
    """Ablation: the *most* insufficient container first (anti-Best-Fit)."""

    name = "WF"

    def select(self, paused: Sequence[ContainerRecord], free: int) -> ContainerRecord:
        return max(paused, key=lambda c: (c.insufficiency, -c.created_seq))

    def make_index(self, state: "SchedulerState") -> CandidateIndex:
        return SortedInsufficiencyIndex(state, "WF")


class SmallestFirstPolicy(SchedulingPolicy):
    """Ablation: least-insufficient container first (SJF-like; unfair)."""

    name = "SF"

    def select(self, paused: Sequence[ContainerRecord], free: int) -> ContainerRecord:
        return min(paused, key=lambda c: (c.insufficiency, c.created_seq))

    def make_index(self, state: "SchedulerState") -> CandidateIndex:
        return SortedInsufficiencyIndex(state, "SF")


#: Registry: name -> zero/one-arg factory (RandomPolicy accepts an rng).
POLICIES: dict[str, Callable[..., SchedulingPolicy]] = {
    "FIFO": FifoPolicy,
    "BF": BestFitPolicy,
    "RU": RecentUsePolicy,
    "Rand": RandomPolicy,
    "WF": WorstFitPolicy,
    "SF": SmallestFirstPolicy,
}

#: The four algorithms evaluated in the paper, in table order.
PAPER_POLICIES = ("FIFO", "BF", "RU", "Rand")
__all__ += ["PAPER_POLICIES", "register_policy"]


def register_policy(
    name: str,
    factory: Callable[..., SchedulingPolicy],
    *,
    replace: bool = False,
) -> Callable[..., SchedulingPolicy]:
    """Register an out-of-tree scheduling policy under ``name``.

    ``factory`` is a zero-argument callable (typically the policy class)
    returning a :class:`SchedulingPolicy`; after registration the daemon
    CLI reaches it via ``--policy NAME`` (load the defining module with
    ``--policy-plugin``).  Registered policies are held to the same
    contract as the built-ins — ``select`` is the pure ordering,
    ``make_index`` may ship a custom :class:`CandidateIndex` — and
    reprolint's ``purity`` rule applies to any ``SchedulingPolicy``
    subclass it can see.

    Returns the factory, so a module can register at import time::

        register_policy("LRU", LruPolicy)

    Raises:
        ValueError: the name is taken (pass ``replace=True`` to override).
        TypeError: the factory is not callable.
    """
    if not callable(factory):
        raise TypeError(f"policy factory for {name!r} is not callable: {factory!r}")
    if not replace and name in POLICIES:
        raise ValueError(
            f"policy {name!r} is already registered; pass replace=True to override"
        )
    POLICIES[name] = factory
    return factory


def make_policy(name: str, rng: np.random.Generator | None = None) -> SchedulingPolicy:
    """Instantiate a policy by table name (rng used only by "Rand")."""
    try:
        factory = POLICIES[name]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; known: {sorted(POLICIES)}"
        ) from None
    if factory is RandomPolicy:
        return RandomPolicy(rng)
    return factory()
