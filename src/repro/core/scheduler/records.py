"""Bookkeeping records of the GPU memory scheduler (§III-D).

The scheduler tracks, per container:

- ``limit``     — the GPU memory declared at creation (option/label/default);
- ``assigned``  — the slice of physical GPU memory currently reserved for
  the container (``assigned <= limit``; the sum over containers never
  exceeds the device);
- ``used``      — bytes of live allocations (plus per-pid context overhead);
- ``inflight``  — bytes granted but not yet committed (the window between
  the wrapper's size check and its address report, §III-C/D), kept per
  pid so that a process's exit returns its grants with its allocations;
- every allocation "using hash structure" — address → (pid, size);
- pause state: the FIFO of withheld allocation replies, plus the
  suspension timestamps Fig. 8 aggregates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = [
    "AllocationRecord",
    "PendingAllocation",
    "ContainerRecord",
    "UNATTRIBUTED_PID",
]

#: The owner of inflight bytes restored from a snapshot written before
#: inflight was kept per pid (DESIGN.md §7.10): no wire pid (they are
#: >= 0), so no process exit returns them; a commit or abort draws on them
#: only when its own pid's bytes fall short.
UNATTRIBUTED_PID = -1


@dataclass(frozen=True)
class AllocationRecord:
    """One committed allocation (the scheduler's hash-table entry)."""

    address: int
    pid: int
    size: int
    #: True for the synthetic 66 MiB context-overhead charge of a pid.
    is_context_overhead: bool = False


@dataclass
class PendingAllocation:
    """An allocation whose reply is being withheld (container paused)."""

    pid: int
    #: Effective size (request + context overhead if first for the pid).
    size: int
    #: Raw requested size (without overhead), echoed in the grant.
    requested_size: int
    api: str
    requested_at: float
    #: Completes the deferred reply; installed by the service layer.
    resume: Callable[[dict[str, Any]], None] | None = None


@dataclass
class ContainerRecord:
    """All scheduler state for one container."""

    container_id: str
    limit: int
    created_seq: int
    created_at: float
    assigned: int = 0
    used: int = 0
    #: The sum of ``inflight_by_pid``, cached.
    inflight: int = 0
    #: pid -> bytes granted to it and not yet committed or aborted; a pid
    #: with none has no entry.
    inflight_by_pid: dict[int, int] = field(default_factory=dict)
    #: address -> AllocationRecord (the paper's hash structure).
    allocations: dict[int, AllocationRecord] = field(default_factory=dict)
    #: pids that have been charged the first-allocation context overhead.
    pids_charged: set[int] = field(default_factory=set)
    #: pids whose overhead charge is still inflight (granted, not committed).
    overhead_pending: set[int] = field(default_factory=set)
    #: Deferred allocation requests in arrival order.
    pending: list[PendingAllocation] = field(default_factory=list)
    #: Timestamp of the most recent suspension (Recent-Use policy key).
    last_suspended_at: float = -1.0
    #: Total time this container's allocations spent suspended (Fig. 8).
    suspended_total: float = 0.0
    #: Number of pause episodes (observability).
    pause_count: int = 0

    # -- derived -------------------------------------------------------------

    @property
    def paused(self) -> bool:
        """A container is paused while any allocation reply is withheld."""
        return bool(self.pending)

    @property
    def committed_and_inflight(self) -> int:
        return self.used + self.inflight

    @property
    def insufficiency(self) -> int:
        """How far ``assigned`` is from the declared requirement.

        This is the quantity the Best-Fit policy matches against freed
        memory: "the container whose insufficient memory is closest, but
        not exceed to the remaining memory" (§III-D).
        """
        return max(0, self.limit - self.assigned)

    @property
    def headroom(self) -> int:
        """Bytes of assigned memory not yet used or promised."""
        return self.assigned - self.used - self.inflight

    @property
    def is_redistribution_candidate(self) -> bool:
        """Eligible to receive freed memory from the policy (§III-D).

        Paused and still short of its declared limit — the exact
        filter the redistribution loop applies before asking the policy,
        and the candidacy predicate every incremental policy index keys on.
        """
        return bool(self.pending) and self.insufficiency > 0

    def effective_size(self, pid: int, size: int, overhead: int) -> int:
        """Request size adjusted with the first-allocation overhead (§III-D)."""
        if pid in self.pids_charged:
            return size
        return size + overhead

    def usage_of_pid(self, pid: int) -> int:
        """Committed bytes attributed to one pid."""
        return sum(r.size for r in self.allocations.values() if r.pid == pid)
