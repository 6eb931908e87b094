"""ConVGPU's GPU memory scheduler (the paper's core contribution, §III-D).

- :class:`~repro.core.scheduler.state.SchedulerState` — the pure decision
  core (accept / pause / reject, redistribution, per-pid bookkeeping) whose
  transitions return :class:`~repro.core.scheduler.state.Transition`
  effect lists instead of performing I/O;
- :class:`~repro.core.scheduler.core.GpuMemoryScheduler` — the runtime
  facade: one mutex around each transition, effects (journal durability,
  metrics, resume callbacks) executed outside it;
- :mod:`~repro.core.scheduler.policies` — FIFO / Best-Fit / Recent-Use /
  Random plus ablation policies, each with an incremental candidate index;
- :class:`~repro.core.scheduler.service.SchedulerService` — protocol
  adapter for any IPC transport;
- :class:`~repro.core.scheduler.daemon.SchedulerDaemon` — the live host
  daemon with real per-container UNIX sockets;
- :mod:`~repro.core.scheduler.journal` — write-ahead journal + crash
  recovery (``restore()`` rebuilds the exact pre-crash state);
- :mod:`~repro.core.scheduler.liveness` — per-container heartbeats and
  orphan reaping for containers that die without a *close*.
"""

from repro.core.scheduler.core import (
    CONTEXT_OVERHEAD_CHARGE,
    Decision,
    GpuMemoryScheduler,
)
from repro.core.scheduler.state import SchedulerState, Transition
from repro.core.scheduler.daemon import (
    CONTAINER_SOCKET_NAME,
    WRAPPER_SONAME,
    SchedulerDaemon,
)
from repro.core.scheduler.liveness import (
    DEFAULT_HEARTBEAT_TIMEOUT,
    HeartbeatMonitor,
)
from repro.core.scheduler.journal import (
    JOURNAL_VERSION,
    JournalReader,
    SchedulerJournal,
    compact_journal,
    inspect_journal,
    journal_summary,
    read_journal,
    read_meta,
    restore,
    serialize_state,
)
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
    EventLog,
    MemoryAssigned,
    ProcessExited,
    SchedulerEvent,
)
from repro.core.scheduler.policies import (
    PAPER_POLICIES,
    POLICIES,
    BestFitPolicy,
    FifoPolicy,
    RandomPolicy,
    RecentUsePolicy,
    SchedulingPolicy,
    SmallestFirstPolicy,
    WorstFitPolicy,
    make_policy,
    register_policy,
)
from repro.core.scheduler.records import (
    AllocationRecord,
    ContainerRecord,
    PendingAllocation,
)
from repro.core.scheduler.service import SchedulerService
from repro.core.scheduler.stats import (
    ContainerStat,
    SchedulerSnapshot,
    SuspensionInterval,
    format_snapshot,
    snapshot,
    summarize_events,
    suspension_timeline,
)

__all__ = [
    "GpuMemoryScheduler",
    "SchedulerState",
    "Transition",
    "Decision",
    "CONTEXT_OVERHEAD_CHARGE",
    "SchedulerService",
    "SchedulerDaemon",
    "WRAPPER_SONAME",
    "CONTAINER_SOCKET_NAME",
    "SchedulingPolicy",
    "FifoPolicy",
    "BestFitPolicy",
    "RecentUsePolicy",
    "RandomPolicy",
    "WorstFitPolicy",
    "SmallestFirstPolicy",
    "POLICIES",
    "PAPER_POLICIES",
    "make_policy",
    "register_policy",
    "ContainerRecord",
    "AllocationRecord",
    "PendingAllocation",
    "EventLog",
    "SchedulerEvent",
    "ContainerRegistered",
    "AllocationGranted",
    "AllocationPaused",
    "AllocationResumed",
    "AllocationRejected",
    "AllocationCommitted",
    "AllocationReleased",
    "AllocationAborted",
    "MemoryAssigned",
    "ProcessExited",
    "ContainerClosed",
    "HeartbeatMonitor",
    "DEFAULT_HEARTBEAT_TIMEOUT",
    "SchedulerJournal",
    "JournalReader",
    "JOURNAL_VERSION",
    "restore",
    "serialize_state",
    "read_journal",
    "read_meta",
    "journal_summary",
    "inspect_journal",
    "compact_journal",
    "snapshot",
    "format_snapshot",
    "SchedulerSnapshot",
    "ContainerStat",
    "suspension_timeline",
    "SuspensionInterval",
    "summarize_events",
]
