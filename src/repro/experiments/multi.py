"""Multi-container experiments: Fig. 7 / Table IV (finished time) and
Fig. 8 / Table V (average suspended time).

Protocol (§IV-A): container types drawn uniformly from Table III, one
container submitted every 5 s, counts swept 4..38, each configuration
repeated (paper: 6 times) and averaged.  The *same* arrival sequence is
replayed for all four policies within a repetition, so policy comparisons
are paired — the fair reading of the paper's tables.

Everything runs in virtual time on the DES; the scheduler object and the
wrapper logic are the identical code paths the live mode uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

from repro import fanout
from repro.container.image import make_cuda_image
from repro.core.middleware import ConVGPU
from repro.core.scheduler.core import CONTEXT_OVERHEAD_CHARGE
from repro.core.scheduler.events import (
    AllocationAborted,
    AllocationRejected,
    ContainerClosed,
    EventLog,
)
from repro.sim.engine import Environment
from repro.sim.rng import SeedSequenceFactory
from repro.workloads.api import ProcessApi
from repro.workloads.arrivals import (
    ARRIVAL_INTERVAL,
    PAPER_CONTAINER_COUNTS,
    Arrival,
    cloud_arrivals,
)
from repro.workloads.runner import SimIpcBridge, SimProgramRunner
from repro.workloads.sample import make_sample_command

__all__ = [
    "ContainerOutcome",
    "ScheduleResult",
    "SweepGridError",
    "SweepResult",
    "run_schedule",
    "run_trace",
    "sweep",
    "DEFAULT_SEED",
]

#: Root seed of the published tables in EXPERIMENTS.md.
DEFAULT_SEED = 2017


@dataclass(frozen=True)
class ContainerOutcome:
    """Per-container measurements of one run."""

    name: str
    type_name: str
    submitted_at: float
    finished_at: float
    exit_code: int
    suspended: float

    @property
    def turnaround(self) -> float:
        return self.finished_at - self.submitted_at


def _outcomes(finished: list[tuple], log: EventLog) -> list[ContainerOutcome]:
    """One outcome per ``(name, type, submitted, finished, exit code)`` row.

    The suspension comes from the container's ``ContainerClosed``: an
    exited container leaves no record in the scheduler to read it from.
    """
    suspended = {e.container_id: e.suspended_total for e in log.of_type(ContainerClosed)}
    return [ContainerOutcome(*row, suspended=suspended[row[0]]) for row in finished]


@dataclass
class ScheduleResult:
    """One (policy, count, seed) run."""

    policy: str
    count: int
    seed: int
    #: §IV-A "finished time of all containers": the makespan.
    finished_time: float
    #: Fig. 8: mean of per-container suspended time.
    avg_suspended: float
    outcomes: list[ContainerOutcome] = field(default_factory=list)
    #: Scheduler-level rejections (requests over the declared limit).
    rejected_count: int = 0
    #: Native allocation failures after a scheduler grant (device ran dry:
    #: exactly what correct overhead accounting is supposed to prevent).
    aborted_count: int = 0
    #: Total kernel execution time on the device (lane-seconds).
    gpu_busy_seconds: float = 0.0
    #: The scheduler's full event log (populated by ``capture_events=True``;
    #: virtual timestamps — feed to :func:`repro.obs.chrome.write_chrome_trace`).
    events: list = field(default_factory=list)

    @property
    def gpu_utilization(self) -> float:
        """Average kernel concurrency: lane-seconds per wall-second.

        1.0 means one kernel ran at all times; values above 1 mean Hyper-Q
        overlap (bounded by the device's 32 lanes).  BF's makespan
        advantage shows up here as keeping more kernels resident on the
        memory-gated device.
        """
        if self.finished_time <= 0:
            return 0.0
        return self.gpu_busy_seconds / self.finished_time

    @property
    def failures(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.exit_code != 0)


class _Submission(NamedTuple):
    """One container a schedule submits."""

    at: float
    name: str
    #: What the outcome row calls the container's kind.
    label: str
    #: ``nvdocker.run`` keyword options other than ``name`` and ``command``.
    options: dict
    #: The virtual clock -> the container's entrypoint.
    command: Callable[[Callable[[], float]], Callable]


def _simulate(
    policy: str,
    count: int,
    seed: int,
    image: str,
    submissions: list[_Submission],
    *,
    resume_mode: str,
    context_overhead: int | None,
    capture_events: bool = False,
) -> ScheduleResult:
    """Run ``submissions`` on a fresh ``ConVGPU`` in virtual time."""
    env = Environment()

    def clock() -> float:
        return env.now

    system = ConVGPU(
        policy,
        clock=clock,
        rng=SeedSequenceFactory(seed).generator("policy", policy),
        resume_mode=resume_mode,
        context_overhead=context_overhead,
    )
    system.engine.images.add(make_cuda_image(image))
    bridge = SimIpcBridge(env, system.service.handle)
    runner = SimProgramRunner(env, system.device, bridge)
    finished: list[tuple] = []

    def submit(entry: _Submission):
        yield env.timeout(entry.at)
        container = system.nvdocker.run(
            image, name=entry.name, command=entry.command(clock), **entry.options
        )
        # Docker + ConVGPU creation latency before the program starts.
        creation = (
            system.engine.timing.creation_time(container.config)
            + system.creation_overhead()
        )
        yield env.timeout(creation)
        proc = runner.run_program(
            ProcessApi(container.main_process),
            on_exit=lambda code: system.engine.notify_main_exit(
                container.container_id, code
            ),
        )
        exit_code = yield proc
        finished.append((entry.name, entry.label, entry.at, env.now, exit_code))

    for entry in submissions:
        env.process(submit(entry))
    env.run()
    outcomes = _outcomes(finished, system.scheduler.log)
    system.scheduler.check_invariants()
    system.device.allocator.check_invariants()

    finished_time = max((o.finished_at for o in outcomes), default=0.0)
    avg_suspended = (
        sum(o.suspended for o in outcomes) / len(outcomes) if outcomes else 0.0
    )
    return ScheduleResult(
        policy=policy,
        count=count,
        seed=seed,
        finished_time=finished_time,
        avg_suspended=avg_suspended,
        outcomes=sorted(outcomes, key=lambda o: o.submitted_at),
        rejected_count=len(system.scheduler.log.of_type(AllocationRejected)),
        aborted_count=len(system.scheduler.log.of_type(AllocationAborted)),
        gpu_busy_seconds=system.device.hyperq.total_kernel_seconds,
        events=list(system.scheduler.log) if capture_events else [],
    )


def run_schedule(
    policy: str,
    count: int,
    seed: int,
    *,
    interval: float = ARRIVAL_INTERVAL,
    resume_mode: str = "fit",
    context_overhead: int | None = None,
    program_margin: int | None = None,
    program_chunks: int = 1,
    arrivals: list[Arrival] | None = None,
    capture_events: bool = False,
) -> ScheduleResult:
    """Simulate one cloud-usage schedule under one policy.

    ``program_margin`` is how much below its limit each sample program
    allocates (default: the 66 MiB context charge, the allocation an
    overhead-aware user makes).  Setting it to 0 models naive users who
    allocate their full declared limit — used by the overhead ablation.

    ``capture_events`` returns the scheduler's event log, which feeds the
    Chrome trace export (``repro run --chrome-trace``).
    """
    if arrivals is None:
        arrivals = cloud_arrivals(
            count, SeedSequenceFactory(seed).generator("arrivals"), interval=interval
        )
    overhead = program_margin if program_margin is not None else CONTEXT_OVERHEAD_CHARGE
    submissions = [
        _Submission(
            arrival.time, arrival.name, arrival.container_type.name,
            {"container_type": arrival.container_type},
            partial(make_sample_command, arrival.container_type,
                    overhead=overhead, chunks=program_chunks),
        )
        for arrival in arrivals
    ]
    return _simulate(
        policy, count, seed, "sample", submissions,
        resume_mode=resume_mode, context_overhead=context_overhead,
        capture_events=capture_events,
    )


#: ``run_schedule`` as this module defines it.  ``sweep`` forks only while
#: the module global is still this function: a replacement (a tracer, a
#: test double) keeps its effects in the caller's memory.
_OWN_RUN_SCHEDULE = run_schedule


@dataclass
class SweepResult:
    """The full Fig. 7/8 sweep: policy × container-count grids."""

    policies: tuple[str, ...]
    counts: tuple[int, ...]
    repeats: int
    seed: int
    #: policy -> count -> mean finished time (Table IV).
    finished: dict[str, dict[int, float]]
    #: policy -> count -> mean average-suspended time (Table V).
    suspended: dict[str, dict[int, float]]
    #: policy -> count -> total failed containers across repeats (must be 0).
    failures: dict[str, dict[int, int]]
    #: policy -> count -> mean p95 suspension across repeats (tail waiting).
    p95_suspended: dict[str, dict[int, float]] = field(default_factory=dict)
    #: policy -> count -> mean per-container slowdown across repeats.
    mean_slowdown: dict[str, dict[int, float]] = field(default_factory=dict)
    #: policy -> count -> mean Jain's fairness index over slowdowns.
    fairness: dict[str, dict[int, float]] = field(default_factory=dict)

    def finished_row(self, policy: str) -> list[float]:
        return [self.finished[policy][count] for count in self.counts]

    def suspended_row(self, policy: str) -> list[float]:
        return [self.suspended[policy][count] for count in self.counts]


class SweepGridError(ValueError):
    """A sweep grid with no work in it, named by the argument at fault."""

    def __init__(self, argument: str, value: object, need: str) -> None:
        super().__init__(f"sweep: {argument} {need}, got {value!r}")
        self.argument = argument


def _check_grid(policies: tuple[str, ...], counts: tuple[int, ...], repeats: int) -> None:
    if not policies:
        raise SweepGridError("policies", policies, "must name at least one policy")
    if not counts:
        raise SweepGridError("counts", counts, "must name at least one count")
    bad = [count for count in counts if count < 1]
    if bad:
        raise SweepGridError("counts", bad, "must all be at least 1")
    if repeats < 1:
        raise SweepGridError("repeats", repeats, "must be at least 1")


def _width(tasks: int) -> int:
    """:func:`repro.fanout.width`, or 1 while ``run_schedule`` is replaced:
    a tracer's or a test double's effects must land in this process."""
    if run_schedule is not _OWN_RUN_SCHEDULE:
        return 1
    return fanout.width(tasks)


def _reduce(task: tuple, *, resume_mode: str, context_overhead: int | None) -> tuple:
    """One sweep schedule, reduced to the six numbers its cell adds up."""
    # In-function import: experiments.metrics imports this module.
    from repro.experiments.metrics import compute_metrics

    result = run_schedule(*task, resume_mode=resume_mode, context_overhead=context_overhead)
    derived = compute_metrics(result)
    return (
        result.finished_time,
        result.avg_suspended,
        result.failures,
        derived.p95_suspended,
        derived.mean_slowdown,
        derived.fairness_slowdown,
    )


def sweep(
    policies: tuple[str, ...] = ("FIFO", "BF", "RU", "Rand"),
    counts: tuple[int, ...] = PAPER_CONTAINER_COUNTS,
    *,
    repeats: int = 6,
    seed: int = DEFAULT_SEED,
    resume_mode: str = "fit",
    context_overhead: int | None = None,
) -> SweepResult:
    """Run the whole evaluation grid (Tables IV and V).

    Every ``(policy, count, repetition)`` schedule is independent (seeded
    from ``(count, repetition)`` alone, on a ``ConVGPU`` of its own), so the
    schedules are striped round-robin over one process per CPU this process
    may run on (:mod:`repro.fanout`, capped at the cgroup CPU quota): this
    one and a forked child per extra CPU, each schedule
    reduced to six numbers where it ran.  This process adds each cell up in
    repetition order, so the tables are bit-identical to running every
    schedule here.  It stays in-process on one CPU, without ``os.fork``,
    while another Python thread is alive, and while ``run_schedule`` is
    replaced (a tracer or a test double, whose effects must land in this
    process).  The children's memory is not in this process's
    ``RUSAGE_SELF`` peak.  Raises :class:`SweepGridError` for a grid with no
    work in it before running anything.
    """
    _check_grid(policies, counts, repeats)
    root = SeedSequenceFactory(seed)
    # Arrival sequence depends on (count, rep) only, so all policies face
    # the same workload within a repetition.
    tasks = [
        (policy, count, root.spawn("run", count, rep).root_seed)
        for count in counts
        for policy in policies
        for rep in range(repeats)
    ]
    reduce = partial(_reduce, resume_mode=resume_mode, context_overhead=context_overhead)
    rows = iter(fanout.fan_out(reduce, tasks, _width(len(tasks))))
    tables: list[dict] = [{policy: {} for policy in policies} for _ in range(6)]
    for count in counts:
        for policy in policies:
            sums = [0.0, 0.0, 0, 0.0, 0.0, 0.0]
            for _ in range(repeats):
                for column, value in enumerate(next(rows)):
                    sums[column] += value
            for column, (table, total) in enumerate(zip(tables, sums)):
                # Failures are a total across repetitions, the rest a mean.
                table[policy][count] = total if column == 2 else total / repeats
    finished, suspended, failures, p95, slowdown, fairness = tables
    return SweepResult(
        policies=tuple(policies),
        counts=tuple(counts),
        repeats=repeats,
        seed=seed,
        finished=finished,
        suspended=suspended,
        failures=failures,
        p95_suspended=p95,
        mean_slowdown=slowdown,
        fairness=fairness,
    )


def run_trace(
    policy: str,
    entries: "list",
    *,
    seed: int = 0,
    resume_mode: str = "fit",
    context_overhead: int | None = None,
) -> ScheduleResult:
    """Replay a parsed JSONL trace (see :mod:`repro.workloads.trace`).

    Each entry becomes one container with its own limit, duration, and
    program kind; everything else matches :func:`run_schedule`.
    """
    from repro.workloads.mnist import MnistConfig, mnist_program
    from repro.workloads.sample import sample_program, usable_gpu_memory

    def command(entry):
        if entry.kind == "mnist":
            config = MnistConfig().scaled(entry.mnist_steps)
            return lambda clock: lambda api: mnist_program(api, config)
        gpu_bytes = usable_gpu_memory(entry.gpu_limit, CONTEXT_OVERHEAD_CHARGE)
        return lambda clock: lambda api: sample_program(
            api, gpu_bytes=gpu_bytes, duration=entry.duration, clock=clock, chunks=entry.chunks
        )

    submissions = [
        _Submission(
            entry.at, entry.name, entry.kind,
            {"nvidia_memory": entry.gpu_limit, "vcpus": entry.vcpus,
             "memory_limit": entry.host_memory},
            command(entry),
        )
        for entry in entries
    ]
    return _simulate(
        policy, len(entries), seed, "trace", submissions,
        resume_mode=resume_mode, context_overhead=context_overhead,
    )
