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
    #: Finished trace spans (populated by ``capture_trace=True``; virtual
    #: timestamps — feed to :func:`repro.obs.chrome.write_chrome_trace`).
    spans: list = field(default_factory=list)
    #: The scheduler's full event log (populated by ``capture_events=True``).
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
    capture_trace: bool = False,
    capture_events: bool = False,
) -> ScheduleResult:
    """Simulate one cloud-usage schedule under one policy.

    ``program_margin`` is how much below its limit each sample program
    allocates (default: the 66 MiB context charge, the allocation an
    overhead-aware user makes).  Setting it to 0 models naive users who
    allocate their full declared limit — used by the overhead ablation.

    ``capture_trace`` wires a virtual-clock tracer through the wrapper and
    scheduler and returns the finished spans on the result;
    ``capture_events`` returns the scheduler's event log.  Both feed the
    Chrome trace export (``repro run --chrome-trace``).
    """
    factory = SeedSequenceFactory(seed)
    env = Environment()
    tracer = None
    if capture_trace:
        from repro.obs.trace import Tracer

        tracer = Tracer(clock=lambda: env.now, seed=seed)
    system = ConVGPU(
        policy,
        clock=lambda: env.now,
        rng=factory.generator("policy", policy),
        resume_mode=resume_mode,
        context_overhead=context_overhead,
        tracer=tracer,
    )
    system.engine.images.add(make_cuda_image("sample"))
    bridge = SimIpcBridge(env, system.service.handle)
    runner = SimProgramRunner(env, system.device, bridge)
    if arrivals is None:
        arrivals = cloud_arrivals(count, factory.generator("arrivals"), interval=interval)
    finished: list[tuple] = []

    def submit(arrival: Arrival):
        yield env.timeout(arrival.time)
        command = make_sample_command(
            arrival.container_type,
            lambda: env.now,
            overhead=(
                program_margin
                if program_margin is not None
                else CONTEXT_OVERHEAD_CHARGE
            ),
            chunks=program_chunks,
        )
        container = system.nvdocker.run(
            "sample",
            name=arrival.name,
            container_type=arrival.container_type,
            command=command,
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
        finished.append(
            (arrival.name, arrival.container_type.name, arrival.time, env.now, exit_code)
        )

    for arrival in arrivals:
        env.process(submit(arrival))
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
        spans=tracer.finished() if tracer is not None else [],
        events=list(system.scheduler.log) if capture_events else [],
    )


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


def sweep(
    policies: tuple[str, ...] = ("FIFO", "BF", "RU", "Rand"),
    counts: tuple[int, ...] = PAPER_CONTAINER_COUNTS,
    *,
    repeats: int = 6,
    seed: int = DEFAULT_SEED,
    resume_mode: str = "fit",
    context_overhead: int | None = None,
) -> SweepResult:
    """Run the whole evaluation grid (Tables IV and V)."""
    # In-function import: experiments.metrics imports this module.
    from repro.experiments.metrics import compute_metrics

    finished: dict[str, dict[int, float]] = {p: {} for p in policies}
    suspended: dict[str, dict[int, float]] = {p: {} for p in policies}
    failures: dict[str, dict[int, int]] = {p: {} for p in policies}
    p95: dict[str, dict[int, float]] = {p: {} for p in policies}
    slowdown: dict[str, dict[int, float]] = {p: {} for p in policies}
    fairness: dict[str, dict[int, float]] = {p: {} for p in policies}
    root = SeedSequenceFactory(seed)
    for count in counts:
        for policy in policies:
            finished_sum = 0.0
            suspended_sum = 0.0
            failure_sum = 0
            p95_sum = 0.0
            slowdown_sum = 0.0
            fairness_sum = 0.0
            for rep in range(repeats):
                # Arrival sequence depends on (count, rep) only, so all
                # policies face the same workload within a repetition.
                rep_seed = root.spawn("run", count, rep).root_seed
                result = run_schedule(
                    policy,
                    count,
                    rep_seed,
                    resume_mode=resume_mode,
                    context_overhead=context_overhead,
                )
                finished_sum += result.finished_time
                suspended_sum += result.avg_suspended
                failure_sum += result.failures
                derived = compute_metrics(result)
                p95_sum += derived.p95_suspended
                slowdown_sum += derived.mean_slowdown
                fairness_sum += derived.fairness_slowdown
            finished[policy][count] = finished_sum / repeats
            suspended[policy][count] = suspended_sum / repeats
            failures[policy][count] = failure_sum
            p95[policy][count] = p95_sum / repeats
            slowdown[policy][count] = slowdown_sum / repeats
            fairness[policy][count] = fairness_sum / repeats
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
    from repro.core.scheduler.core import CONTEXT_OVERHEAD_CHARGE as OVH
    from repro.workloads.mnist import MnistConfig, mnist_program
    from repro.workloads.sample import sample_program, usable_gpu_memory

    factory = SeedSequenceFactory(seed)
    env = Environment()
    system = ConVGPU(
        policy,
        clock=lambda: env.now,
        rng=factory.generator("policy", policy),
        resume_mode=resume_mode,
        context_overhead=context_overhead,
    )
    system.engine.images.add(make_cuda_image("trace"))
    bridge = SimIpcBridge(env, system.service.handle)
    runner = SimProgramRunner(env, system.device, bridge)
    finished: list[tuple] = []

    def make_command(entry):
        if entry.kind == "mnist":
            config = MnistConfig().scaled(entry.mnist_steps)
            return lambda api: mnist_program(api, config)
        gpu_bytes = usable_gpu_memory(entry.gpu_limit, OVH)
        return lambda api: sample_program(
            api,
            gpu_bytes=gpu_bytes,
            duration=entry.duration,
            clock=lambda: env.now,
            chunks=entry.chunks,
        )

    def submit(entry):
        yield env.timeout(entry.at)
        container = system.nvdocker.run(
            "trace",
            name=entry.name,
            nvidia_memory=entry.gpu_limit,
            vcpus=entry.vcpus,
            memory_limit=entry.host_memory,
            command=make_command(entry),
        )
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
        finished.append((entry.name, entry.kind, entry.at, env.now, exit_code))

    for entry in entries:
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
        count=len(entries),
        seed=seed,
        finished_time=finished_time,
        avg_suspended=avg_suspended,
        outcomes=sorted(outcomes, key=lambda o: o.submitted_at),
        rejected_count=len(system.scheduler.log.of_type(AllocationRejected)),
        aborted_count=len(system.scheduler.log.of_type(AllocationAborted)),
        gpu_busy_seconds=system.device.hyperq.total_kernel_seconds,
    )
