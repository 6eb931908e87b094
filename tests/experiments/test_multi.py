"""Tests for the Fig. 7/8 multi-container experiment driver."""

import json
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import pytest

from repro.experiments import multi
from repro.experiments.multi import (
    DEFAULT_SEED,
    SweepGridError,
    _fan_out,
    run_schedule,
    sweep,
)
from repro.workloads.arrivals import cloud_arrivals
from repro.sim.rng import SeedSequenceFactory


class TestRunSchedule:
    def test_all_containers_finish_without_failures(self):
        for policy in ("FIFO", "BF", "RU", "Rand"):
            result = run_schedule(policy, 12, 123)
            assert len(result.outcomes) == 12
            assert result.failures == 0, f"{policy} had failures"

    def test_deterministic_for_seed(self):
        a = run_schedule("BF", 10, 99)
        b = run_schedule("BF", 10, 99)
        assert a.finished_time == b.finished_time
        assert a.avg_suspended == b.avg_suspended
        assert [o.name for o in a.outcomes] == [o.name for o in b.outcomes]

    def test_different_seeds_differ(self):
        a = run_schedule("BF", 10, 1)
        b = run_schedule("BF", 10, 2)
        assert a.finished_time != b.finished_time

    def test_makespan_bounds(self):
        """Finished time >= last arrival + its nominal duration."""
        result = run_schedule("FIFO", 8, 5)
        last = max(result.outcomes, key=lambda o: o.submitted_at)
        assert result.finished_time >= last.submitted_at
        assert result.finished_time >= max(o.finished_at for o in result.outcomes) - 1e-9

    def test_suspension_zero_for_single_container(self):
        result = run_schedule("BF", 1, 7)
        assert result.avg_suspended == 0.0

    def test_turnaround_at_least_nominal_duration(self):
        from repro.workloads.types import TYPE_BY_NAME

        result = run_schedule("RU", 6, 11)
        for outcome in result.outcomes:
            nominal = TYPE_BY_NAME[outcome.type_name].sample_duration
            assert outcome.turnaround >= nominal * 0.95

    def test_explicit_arrivals_override(self):
        factory = SeedSequenceFactory(3)
        arrivals = cloud_arrivals(5, factory.generator("x"))
        result = run_schedule("FIFO", 999, 3, arrivals=arrivals)
        assert len(result.outcomes) == 5  # count param ignored when given


class TestSweep:
    @pytest.fixture(scope="class")
    def small_sweep(self):
        return sweep(counts=(4, 8, 16), repeats=2, seed=DEFAULT_SEED)

    def test_grid_complete(self, small_sweep):
        assert set(small_sweep.finished) == {"FIFO", "BF", "RU", "Rand"}
        for policy in small_sweep.policies:
            assert set(small_sweep.finished[policy]) == {4, 8, 16}
            assert set(small_sweep.suspended[policy]) == {4, 8, 16}

    def test_no_failures_anywhere(self, small_sweep):
        for policy in small_sweep.policies:
            assert all(v == 0 for v in small_sweep.failures[policy].values())

    def test_makespan_grows_with_count(self, small_sweep):
        """Fig. 7: finished time roughly doubles as count doubles."""
        for policy in small_sweep.policies:
            row = small_sweep.finished_row(policy)
            assert row[0] < row[1] < row[2]
            # "roughly increased to double": allow a generous band.
            assert 1.2 < row[2] / row[1] < 3.5

    def test_rows_expose_table_layout(self, small_sweep):
        assert len(small_sweep.finished_row("BF")) == 3
        assert len(small_sweep.suspended_row("BF")) == 3

    def test_policies_share_arrival_sequences(self):
        """Within a repetition, all policies face the same workload."""
        r_fifo = sweep(policies=("FIFO",), counts=(6,), repeats=1, seed=42)
        r_bf = sweep(policies=("BF",), counts=(6,), repeats=1, seed=42)
        # Same seed derivation -> identical type draws; makespans may differ
        # but a single-run FIFO-vs-BF pairing at low load should coincide
        # (no contention to schedule differently).
        assert r_fifo.finished["FIFO"][6] == pytest.approx(
            r_bf.finished["BF"][6], rel=0.2
        )


#: A sweep small enough to run in a fraction of a second: four schedules.
SMALL = {"policies": ("FIFO", "BF"), "counts": (4,), "repeats": 2, "seed": 7}


def _cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _fork_or_skip() -> None:
    """Skip where ``sweep`` may not fork, saying why."""
    if _cpus() < 2:
        pytest.skip("one CPU: sweep stays in-process")
    if threading.active_count() > 1:
        pytest.skip(f"another thread is alive, sweep stays in-process: {threading.enumerate()}")


def _square(task: int) -> int:
    return task * task


def _fail_on_one(task: int) -> int:
    if task == 1:
        raise LookupError("task 1 failed")
    return task


class TwoArgError(Exception):
    """Pickles, but cannot be rebuilt from its ``args``."""

    def __init__(self, code: int, api: str) -> None:
        super().__init__(f"{api} failed with {code}")


def _fail_unrebuildably(task: int) -> int:
    if task == 1:
        raise TwoArgError(2, "cudaMalloc")
    return task


def _die_on_one(task: int) -> int:
    if task == 1:
        os._exit(3)
    return task


def _pass_through(monkeypatch) -> None:
    """Replace ``multi.run_schedule`` with a wrapper: sweeps stay in-process."""
    monkeypatch.setattr(multi, "run_schedule", lambda *a, **kw: run_schedule(*a, **kw))


@pytest.fixture
def forks(monkeypatch):
    """The pids of every child ``os.fork`` made while the test ran."""
    pids = []
    real_fork = os.fork

    def spy():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", spy)
    return pids


class TestSweepGrid:
    @pytest.mark.parametrize(
        "change, argument",
        [
            ({"repeats": 0}, "repeats"),
            ({"repeats": -2}, "repeats"),
            ({"policies": ()}, "policies"),
            ({"counts": ()}, "counts"),
            ({"counts": (4, 0)}, "counts"),
        ],
    )
    def test_rejects_a_grid_with_no_work_before_running_any(
        self, monkeypatch, forks, change, argument
    ):
        def no_schedule(*args, **kwargs):
            raise AssertionError("a schedule ran")

        monkeypatch.setattr(multi, "run_schedule", no_schedule)
        with pytest.raises(SweepGridError, match=argument) as caught:
            sweep(**{**SMALL, **change})
        assert caught.value.argument == argument
        assert forks == []


class TestFanOut:
    def test_forked_sweep_equals_the_in_process_sweep(self, monkeypatch, forks):
        _fork_or_skip()
        grid = {"counts": (4, 12), "repeats": 2, "seed": DEFAULT_SEED}
        forked = sweep(**grid)
        assert forks, "the sweep ran in-process"
        _pass_through(monkeypatch)
        in_process = sweep(**grid)
        assert forked.policies == ("FIFO", "BF", "RU", "Rand")
        assert forked.p95_suspended and forked.mean_slowdown and forked.fairness
        assert forked == in_process

    def test_a_sweep_forks_one_child_per_extra_cpu(self, forks):
        _fork_or_skip()
        sweep(**SMALL)
        assert len(forks) == min(_cpus(), 4) - 1

    def test_results_come_back_in_task_order(self):
        assert _fan_out(_square, list(range(7)), 3) == [task * task for task in range(7)]

    def test_a_child_exception_is_raised_in_the_parent(self, forks):
        with pytest.raises(LookupError, match="^task 1 failed$"):
            _fan_out(_fail_on_one, [0, 1, 2, 3], 2)  # task 1: stripe 1, a child's
        assert len(forks) == 1

    def test_a_child_exception_that_cannot_be_rebuilt_keeps_its_text(self):
        with pytest.raises(RuntimeError, match="TwoArgError: cudaMalloc failed with 2"):
            _fan_out(_fail_unrebuildably, [0, 1], 2)

    def test_a_child_that_dies_without_results_names_its_exit_code(self):
        with pytest.raises(ChildProcessError, match="exit code 3"):
            _fan_out(_die_on_one, [0, 1], 2)

    def test_forks_see_one_thread_and_leave_no_child(self):
        # A fresh interpreter: waitpid(-1) here could reap another test's
        # child, and only a fresh one still has numpy's OpenBLAS pool.  The
        # thread count is read where Python 3.12 reads it for its
        # fork-with-threads warning: in the parent, after the fork.
        script = """
import json
import os
from repro.experiments.multi import _fan_out, sweep

threads_at_fork = []
os.register_at_fork(
    after_in_parent=lambda: threads_at_fork.append(len(os.listdir("/proc/self/task")))
)

def no_child_left(after):
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    raise SystemExit(f"a child outlived {after}")

sweep(policies=("FIFO", "BF"), counts=(4,), repeats=2, seed=7)
no_child_left("a clean sweep")
for failing in (0, 1):  # this process's own stripe, then a child's
    def fail(task):
        if task == failing:
            raise ValueError("stripe failed")
        return task
    try:
        _fan_out(fail, [0, 1, 2, 3], 2)
    except ValueError:
        pass
    else:
        raise SystemExit("the failure was not raised")
    no_child_left(f"a failure in stripe {failing}")
print(json.dumps(threads_at_fork))
"""
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("no /proc/self/task to count threads in")
        src = str(Path(multi.__file__).resolve().parents[2])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, (src, os.environ.get("PYTHONPATH")))
        )}
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        threads_at_fork = json.loads(proc.stdout)
        sweep_forks = min(_cpus(), 4) - 1
        assert len(threads_at_fork) == sweep_forks + 2
        assert set(threads_at_fork) == {1}

    def test_no_fork_while_another_thread_is_alive(self, forks):
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            sweep(**SMALL)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert forks == []

    def test_no_fork_when_run_schedule_is_replaced(self, monkeypatch, forks):
        _pass_through(monkeypatch)
        sweep(**SMALL)
        assert forks == []

    def test_no_fork_on_one_cpu(self, monkeypatch, forks):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        sweep(**SMALL)
        assert forks == []

    def test_a_sweep_warns_nothing(self):
        # Recorded, not raised: os.fork drops its fork-with-threads warning
        # even when a filter turns it into an error.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sweep(**SMALL)
        assert [str(warning.message) for warning in caught] == []


class TestGpuUtilization:
    def test_busy_seconds_accumulate(self):
        result = run_schedule("BF", 8, 5)
        assert result.gpu_busy_seconds > 0
        # Average kernel concurrency is bounded by the Hyper-Q width.
        assert 0 < result.gpu_utilization <= 32

    def test_bf_utilization_competitive_at_heavy_load(self):
        """BF's makespan win is a utilization win on the memory-gated GPU."""
        results = {p: run_schedule(p, 30, 2017) for p in ("BF", "Rand")}
        if results["BF"].finished_time < results["Rand"].finished_time:
            assert (
                results["BF"].gpu_utilization
                >= results["Rand"].gpu_utilization * 0.95
            )
