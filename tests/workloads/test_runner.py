"""Tests for the simulation runner: effects, pauses, CRT bracketing."""

import pytest

from repro.container.image import make_cuda_image
from repro.core.middleware import ConVGPU
from repro.core.scheduler.core import CONTEXT_OVERHEAD_CHARGE
from repro.core.scheduler.events import AllocationPaused, ContainerClosed, ProcessExited
from repro.cuda.effects import HostCompute
from repro.cuda.errors import cudaError
from repro.sim.engine import Environment
from repro.units import GiB, MiB
from repro.workloads.api import ProcessApi
from repro.workloads.runner import SimIpcBridge, SimProgramRunner, fail_program
from repro.workloads.sample import make_sample_command, sample_program
from repro.workloads.types import TYPE_BY_NAME


def build(policy="BF", managed=True):
    env = Environment()
    system = ConVGPU(policy=policy, managed=managed, clock=lambda: env.now)
    system.engine.images.add(make_cuda_image("img"))
    bridge = SimIpcBridge(env, system.service.handle) if managed else None
    runner = SimProgramRunner(env, system.device, bridge)
    return env, system, runner


def launch(env, system, runner, *, name, command, nvidia_memory=None):
    container = system.nvdocker.run(
        "img", name=name, command=command, nvidia_memory=nvidia_memory
    )
    proc = runner.run_program(
        ProcessApi(container.main_process),
        on_exit=lambda code: system.engine.notify_main_exit(
            container.container_id, code
        ),
    )
    return container, proc


class TestBasicExecution:
    def test_sample_program_duration_honored(self):
        env, system, runner = build()
        t = TYPE_BY_NAME["small"]
        _, proc = launch(
            env, system, runner, name="c1",
            command=make_sample_command(t, lambda: env.now),
        )
        env.run()
        assert proc.value == 0
        # Nominal 21 s; fat-binary + context + transfer overheads are small.
        assert t.sample_duration <= env.now < t.sample_duration + 1.0

    def test_program_effects_advance_time(self):
        env, system, runner = build()

        def program(api):
            yield HostCompute(2.5)
            err, _ = yield from api.cudaLaunchKernel(1.5)
            assert err is cudaError.cudaSuccess
            return 0

        _, proc = launch(env, system, runner, name="c1", command=program)
        env.run()
        assert env.now >= 4.0

    def test_exit_code_from_return_value(self):
        env, system, runner = build()

        def program(api):
            yield HostCompute(0.1)
            return 42

        container, proc = launch(env, system, runner, name="c1", command=program)
        env.run()
        assert proc.value == 42
        assert container.exit_code == 42

    def test_fail_program_sets_exit_code(self):
        env, system, runner = build()

        def program(api):
            yield HostCompute(0.1)
            raise fail_program(3)

        container, proc = launch(env, system, runner, name="c1", command=program)
        env.run()
        assert container.exit_code == 3

    def test_crt_registers_and_cleans_up(self):
        """Leaked memory is reclaimed by __cudaUnregisterFatBinary."""
        env, system, runner = build()

        def leaky(api):
            err, _ = yield from api.cudaMalloc(100 * MiB)
            assert err is cudaError.cudaSuccess
            return 0  # never frees

        container, proc = launch(env, system, runner, name="c1", command=leaky)
        env.run()
        assert proc.value == 0
        assert system.device.allocator.used == 0
        # The process exit, not the container exit, took the leak back.
        (exited,) = system.scheduler.log.of_type(ProcessExited)
        assert exited.reclaimed == 100 * MiB + CONTEXT_OVERHEAD_CHARGE


class TestPauseResume:
    def test_second_container_pauses_until_first_exits(self):
        env, system, runner = build(policy="FIFO")
        big = TYPE_BY_NAME["xlarge"]

        def hog(api):
            err, ptr = yield from api.cudaMalloc(4 * GiB - CONTEXT_OVERHEAD_CHARGE)
            assert err is cudaError.cudaSuccess
            err, _ = yield from api.cudaLaunchKernel(10.0)
            yield from api.cudaFree(ptr)
            return 0

        def late(api):
            err, ptr = yield from api.cudaMalloc(2 * GiB)
            assert err is cudaError.cudaSuccess
            return 0

        launch(env, system, runner, name="hog", command=hog, nvidia_memory=5 * GiB)
        c2, p2 = launch(
            env, system, runner, name="late", command=late, nvidia_memory=3 * GiB
        )
        env.run()
        assert p2.value == 0
        log = system.scheduler.log
        (closed,) = [e for e in log.of_type(ContainerClosed) if e.container_id == "late"]
        # 'late' waited roughly as long as the hog's kernel.
        assert closed.suspended_total > 5.0
        assert [e.container_id for e in log.of_type(AllocationPaused)] == ["late"]

    def test_suspension_blocks_virtual_time(self):
        env, system, runner = build(policy="FIFO")

        def hog(api):
            yield from api.cudaMalloc(4 * GiB)
            err, _ = yield from api.cudaLaunchKernel(30.0)
            return 0

        def late(api):
            t0 = env.now
            yield from api.cudaMalloc(3 * GiB)
            late.waited = env.now - t0
            return 0

        launch(env, system, runner, name="h", command=hog, nvidia_memory=5 * GiB)
        launch(env, system, runner, name="l", command=late, nvidia_memory=4 * GiB)
        env.run()
        assert late.waited > 25.0


class TestUnmanagedMode:
    def test_native_failure_without_scheduler(self):
        """The paper's §I motivation: unmanaged over-commit fails."""
        env, system, runner = build(managed=False)

        def greedy(api):
            err, _ = yield from api.cudaMalloc(3 * GiB)
            if err is not cudaError.cudaSuccess:
                raise fail_program(2)
            err, _ = yield from api.cudaLaunchKernel(5.0)
            return 0

        c1, p1 = launch(env, system, runner, name="g1", command=greedy)
        c2, p2 = launch(env, system, runner, name="g2", command=greedy)
        env.run()
        codes = sorted([p1.value, p2.value])
        assert codes == [0, 2]  # one succeeded, one crashed

    def test_no_ipc_traffic_without_preload(self):
        env, system, runner = build(managed=False)

        def program(api):
            err, ptr = yield from api.cudaMalloc(MiB)
            yield from api.cudaFree(ptr)
            return 0

        _, proc = launch(env, system, runner, name="c1", command=program)
        env.run()
        assert proc.value == 0


class TestBridgeAccounting:
    def test_blocking_calls_and_notifications_counted(self):
        env, system, runner = build()

        def program(api):
            err, ptr = yield from api.cudaMalloc(MiB)  # request + commit
            yield from api.cudaFree(ptr)  # release notification
            return 0

        launch(env, system, runner, name="c1", command=program)
        env.run()
        bridge = runner.bridge
        assert bridge.calls == 1  # alloc_request
        # commit + release + process_exit notifications.
        assert bridge.notifications == 3
