"""Tests for the sample program itself (incl. the chunked variant)."""

import pytest

from repro.container.image import make_cuda_image
from repro.core.middleware import ConVGPU
from repro.core.scheduler.core import CONTEXT_OVERHEAD_CHARGE
from repro.core.scheduler.events import AllocationPaused, ContainerClosed
from repro.sim.engine import Environment
from repro.units import GiB, MiB
from repro.workloads.api import ProcessApi
from repro.workloads.runner import SimIpcBridge, SimProgramRunner
from repro.workloads.sample import make_sample_command, sample_program
from repro.workloads.types import TYPE_BY_NAME


def run_sample(command, *, nvidia_memory, policy="FIFO"):
    env = Environment()
    system = ConVGPU(policy=policy, clock=lambda: env.now)
    system.engine.images.add(make_cuda_image("s"))
    container = system.nvdocker.run(
        "s", name="c1", nvidia_memory=nvidia_memory, command=command
    )
    runner = SimProgramRunner(
        env, system.device, SimIpcBridge(env, system.service.handle)
    )
    proc = runner.run_program(
        ProcessApi(container.main_process),
        on_exit=lambda code: system.engine.notify_main_exit(
            container.container_id, code
        ),
    )
    env.run()
    return proc.value, env.now, system


class TestNominalDurations:
    @pytest.mark.parametrize("type_name", ["nano", "small", "xlarge"])
    def test_each_type_lands_on_its_duration(self, type_name):
        t = TYPE_BY_NAME[type_name]
        env_holder = {}

        def command(api, t=t):
            return sample_program(
                api,
                gpu_bytes=t.gpu_memory - CONTEXT_OVERHEAD_CHARGE,
                duration=t.sample_duration,
                clock=env_holder["clock"],
            )

        env = Environment()
        system = ConVGPU(policy="FIFO", clock=lambda: env.now)
        system.engine.images.add(make_cuda_image("s"))
        env_holder["clock"] = lambda: env.now
        container = system.nvdocker.run(
            "s", name="c1", nvidia_memory=t.gpu_memory, command=command
        )
        runner = SimProgramRunner(
            env, system.device, SimIpcBridge(env, system.service.handle)
        )
        proc = runner.run_program(
            ProcessApi(container.main_process),
            on_exit=lambda code: system.engine.notify_main_exit(
                container.container_id, code
            ),
        )
        env.run()
        assert proc.value == 0
        assert t.sample_duration <= env.now <= t.sample_duration + 1.0


class TestChunkedVariant:
    def test_chunks_sum_to_footprint(self):
        """All chunks together use exactly the declared footprint."""
        t = TYPE_BY_NAME["medium"]
        command = make_sample_command(t, lambda: 0.0, chunks=3)
        code, _, system = run_sample(command, nvidia_memory=t.gpu_memory)
        assert code == 0
        # Everything came back: usage zero after exit.
        assert system.device.allocator.used == 0

    def test_chunked_program_can_resume_midway(self):
        """A chunked program pauses at a *later* chunk, not only the first."""
        env = Environment()
        system = ConVGPU(policy="FIFO", clock=lambda: env.now)
        system.engine.images.add(make_cuda_image("s"))
        runner = SimProgramRunner(
            env, system.device, SimIpcBridge(env, system.service.handle)
        )

        def hog(api):
            err, ptr = yield from api.cudaMalloc(2 * GiB)
            yield from api.cudaLaunchKernel(10.0)
            yield from api.cudaFree(ptr)
            return 0

        hog_container = system.nvdocker.run(
            "s", name="hog", nvidia_memory=int(2.5 * GiB), command=hog
        )
        runner.run_program(
            ProcessApi(hog_container.main_process),
            on_exit=lambda code: system.engine.notify_main_exit(
                hog_container.container_id, code
            ),
        )
        t = TYPE_BY_NAME["xlarge"]  # 4 GiB footprint in 4 chunks
        command = make_sample_command(t, lambda: env.now, chunks=4)
        chunked_container = system.nvdocker.run(
            "s", name="chunked", nvidia_memory=t.gpu_memory, command=command
        )
        proc = runner.run_program(
            ProcessApi(chunked_container.main_process),
            on_exit=lambda code: system.engine.notify_main_exit(
                chunked_container.container_id, code
            ),
        )
        env.run()
        assert proc.value == 0
        log = system.scheduler.log
        (closed,) = [e for e in log.of_type(ContainerClosed) if e.container_id == "chunked"]
        # It paused (insufficient partial reservation) and later resumed.
        assert any(e.container_id == "chunked" for e in log.of_type(AllocationPaused))
        assert closed.suspended_total > 0

    def test_invalid_chunks_rejected(self):
        with pytest.raises(ValueError):
            list(
                sample_program(
                    None, gpu_bytes=MiB, duration=1.0, clock=lambda: 0.0, chunks=0
                )
            )


class TestRejectionPath:
    def test_over_limit_program_exits_2(self):
        t = TYPE_BY_NAME["small"]
        # Program built for a 'small' but the container declares 'nano'.
        command = make_sample_command(t, lambda: 0.0)
        code, _, _ = run_sample(command, nvidia_memory=128 * MiB)
        assert code == 2
