"""End-to-end integration: the full stack, sim and live modes."""

import pytest

from repro.container.image import make_cuda_image
from repro.core.middleware import ConVGPU
from repro.core.scheduler.core import CONTEXT_OVERHEAD_CHARGE
from repro.cuda.errors import cudaError
from repro.errors import UnknownContainerError
from repro.experiments.live import HybridClock, LiveProgramRunner
from repro.sim.engine import Environment
from repro.units import GiB, MiB
from repro.workloads.api import ProcessApi
from repro.workloads.runner import SimIpcBridge, SimProgramRunner
from repro.workloads.sample import make_sample_command
from repro.workloads.types import TYPE_BY_NAME


class TestSimEndToEnd:
    def test_full_lifecycle_reconciles_all_layers(self):
        """nvidia-docker run -> LD_PRELOAD -> scheduler -> exit -> cleanup."""
        env = Environment()
        system = ConVGPU(policy="BF", clock=lambda: env.now)
        system.engine.images.add(make_cuda_image("app"))
        bridge = SimIpcBridge(env, system.service.handle)
        runner = SimProgramRunner(env, system.device, bridge)
        t = TYPE_BY_NAME["medium"]
        container = system.nvdocker.run(
            "app",
            name="e2e",
            container_type=t,
            command=make_sample_command(t, lambda: env.now),
        )
        # Mid-run checks happen through the scheduler's view.
        record = system.container_record(container)
        assert record.limit == t.gpu_memory

        proc = runner.run_program(
            ProcessApi(container.main_process),
            on_exit=lambda code: system.engine.notify_main_exit(
                container.container_id, code
            ),
        )
        env.run()
        assert proc.value == 0
        # Every layer reconciled to zero.
        assert system.device.allocator.used == 0
        assert system.scheduler.reserved == 0
        assert system.plugin.close_signals == ["e2e"]
        assert container.exit_code == 0
        system.scheduler.check_invariants()
        system.device.allocator.check_invariants()

    def test_three_tenants_share_one_gpu(self):
        """The headline scenario: more demand than the GPU holds, no failures."""
        env = Environment()
        system = ConVGPU(policy="BF", clock=lambda: env.now)
        system.engine.images.add(make_cuda_image("app"))
        bridge = SimIpcBridge(env, system.service.handle)
        runner = SimProgramRunner(env, system.device, bridge)
        procs = []
        for i, type_name in enumerate(["xlarge", "xlarge", "large"]):
            t = TYPE_BY_NAME[type_name]

            def submit(i=i, t=t):
                yield env.timeout(i * 2.0)
                container = system.nvdocker.run(
                    "app",
                    name=f"tenant-{i}",
                    container_type=t,
                    command=make_sample_command(t, lambda: env.now),
                )
                proc = runner.run_program(
                    ProcessApi(container.main_process),
                    on_exit=lambda code: system.engine.notify_main_exit(
                        container.container_id, code
                    ),
                )
                code = yield proc
                procs.append(code)

            env.process(submit())
        env.run()
        # 2x 4 GiB + 1x 2 GiB demanded of a 5 GiB device: all complete.
        assert procs.count(0) == 3
        assert system.scheduler.reserved == 0


@pytest.mark.integration
class TestLiveEndToEnd:
    """Real daemon, real AF_UNIX sockets, real interception."""

    def test_live_program_through_real_sockets(self):
        system = ConVGPU(policy="BF", live=True)
        try:
            system.engine.images.add(make_cuda_image("app"))

            def program(api):
                err, ptr = yield from api.cudaMalloc(100 * MiB)
                assert err is cudaError.cudaSuccess
                err, (free, total) = yield from api.cudaMemGetInfo()
                # Virtualized view: the container sees its 1 GiB limit.
                assert total == GiB
                assert free == GiB - 100 * MiB - CONTEXT_OVERHEAD_CHARGE
                err, _ = yield from api.cudaFree(ptr)
                assert err is cudaError.cudaSuccess
                return 0

            container = system.nvdocker.run("app", name="live1", command=program)
            clock = HybridClock()
            with LiveProgramRunner(
                system.device,
                socket_path=system.container_socket_path("live1"),
                clock=clock,
            ) as runner:
                code = runner.run_program(ProcessApi(container.main_process))
            assert code == 0
            system.engine.notify_main_exit(container.container_id, code)
            # Close signal travelled over the real control socket.
            with pytest.raises(UnknownContainerError):
                system.scheduler.container("live1")
        finally:
            system.close()

    def test_live_rejection_over_sockets(self):
        system = ConVGPU(policy="FIFO", live=True)
        try:
            system.engine.images.add(make_cuda_image("app"))

            def greedy(api):
                err, _ = yield from api.cudaMalloc(2 * GiB)  # limit is 1 GiB
                return 0 if err is cudaError.cudaSuccess else 2

            container = system.nvdocker.run("app", name="live2", command=greedy)
            with LiveProgramRunner(
                system.device,
                socket_path=system.container_socket_path("live2"),
            ) as runner:
                code = runner.run_program(ProcessApi(container.main_process))
            assert code == 2
            system.engine.notify_main_exit(container.container_id, code)
        finally:
            system.close()

    def test_live_pause_resume_across_threads(self):
        """A real blocked recv released by another container's exit."""
        import threading

        system = ConVGPU(policy="FIFO", live=True)
        try:
            system.engine.images.add(make_cuda_image("app"))

            def hog(api):
                err, _ = yield from api.cudaMalloc(4 * GiB)
                assert err is cudaError.cudaSuccess
                return 0

            def late(api):
                err, _ = yield from api.cudaMalloc(2 * GiB)
                return 0 if err is cudaError.cudaSuccess else 2

            hog_container = system.nvdocker.run(
                "app", name="hog", command=hog, nvidia_memory=5 * GiB
            )
            with LiveProgramRunner(
                system.device, socket_path=system.container_socket_path("hog")
            ) as runner:
                runner.run_program(ProcessApi(hog_container.main_process))

            late_container = system.nvdocker.run(
                "app", name="late", command=late, nvidia_memory=3 * GiB
            )
            outcome = {}

            def run_late():
                with LiveProgramRunner(
                    system.device,
                    socket_path=system.container_socket_path("late"),
                ) as runner:
                    outcome["code"] = runner.run_program(
                        ProcessApi(late_container.main_process)
                    )

            thread = threading.Thread(target=run_late)
            thread.start()
            thread.join(timeout=0.5)
            assert thread.is_alive()  # paused: blocked in recv
            # The hog exits; its reservation redistributes; 'late' resumes.
            system.engine.notify_main_exit(hog_container.container_id, 0)
            thread.join(timeout=5)
            assert not thread.is_alive()
            assert outcome["code"] == 0
            system.engine.notify_main_exit(late_container.container_id, 0)
        finally:
            system.close()
