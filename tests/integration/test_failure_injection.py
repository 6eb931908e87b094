"""Failure injection: kills, escapes, and crash isolation.

The paper's *Consistency* goal (§III-A): "failures in one container would
not affect other containers."  These tests inject the ugly cases — a
container killed while paused, a program that leaks everything, a
statically-linked binary that escapes interception — and check that the
rest of the system stays healthy.
"""

import pytest

from repro.container.image import make_cuda_image
from repro.core.middleware import ConVGPU
from repro.core.scheduler.events import AllocationCommitted
from repro.cuda.effects import HostCompute
from repro.cuda.errors import cudaError
from repro.sim.engine import Environment
from repro.sim.events import Interrupt
from repro.units import GiB, MiB
from repro.workloads.api import ProcessApi
from repro.workloads.runner import SimIpcBridge, SimProgramRunner


def build(policy="FIFO"):
    env = Environment()
    system = ConVGPU(policy=policy, clock=lambda: env.now)
    system.engine.images.add(make_cuda_image("app"))
    bridge = SimIpcBridge(env, system.service.handle)
    runner = SimProgramRunner(env, system.device, bridge)
    return env, system, runner


def launch(env, system, runner, *, name, command, nvidia_memory):
    container = system.nvdocker.run(
        "app", name=name, command=command, nvidia_memory=nvidia_memory
    )
    proc = runner.run_program(
        ProcessApi(container.main_process),
        on_exit=lambda code: system.engine.notify_main_exit(
            container.container_id, code
        ),
    )
    return container, proc


class TestKillWhilePaused:
    def test_killing_a_paused_container_unblocks_nothing_else(self):
        """docker stop on a *paused* container must clean all its state."""
        env, system, runner = build()

        def hog(api):
            yield from api.cudaMalloc(4 * GiB)
            yield from api.cudaLaunchKernel(30.0)
            return 0

        def doomed(api):
            err, _ = yield from api.cudaMalloc(3 * GiB)  # will pause
            # Rejected when its container exits under it.
            return 0 if err is cudaError.cudaSuccess else 2

        def third(api):
            err, _ = yield from api.cudaMalloc(2 * GiB)  # queues behind doomed
            return 0 if err is cudaError.cudaSuccess else 2

        launch(env, system, runner, name="hog", command=hog, nvidia_memory=5 * GiB)
        doomed_container, doomed_proc = launch(
            env, system, runner, name="doomed", command=doomed, nvidia_memory=4 * GiB
        )
        _, third_proc = launch(
            env, system, runner, name="third", command=third, nvidia_memory=3 * GiB
        )

        def killer(env):
            yield env.timeout(5.0)
            assert system.scheduler.container("doomed").paused
            # docker stop: volumes unmount -> close signal -> scheduler
            # rejects the withheld reply.
            system.engine.stop(doomed_container.container_id)

        env.process(killer(env))
        env.run()
        # The doomed container reports the kill (137), not a hang: its
        # withheld allocation reply was rejected, the program unblocked,
        # and docker's stop code won the exit-code race.
        assert doomed_proc.value == 137
        # The third container still completed once the hog finished.
        assert third_proc.value == 0
        assert system.scheduler.reserved == 0
        system.scheduler.check_invariants()
        system.device.allocator.check_invariants()

    def test_interrupting_a_running_program(self):
        """A SIGKILL'd process: the DES interrupt path + CRT cleanup."""
        env, system, runner = build()

        def longrunner(api):
            err, ptr = yield from api.cudaMalloc(GiB)
            assert err is cudaError.cudaSuccess
            try:
                yield from api.cudaLaunchKernel(100.0)
            except Interrupt:
                # Killed mid-kernel; the program dies without cudaFree.
                from repro.workloads.runner import fail_program

                raise fail_program(137) from None
            return 0

        container, proc = launch(
            env, system, runner, name="victim", command=longrunner,
            nvidia_memory=2 * GiB,
        )

        def killer(env):
            yield env.timeout(3.0)
            # Interrupt the program's simulation process (the kill signal).
            for sim_proc in [proc]:
                sim_proc.interrupt("SIGKILL")

        env.process(killer(env))
        env.run()
        assert proc.value == 137
        assert container.exit_code == 137
        # CRT teardown still ran: everything reclaimed.
        assert system.device.allocator.used == 0
        assert system.scheduler.reserved == 0


class TestLeakIsolation:
    def test_leaky_container_cannot_poison_successors(self):
        env, system, runner = build()

        def leaky(api):
            yield from api.cudaMalloc(3 * GiB)  # never freed
            yield HostCompute(1.0)
            return 0

        def successor(api):
            err, ptr = yield from api.cudaMalloc(4 * GiB)
            return 0 if err is cudaError.cudaSuccess else 2

        _, p1 = launch(env, system, runner, name="leaky", command=leaky,
                       nvidia_memory=4 * GiB)
        env.run()
        assert p1.value == 0
        assert system.device.allocator.used == 0  # leak reclaimed

        _, p2 = launch(env, system, runner, name="succ", command=successor,
                       nvidia_memory=5 * GiB)
        env.run()
        assert p2.value == 0


class TestStaticLinkEscape:
    """§III-C's caveat: without -cudart=shared, interception fails."""

    def test_static_binary_escapes_management_and_can_crash_others(self):
        env, system, runner = build()
        system.engine.images.add(
            make_cuda_image("static-app", cudart_shared=False)
        )

        def greedy(api):
            err, _ = yield from api.cudaMalloc(4 * GiB)
            yield HostCompute(5.0)
            return 0 if err is cudaError.cudaSuccess else 2

        # The static container claims a tiny limit but allocates 4 GiB —
        # unintercepted, the scheduler never sees the allocation.
        static_container = system.nvdocker.run(
            "static-app", name="rogue", command=greedy, nvidia_memory=128 * MiB
        )
        rogue_proc = runner.run_program(
            ProcessApi(static_container.main_process),
            on_exit=lambda code: system.engine.notify_main_exit(
                static_container.container_id, code
            ),
        )

        def victim(api):
            yield HostCompute(1.0)  # start after the rogue grabbed memory
            err, _ = yield from api.cudaMalloc(2 * GiB)
            return 0 if err is cudaError.cudaSuccess else 2

        _, victim_proc = launch(
            env, system, runner, name="victim", command=victim,
            nvidia_memory=3 * GiB,
        )
        env.run()
        # The rogue allocated 4 GiB the scheduler knows nothing about...
        assert rogue_proc.value == 0
        assert system.scheduler.reserved == 0
        assert not [
            e for e in system.scheduler.log.of_type(AllocationCommitted)
            if e.container_id == "rogue"
        ]
        # ...so the *managed* victim got a granted allocation that failed
        # natively: exactly the §III-C warning about static linking.
        assert victim_proc.value == 2

    def test_shared_cudart_prevents_the_escape(self):
        env, system, runner = build()

        def greedy(api):
            err, _ = yield from api.cudaMalloc(4 * GiB)
            return 0 if err is cudaError.cudaSuccess else 2

        container, proc = launch(
            env, system, runner, name="bounded", command=greedy,
            nvidia_memory=128 * MiB,
        )
        env.run()
        # Intercepted: the 4 GiB request is *rejected* by the 128 MiB limit.
        assert proc.value == 2
        assert system.scheduler.reserved == 0
        assert not system.scheduler.log.of_type(AllocationCommitted)


@pytest.mark.integration
class TestDaemonCrashRecovery:
    """The §crash-safety experiment: kill the daemon mid-pause, recover."""

    def test_daemon_crash_experiment_recovers_exactly(self):
        from repro.experiments.failure import daemon_crash_experiment

        outcome = daemon_crash_experiment()
        assert outcome.state_identical     # serialize_state equal across crash
        assert outcome.reattached          # re-register acked as a reattach
        assert outcome.adopted             # re-issued request adopted, not queued
        assert outcome.resumed             # withheld grant delivered post-recovery
        assert outcome.journaled_events > 0
