"""One ConVGPU stack drives one GPU through one scheduler (DESIGN.md §17).

The facade takes no device count or placement; the registration reply
names no device, so nvidia-docker attaches the host's device nodes as
given; ``cudaGetDeviceCount`` reports the one device; and tenants whose
limits do not fit the card together run one after the other.
"""

import pytest

from repro.container.image import make_cuda_image
from repro.core.middleware import ConVGPU
from repro.cuda.errors import cudaError
from repro.ipc import protocol
from repro.sim.engine import Environment
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


def big(api):
    """Nearly 4 GiB for a 10 s kernel: two of these overfill a 5 GiB K20m."""
    err, ptr = yield from api.cudaMalloc(4 * GiB - 100 * MiB)
    assert err is cudaError.cudaSuccess
    err, _ = yield from api.cudaLaunchKernel(10.0)
    yield from api.cudaFree(ptr)
    return 0


class TestConstruction:
    def test_one_device_backs_the_scheduler(self):
        system = ConVGPU()
        assert system.scheduler.total_memory == system.device.properties.total_global_mem
        assert system.contexts.device is system.device

    @pytest.mark.parametrize("option", ({"device_count": 2}, {"placement": "most-free"}))
    def test_multi_device_options_are_gone(self, option):
        with pytest.raises(TypeError):
            ConVGPU(**option)

    def test_registration_reply_names_no_device(self):
        system = ConVGPU()
        reply = system.control_call(
            protocol.MSG_REGISTER_CONTAINER, container_id="c", limit=GiB
        )
        assert reply["status"] == "ok"
        assert (reply["assigned"], reply["limit"]) == (GiB, GiB)
        assert "device" not in reply


class TestThroughNvidiaDocker:
    def test_the_hosts_device_nodes_are_attached_as_given(self):
        _, system, _ = build()
        first = system.nvdocker.run("app", name="a", nvidia_memory=2 * GiB)
        second = system.nvdocker.run("app", name="b", nvidia_memory=2 * GiB)
        assert first.config.devices == system.nvdocker.gpu_devices
        assert second.config.devices == system.nvdocker.gpu_devices

    def test_cuda_get_device_count_reports_one(self):
        env, system, runner = build()
        seen = {}

        def program(api):
            err, count = yield from api.cudaGetDeviceCount()
            seen["count"] = count
            return 0

        _, proc = launch(env, system, runner, name="c", command=program,
                         nvidia_memory=GiB)
        env.run()
        assert proc.value == 0
        assert seen["count"] == 1

    def test_tenants_that_overfill_the_card_serialize(self):
        env, system, runner = build()
        _, p1 = launch(env, system, runner, name="x1", command=big,
                       nvidia_memory=4 * GiB)
        _, p2 = launch(env, system, runner, name="x2", command=big,
                       nvidia_memory=4 * GiB)
        env.run()
        assert p1.value == 0 and p2.value == 0
        assert env.now > 18.0  # the second waits out the first's 10 s kernel
        assert system.device.hyperq.submitted == 2

    def test_each_tenant_sees_its_own_slice(self):
        env, system, runner = build()
        views = {}

        def hog(api):
            yield from api.cudaMalloc(GiB)
            yield from api.cudaLaunchKernel(5.0)
            return 0

        def observer(api):
            err, (free, total) = yield from api.cudaMemGetInfo()
            views["free"], views["total"] = free, total
            return 0

        launch(env, system, runner, name="hog", command=hog, nvidia_memory=2 * GiB)
        launch(env, system, runner, name="obs", command=observer, nvidia_memory=2 * GiB)
        env.run()
        assert views["total"] == 2 * GiB
        assert views["free"] <= 2 * GiB

    def test_exit_returns_everything_to_the_device(self):
        env, system, runner = build()

        def leaky(api):
            err, ptr = yield from api.cudaMalloc(GiB)
            assert err is cudaError.cudaSuccess
            return 0  # never frees

        _, proc = launch(env, system, runner, name="q", command=leaky,
                         nvidia_memory=2 * GiB)
        env.run()
        assert proc.value == 0
        assert system.scheduler.reserved == 0
        assert system.device.allocator.used == 0
        system.scheduler.check_invariants()
