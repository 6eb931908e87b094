"""Tests for Driver-API interception (§III-C: "both Driver API and Runtime API")."""

import pytest

from repro.container.image import make_cuda_image
from repro.core.middleware import ConVGPU
from repro.core.scheduler.core import CONTEXT_OVERHEAD_CHARGE
from repro.core.wrapper.driver_hooks import INTERCEPTED_DRIVER_SYMBOLS
from repro.cuda.errors import CUresult
from repro.sim.engine import Environment
from repro.units import GiB, MiB
from repro.workloads.api import ProcessApi
from repro.workloads.runner import SimIpcBridge, SimProgramRunner


def run_driver_program(program, *, nvidia_memory="1g", managed=True):
    env = Environment()
    system = ConVGPU(policy="FIFO", managed=managed, clock=lambda: env.now)
    system.engine.images.add(make_cuda_image("drv"))
    container = system.nvdocker.run(
        "drv", name="c1", nvidia_memory=nvidia_memory, command=program
    )
    bridge = SimIpcBridge(env, system.service.handle) if managed else None
    runner = SimProgramRunner(env, system.device, bridge)
    proc = runner.run_program(
        ProcessApi(container.main_process),
        on_exit=lambda code: system.engine.notify_main_exit(
            container.container_id, code
        ),
    )
    env.run()
    return proc.value, system


class TestDriverSymbolInterception:
    def test_wrapper_exports_driver_symbols(self):
        system = ConVGPU()
        library = system.wrapper_for("c1", 100).as_shared_library()
        for symbol in INTERCEPTED_DRIVER_SYMBOLS:
            assert library.lookup(symbol) is not None

    def test_process_resolves_driver_symbols_to_wrapper(self):
        system = ConVGPU()
        system.engine.images.add(make_cuda_image("drv"))
        container = system.nvdocker.run("drv", name="c1")
        process = container.main_process
        assert process.linker.provider_of("cuMemAlloc") == "libgpushare.so"
        # Non-memory driver symbols stay native.
        assert process.linker.provider_of("cuInit") == "libcuda.so"


class TestDriverAllocationFlow:
    def test_cu_mem_alloc_is_accounted(self):
        def program(api):
            result, _ = yield from api.cuInit()
            assert result is CUresult.CUDA_SUCCESS
            result, _ = yield from api.cuCtxCreate()
            assert result is CUresult.CUDA_SUCCESS
            result, dptr = yield from api.cuMemAlloc(100 * MiB)
            assert result is CUresult.CUDA_SUCCESS
            program.dptr = dptr
            return 0

        code, system = run_driver_program(program)
        assert code == 0
        # Scheduler saw the driver-side allocation and cleaned it on exit:
        # the exited container leaves no record.
        assert system.scheduler.containers() == []
        assert system.scheduler.reserved == 0

    def test_driver_rejection_maps_to_oom(self):
        def program(api):
            yield from api.cuInit()
            yield from api.cuCtxCreate()
            result, dptr = yield from api.cuMemAlloc(2 * GiB)  # limit 1 GiB
            assert result is CUresult.CUDA_ERROR_OUT_OF_MEMORY
            assert dptr is None
            return 0

        code, system = run_driver_program(program)
        assert code == 0
        assert system.scheduler.log.of_type.__self__ is not None

    def test_cu_mem_free_releases(self):
        usage = {}

        def program(api):
            yield from api.cuInit()
            yield from api.cuCtxCreate()
            result, dptr = yield from api.cuMemAlloc(50 * MiB)
            result, (free, total) = yield from api.cuMemGetInfo()
            usage["during"] = total - free
            result, _ = yield from api.cuMemFree(dptr)
            assert result is CUresult.CUDA_SUCCESS
            result, (free, total) = yield from api.cuMemGetInfo()
            usage["after"] = total - free
            return 0

        code, _ = run_driver_program(program)
        assert code == 0
        assert usage["during"] == 50 * MiB + CONTEXT_OVERHEAD_CHARGE
        assert usage["after"] == CONTEXT_OVERHEAD_CHARGE

    def test_cu_mem_get_info_virtualized(self):
        views = {}

        def program(api):
            yield from api.cuInit()
            yield from api.cuCtxCreate()
            result, (free, total) = yield from api.cuMemGetInfo()
            views["total"] = total
            return 0

        code, _ = run_driver_program(program, nvidia_memory="512m")
        assert code == 0
        assert views["total"] == 512 * MiB  # the limit, not the 5 GiB device

    def test_unmanaged_driver_sees_raw_device(self):
        views = {}

        def program(api):
            yield from api.cuInit()
            yield from api.cuCtxCreate()
            result, (free, total) = yield from api.cuMemGetInfo()
            views["total"] = total
            return 0

        code, _ = run_driver_program(program, managed=False)
        assert code == 0
        assert views["total"] == 5 * GiB
