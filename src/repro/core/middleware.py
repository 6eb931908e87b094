"""The ConVGPU middleware facade: one object wiring the whole stack.

Composition (Fig. 1/2 of the paper):

- a simulated **GPU device** (Tesla K20m by default) with its context table
  and fat-binary registry;
- the **GPU memory scheduler** with a selectable policy;
- a **Docker engine** with the **nvidia-docker-plugin** registered (driver
  volume + dummy exit-detection volume);
- the **customized nvidia-docker** CLI wrapper;
- per-process **CUDA runtime / driver libraries** installed as library
  providers, and the **wrapper module** published for ``LD_PRELOAD``.

``managed=False`` produces the paper's baseline: stock nvidia-docker, GPU
passthrough, no scheduler, no interception — the configuration under which
concurrent containers can fail or deadlock (§I).
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.container.container import Container
from repro.container.engine import DockerEngine
from repro.container.linker import SharedLibrary
from repro.core.scheduler.core import GpuMemoryScheduler
from repro.core.scheduler.policies import SchedulingPolicy, make_policy
from repro.core.scheduler.service import SchedulerService
from repro.core.wrapper.module import WrapperModule
from repro.cuda.context import ContextTable
from repro.cuda.driver import CudaDriver
from repro.cuda.fatbinary import FatBinaryRegistry
from repro.cuda.runtime import CudaRuntime
from repro.gpu.device import GpuDevice
from repro.gpu.properties import DeviceProperties
from repro.ipc import protocol
from repro.ipc.channel import InProcessChannel
from repro.nvdocker.cli import NvidiaDocker
from repro.nvdocker.plugin import NvidiaDockerPlugin
from repro.obs.trace import Tracer

__all__ = ["ConVGPU"]


class ConVGPU:
    """The assembled middleware (in-process transport).

    Args:
        policy: a :class:`SchedulingPolicy` or a name from the registry
            ("FIFO", "BF", "RU", "Rand", ...).
        properties: device model (defaults to the paper's Tesla K20m).
        clock: injected time source (DES clock or wall clock).
        managed: False = stock nvidia-docker baseline (no ConVGPU).
        rng: random generator for the "Rand" policy.
        context_overhead / resume_mode: forwarded to the scheduler core
            (ablation knobs).
        tracer: span recorder shared by every wrapper module and the
            scheduler service, so one CUDA call appears as a single
            wrapper→scheduler trace (``None`` = tracing off).
    """

    def __init__(
        self,
        policy: SchedulingPolicy | str = "BF",
        *,
        properties: DeviceProperties | None = None,
        clock: Callable[[], float] | None = None,
        managed: bool = True,
        live: bool = False,
        rng: np.random.Generator | None = None,
        context_overhead: int | None = None,
        resume_mode: str = "fit",
        device_count: int = 1,
        placement: str = "most-free",
        tracer: "Tracer | None" = None,
    ) -> None:
        if live and clock is None:
            import time

            clock = time.monotonic
        if device_count < 1:
            raise ValueError(f"device_count must be >= 1, got {device_count}")
        if device_count > 1 and not managed:
            raise ValueError(
                "multi-device hosts require managed=True (placement happens "
                "at the scheduler's registration step)"
            )
        self.clock = clock if clock is not None else (lambda: 0.0)
        self.managed = managed
        self.live = live
        self.tracer = tracer

        # --- GPU + CUDA substrate ---------------------------------------
        from repro.gpu.device import DeviceRegistry

        self.devices = DeviceRegistry(
            [GpuDevice(i, properties) for i in range(device_count)]
        )
        #: Device 0, kept as the single-device shorthand (most callers).
        self.device = self.devices.get(0)
        self.contexts_by_device = [ContextTable(d) for d in self.devices]
        self.contexts = self.contexts_by_device[0]
        self.fatbins = FatBinaryRegistry()

        # --- scheduler core ----------------------------------------------
        if isinstance(policy, str):
            policy = make_policy(policy, rng)
        self.policy = policy
        scheduler_kwargs: dict[str, Any] = {"clock": self.clock, "resume_mode": resume_mode}
        if context_overhead is not None:
            scheduler_kwargs["context_overhead"] = context_overhead
        if device_count > 1:
            from repro.cluster.multigpu import MultiGpuScheduler

            self.scheduler = MultiGpuScheduler(
                self.devices, policy, placement=placement, **scheduler_kwargs
            )
        else:
            self.scheduler = GpuMemoryScheduler(
                self.device.properties.total_global_mem, policy, **scheduler_kwargs
            )
        self.service = SchedulerService(self.scheduler, tracer=tracer)
        self.channel = InProcessChannel(self.service.handle)

        # --- live mode: real daemon + real control socket -----------------
        self.daemon = None
        self._control_client = None
        if live and managed:
            from repro.core.scheduler.daemon import SchedulerDaemon
            from repro.ipc.unix_socket import UnixSocketClient

            self.daemon = SchedulerDaemon(self.scheduler).start()
            self._control_client = UnixSocketClient(self.daemon.control_path)

        # --- container stack -----------------------------------------------
        self.engine = DockerEngine(clock=self.clock)
        control = self.control_call if managed else None
        self.plugin = NvidiaDockerPlugin(control_call=control)
        self.engine.volumes.register_plugin(self.plugin)
        self.nvdocker = NvidiaDocker(self.engine, self.plugin, control_call=control)

        # --- library wiring -------------------------------------------------
        self._runtimes: dict[tuple[str, int], CudaRuntime] = {}
        self._drivers: dict[tuple[str, int], CudaDriver] = {}
        self._wrappers: dict[tuple[str, int], WrapperModule] = {}
        self.engine.install_library("libcudart.so", self._cudart_provider)
        self.engine.install_library("libcuda.so", self._driver_provider)
        if managed:
            self.engine.publish_preload("libgpushare.so", self._wrapper_provider)

    # ------------------------------------------------------------------
    # control plane (nvidia-docker / plugin -> scheduler)
    # ------------------------------------------------------------------

    def control_call(self, msg_type: str, **payload: Any) -> dict[str, Any]:
        """Reach the scheduler's control plane.

        Live mode goes over the daemon's real control socket; otherwise the
        in-process channel stands in, mimicking the daemon's behaviour of
        answering registrations with the per-container directory path
        (virtual here; the live daemon creates a real one).
        """
        if self._control_client is not None:
            return self._control_client.call(msg_type, **payload)
        reply = self.channel.call_sync(msg_type, **payload)
        if (
            msg_type == protocol.MSG_REGISTER_CONTAINER
            and reply.get("status") == "ok"
        ):
            reply = {**reply, "socket_dir": f"/var/convgpu/{payload['container_id']}"}
        return reply

    def container_socket_path(self, scheduler_key: str) -> str:
        """Live mode: the real per-container socket path."""
        if self.daemon is None:
            raise RuntimeError("container_socket_path requires live=True")
        return self.daemon.container_socket_path(scheduler_key)

    def close(self) -> None:
        """Stop the live daemon and control client (no-op otherwise)."""
        if self._control_client is not None:
            self._control_client.close()
            self._control_client = None
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    def __enter__(self) -> "ConVGPU":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # per-process library providers
    # ------------------------------------------------------------------

    def device_of(self, scheduler_key: str) -> int:
        """The device ordinal a container was placed on (0 on 1-GPU hosts)."""
        if len(self.devices) == 1:
            return 0
        try:
            return self.scheduler.device_of(scheduler_key)
        except Exception:
            # Unregistered (non-CUDA container): anything it links sees
            # device 0, like a process on a host whose GPUs it cannot open.
            return 0

    def runtime_for(self, scheduler_key: str, host_pid: int) -> CudaRuntime:
        """The (memoized) native CUDA runtime of one process."""
        key = (scheduler_key, host_pid)
        runtime = self._runtimes.get(key)
        if runtime is None:
            ordinal = self.device_of(scheduler_key)
            runtime = CudaRuntime(
                self.devices.get(ordinal),
                host_pid,
                self.contexts_by_device[ordinal],
                self.fatbins,
            )
            runtime.device_count = len(self.devices)
            self._runtimes[key] = runtime
        return runtime

    def driver_for(self, scheduler_key: str, host_pid: int) -> CudaDriver:
        """The (memoized) native CUDA driver handle of one process."""
        key = (scheduler_key, host_pid)
        driver = self._drivers.get(key)
        if driver is None:
            ordinal = self.device_of(scheduler_key)
            driver = CudaDriver(
                self.devices.get(ordinal),
                host_pid,
                self.contexts_by_device[ordinal],
            )
            self._drivers[key] = driver
        return driver

    def wrapper_for(self, scheduler_key: str, host_pid: int) -> WrapperModule:
        """The (memoized) wrapper module of one process."""
        key = (scheduler_key, host_pid)
        wrapper = self._wrappers.get(key)
        if wrapper is None:
            wrapper = WrapperModule(
                self.runtime_for(scheduler_key, host_pid),
                container_id=scheduler_key,
                native_driver=self.driver_for(scheduler_key, host_pid),
                tracer=self.tracer,
            )
            self._wrappers[key] = wrapper
        return wrapper

    def _cudart_provider(self, container: Container, host_pid: int) -> SharedLibrary:
        runtime = self.runtime_for(container.name, host_pid)
        return SharedLibrary(
            "libcudart.so",
            {symbol: runtime.resolve(symbol) for symbol in CudaRuntime.SYMBOLS},
        )

    def _driver_provider(self, container: Container, host_pid: int) -> SharedLibrary:
        driver = self.driver_for(container.name, host_pid)
        return SharedLibrary(
            "libcuda.so",
            {symbol: driver.resolve(symbol) for symbol in CudaDriver.SYMBOLS},
        )

    def _wrapper_provider(self, container: Container, host_pid: int) -> SharedLibrary:
        wrapper = self.wrapper_for(container.name, host_pid)
        return wrapper.as_shared_library()

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------

    def creation_overhead(self) -> float:
        """Modelled extra creation latency ConVGPU adds (Fig. 5, ≈0.06 s).

        Components: the registration round-trip, directory + socket setup,
        and the wrapper-module copy the daemon performs per container.
        """
        if not self.managed:
            return 0.0
        return 0.0618

    def container_record(self, container: Container):
        """Scheduler record of a container started through nvidia-docker."""
        return self.scheduler.container(container.name)
