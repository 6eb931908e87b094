"""The native CUDA Runtime API (the thing the wrapper module wraps).

Each public method reproduces one API from Table II of the paper plus the
execution APIs (memcpy, kernel launch, synchronize) that workloads need.
Methods are generators yielding :mod:`repro.cuda.effects` and returning
``(cudaError, value)`` tuples, mirroring the C calling convention of
``cudaError_t`` + out-parameters.

Semantics reproduced from the paper and CUDA 8.0 behaviour:

- first *allocation* of a process materializes its context, consuming
  64 MiB + 2 MiB of device memory (§III-D);
- ``cudaMallocPitch`` widens rows to the device pitch granularity, and the
  pitch "varies among the GPU model" — it is a device property (§III-C);
- ``cudaMalloc3D`` does the same for the 3-D extent;
- ``cudaMallocManaged`` reserves device space in 128 MiB multiples
  (§III-C: "allocates memory size which is multiple of 128MiB since it
  uses mapped memory") and is ~40x slower than ``cudaMalloc`` (Fig. 4);
- ``cudaFree(0)`` succeeds as a no-op; freeing a bad pointer returns
  ``cudaErrorInvalidDevicePointer``;
- allocation failure is in-band: ``cudaErrorMemoryAllocation``, never an
  exception (GPU memory cannot be swapped, §I).
"""

from __future__ import annotations

from typing import Any, Generator

from repro.cuda.context import ContextTable
from repro.cuda.effects import DeviceOp, Effect, HostCompute, KernelLaunch, Synchronize
from repro.cuda.errors import cudaError
from repro.cuda.fatbinary import FatBinaryHandle, FatBinaryRegistry
from repro.cuda.runtime_async import AsyncRuntimeMixin, HostPinnedRegistry
from repro.cuda.streams import StreamTable
from repro.cuda.types import cudaDeviceProp, cudaExtent, cudaPitchedPtr
from repro.errors import OutOfMemoryError
from repro.gpu.device import GpuDevice

__all__ = ["CudaRuntime", "ApiGen", "align_up"]

#: Type alias for the generator every API method returns.
ApiGen = Generator[Effect, Any, tuple[cudaError, Any]]


def align_up(value: int, alignment: int) -> int:
    """Round ``value`` up to the next multiple of power-of-two ``alignment``."""
    return (value + alignment - 1) & ~(alignment - 1)


class CudaRuntime(AsyncRuntimeMixin):
    """Runtime API state for one process (pid) on one device.

    The instance is what the simulated dynamic linker binds CUDA symbols to
    when no ``LD_PRELOAD`` interposition is active.  The ConVGPU wrapper
    module holds a reference to an instance of this class and forwards to it
    after consulting the scheduler — "wrapper module allocates memory using
    original CUDA API, only if the requested size of the memory is
    available" (§III-C).
    """

    #: snake_case -> public symbol, used by interception/bench tables.
    SYMBOLS = (
        "cudaMalloc",
        "cudaMallocManaged",
        "cudaMallocPitch",
        "cudaMalloc3D",
        "cudaMallocArray",
        "cudaFree",
        "cudaMemGetInfo",
        "cudaGetDeviceProperties",
        "cudaMemcpy",
        "cudaLaunchKernel",
        "cudaDeviceSynchronize",
        "__cudaRegisterFatBinary",
        "__cudaUnregisterFatBinary",
    ) + AsyncRuntimeMixin.ASYNC_SYMBOLS

    def __init__(
        self,
        device: GpuDevice,
        pid: int,
        contexts: ContextTable,
        fatbins: FatBinaryRegistry | None = None,
    ) -> None:
        if contexts.device is not device:
            raise ValueError("context table belongs to a different device")
        self.device = device
        self.pid = pid
        self.contexts = contexts
        self.fatbins = fatbins if fatbins is not None else FatBinaryRegistry()
        self._costs = device.latency.api_costs
        #: Per-process stream/event state (see repro.cuda.streams).
        self.streams = StreamTable()
        #: Pinned host allocations (cudaMallocHost) — host-side only.
        self.host_pinned = HostPinnedRegistry()
        #: How many devices cudaGetDeviceCount reports: the one the runtime
        #: is bound to.
        self.device_count = 1

    # ------------------------------------------------------------------
    # internal helpers
    # ------------------------------------------------------------------

    def _ensure_context(self) -> ApiGen:
        """Materialize this pid's context if needed (yields its cost)."""
        if not self.contexts.has_context(self.pid):
            try:
                self.contexts.ensure(self.pid)
            except OutOfMemoryError:
                return cudaError.cudaErrorInitializationError, None
            yield DeviceOp(self._costs.context_create, api="contextCreate")
        return cudaError.cudaSuccess, None

    def _record_user_alloc(self, address: int) -> None:
        context = self.contexts.get(self.pid)
        assert context is not None, "allocation without a context"
        context.user_addresses.add(address)

    def _alloc_bytes(self, nbytes: int) -> tuple[cudaError, int | None]:
        """Allocate raw device bytes under this pid's context."""
        try:
            allocation = self.device.allocate(nbytes)
        except OutOfMemoryError:
            return cudaError.cudaErrorMemoryAllocation, None
        self._record_user_alloc(allocation.address)
        return cudaError.cudaSuccess, allocation.address

    # ------------------------------------------------------------------
    # allocation APIs (Table II)
    # ------------------------------------------------------------------

    def cudaMalloc(self, size: int) -> ApiGen:  # noqa: N802 - CUDA name
        """General-purpose device allocation. Returns (err, devPtr)."""
        if size <= 0:
            return cudaError.cudaErrorInvalidValue, None
        err, _ = yield from self._ensure_context()
        if err is not cudaError.cudaSuccess:
            return err, None
        yield DeviceOp(self._costs.cuda_malloc, api="cudaMalloc")
        return self._alloc_bytes(size)

    def cudaMallocManaged(self, size: int) -> ApiGen:  # noqa: N802
        """Unified-memory allocation; reserves 128 MiB multiples on device."""
        if size <= 0:
            return cudaError.cudaErrorInvalidValue, None
        err, _ = yield from self._ensure_context()
        if err is not cudaError.cudaSuccess:
            return err, None
        yield DeviceOp(self._costs.cuda_malloc_managed, api="cudaMallocManaged")
        reserved = align_up(size, self.device.properties.managed_granularity)
        return self._alloc_bytes(reserved)

    def cudaMallocPitch(self, width: int, height: int) -> ApiGen:  # noqa: N802
        """Pitched 2-D allocation. Returns (err, (devPtr, pitch))."""
        if width <= 0 or height <= 0:
            return cudaError.cudaErrorInvalidValue, None
        err, _ = yield from self._ensure_context()
        if err is not cudaError.cudaSuccess:
            return err, None
        yield DeviceOp(self._costs.cuda_malloc_pitch, api="cudaMallocPitch")
        pitch = align_up(width, self.device.properties.pitch_granularity)
        err, address = self._alloc_bytes(pitch * height)
        if err is not cudaError.cudaSuccess:
            return err, None
        return cudaError.cudaSuccess, (address, pitch)

    def cudaMalloc3D(self, extent: cudaExtent) -> ApiGen:  # noqa: N802
        """Pitched 3-D allocation. Returns (err, cudaPitchedPtr)."""
        if extent.width <= 0 or extent.height <= 0 or extent.depth <= 0:
            return cudaError.cudaErrorInvalidValue, None
        err, _ = yield from self._ensure_context()
        if err is not cudaError.cudaSuccess:
            return err, None
        yield DeviceOp(self._costs.cuda_malloc_3d, api="cudaMalloc3D")
        pitch = align_up(extent.width, self.device.properties.pitch_granularity)
        err, address = self._alloc_bytes(pitch * extent.height * extent.depth)
        if err is not cudaError.cudaSuccess:
            return err, None
        result = cudaPitchedPtr(
            ptr=address, pitch=pitch, xsize=extent.width, ysize=extent.height
        )
        return cudaError.cudaSuccess, result

    def cudaMallocArray(self, width: int, height: int, element_size: int = 4) -> ApiGen:  # noqa: N802
        """Texture-array allocation.

        Deliberately present but *not* on the wrapper's interception list:
        "Some allocation APIs which is used as a texture memory like
        cudaMallocArray are not captured, since they are not used in GPGPU"
        (§III-C).  The test suite uses it to show unmanaged allocations
        escaping the scheduler's accounting.
        """
        if width <= 0 or height < 0 or element_size <= 0:
            return cudaError.cudaErrorInvalidValue, None
        err, _ = yield from self._ensure_context()
        if err is not cudaError.cudaSuccess:
            return err, None
        yield DeviceOp(self._costs.cuda_malloc, api="cudaMallocArray")
        return self._alloc_bytes(width * max(height, 1) * element_size)

    # ------------------------------------------------------------------
    # deallocation / query APIs (Table II)
    # ------------------------------------------------------------------

    def cudaFree(self, dev_ptr: int) -> ApiGen:  # noqa: N802
        """Free a device allocation. ``cudaFree(0)`` is a successful no-op."""
        if dev_ptr == 0:
            return cudaError.cudaSuccess, None
        yield DeviceOp(self._costs.cuda_free, api="cudaFree")
        context = self.contexts.get(self.pid)
        if context is None or dev_ptr not in context.user_addresses:
            return cudaError.cudaErrorInvalidDevicePointer, None
        context.user_addresses.discard(dev_ptr)
        self.device.release(dev_ptr)
        return cudaError.cudaSuccess, None

    def cudaMemGetInfo(self) -> ApiGen:  # noqa: N802
        """Device-wide (free, total) memory, straight from the hardware."""
        yield DeviceOp(self._costs.cuda_mem_get_info, api="cudaMemGetInfo")
        info = self.device.mem_info()
        return cudaError.cudaSuccess, (info.free, info.total)

    def cudaGetDeviceProperties(self, ordinal: int = 0) -> ApiGen:  # noqa: N802
        """Device properties; the wrapper calls this once for the pitch."""
        if ordinal != self.device.ordinal:
            return cudaError.cudaErrorInvalidDevice, None
        yield DeviceOp(self._costs.cuda_get_device_properties, api="cudaGetDeviceProperties")
        return cudaError.cudaSuccess, cudaDeviceProp.from_properties(self.device.properties)

    # ------------------------------------------------------------------
    # execution APIs (not intercepted; used by workloads)
    # ------------------------------------------------------------------

    def cudaMemcpy(self, nbytes: int, kind: str) -> ApiGen:  # noqa: N802
        """Blocking copy; ``kind`` in {"h2d", "d2h", "d2d"}."""
        if nbytes < 0:
            return cudaError.cudaErrorInvalidValue, None
        durations = {
            "h2d": self.device.latency.h2d_time,
            "d2h": self.device.latency.d2h_time,
            "d2d": self.device.latency.d2d_time,
        }
        if kind not in durations:
            return cudaError.cudaErrorInvalidValue, None
        # cudaMemcpy is synchronizing with respect to prior kernels.
        yield Synchronize()
        yield DeviceOp(durations[kind](nbytes), api="cudaMemcpy")
        return cudaError.cudaSuccess, None

    def cudaLaunchKernel(self, duration: float, *, blocking: bool = True, name: str = "kernel") -> ApiGen:  # noqa: N802
        """Launch a kernel of pre-computed duration through Hyper-Q."""
        if duration < 0:
            return cudaError.cudaErrorInvalidValue, None
        err, _ = yield from self._ensure_context()
        if err is not cudaError.cudaSuccess:
            return err, None
        yield DeviceOp(self._costs.kernel_launch, api="cudaLaunchKernel")
        yield KernelLaunch(duration, blocking=blocking, name=name)
        return cudaError.cudaSuccess, None

    def cudaDeviceSynchronize(self) -> ApiGen:  # noqa: N802
        """Block until all of this process's kernels have completed."""
        yield Synchronize()
        return cudaError.cudaSuccess, None

    def hostCompute(self, duration: float) -> ApiGen:  # noqa: N802
        """CPU-side work (not a CUDA API; convenience for workloads)."""
        if duration < 0:
            return cudaError.cudaErrorInvalidValue, None
        yield HostCompute(duration)
        return cudaError.cudaSuccess, None

    # ------------------------------------------------------------------
    # implicit APIs (Table II)
    # ------------------------------------------------------------------

    # NOTE: the real symbols are ``__cudaRegisterFatBinary`` /
    # ``__cudaUnregisterFatBinary``; Python name-mangles leading-dunder
    # method names inside class bodies, so the methods drop the prefix and
    # :meth:`resolve` maps the true symbol names onto them.

    def cudaRegisterFatBinary(self) -> ApiGen:  # noqa: N802
        """``__cudaRegisterFatBinary``: called by CRT startup before main()."""
        yield DeviceOp(self._costs.fatbin_register, api="__cudaRegisterFatBinary")
        return cudaError.cudaSuccess, self.fatbins.register(self.pid)

    def cudaUnregisterFatBinary(self, handle: FatBinaryHandle) -> ApiGen:  # noqa: N802
        """Called at process exit; tears down the context on last handle.

        Returns (err, pid_finished: bool).  The driver reclaims every
        allocation the process still holds — this is the backstop for
        programs that leak GPU memory (§III-D).
        """
        yield DeviceOp(self._costs.fatbin_unregister, api="__cudaUnregisterFatBinary")
        try:
            last = self.fatbins.unregister(handle)
        except KeyError:
            return cudaError.cudaErrorInvalidValue, None
        if last:
            self.contexts.destroy(self.pid)
        return cudaError.cudaSuccess, last

    # ------------------------------------------------------------------

    def resolve(self, symbol: str):
        """Look a public API symbol up by name (dynamic-linker hook)."""
        if symbol not in self.SYMBOLS:
            raise KeyError(f"runtime does not export {symbol!r}")
        # The implicit CRT symbols carry a ``__cuda`` prefix on the wire but
        # map to unmangled method names here (see note above).
        attr = symbol.lstrip("_")
        return getattr(self, attr)
