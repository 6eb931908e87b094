"""The CUDA wrapper API module — ``libgpushare.so`` (§III-C).

One instance exists per (container, process); the engine's preload provider
constructs it when a container is started with ``LD_PRELOAD`` pointing at
the wrapper.  It exports *exactly* the Table II symbols, so every other
CUDA API resolves straight to the native runtime — "we did not implement
entire copies of CUDA API because wrapper module only overrides the
function symbol name of some CUDA APIs and it leaves other CUDA API
available".

Interception pattern for allocation APIs (§III-C):

1. compute the adjusted size (pitch / 128 MiB rounding);
2. ``IpcCall(alloc_request)`` — the scheduler may grant, reject, or simply
   not answer yet (pause; the program blocks inside the CUDA call);
3. on grant, call the *original* CUDA API;
4. on native success, ``IpcCall(alloc_commit)`` with the real address;
   on native failure, ``IpcCall(alloc_abort)`` to roll the grant back;
5. return the original API's result to the user program.

``cudaFree`` frees natively first, then notifies.  ``cudaMemGetInfo`` is
answered *from the scheduler* without touching the device — which is why
Fig. 4 shows it *faster* under ConVGPU.  ``__cudaUnregisterFatBinary``
forwards, then reports process exit when the last fat binary is gone.
"""

from __future__ import annotations

from typing import Any

from repro.core.wrapper.adjust import SizeAdjuster
from repro.cuda.effects import HostCompute, IpcCall
from repro.cuda.errors import cudaError
from repro.cuda.fatbinary import FatBinaryHandle
from repro.cuda.runtime import ApiGen, CudaRuntime
from repro.cuda.types import cudaExtent, cudaPitchedPtr
from repro.container.linker import SharedLibrary
from repro.ipc import protocol
from repro.ipc.retry import RetryPolicy
from repro.obs.metrics import REGISTRY

__all__ = ["WrapperModule", "INTERCEPTED_SYMBOLS", "WRAPPER_RETRY_POLICY"]

_WRAPPER_RETRIES = REGISTRY.counter(
    "convgpu_wrapper_ipc_retries_total",
    "Wrapper-level IPC exchanges re-asked after a transient scheduler error",
)

#: Deterministic (jitter-free) backoff for the wrapper's IPC retry loop —
#: simulations replay identically; live mode layers the jittered transport
#: retry of :class:`repro.ipc.retry.ResilientClient` underneath this.
WRAPPER_RETRY_POLICY = RetryPolicy(
    max_attempts=4, base_delay=0.05, multiplier=2.0, max_delay=1.0, jitter=0.0
)

#: Table II of the paper: the symbols libgpushare.so overrides.
INTERCEPTED_SYMBOLS = (
    "cudaMalloc",
    "cudaMallocManaged",
    "cudaMallocPitch",
    "cudaMalloc3D",
    "cudaFree",
    "cudaMemGetInfo",
    "cudaGetDeviceProperties",
    "__cudaUnregisterFatBinary",
)


class WrapperModule:
    """Per-process interposition state + the intercepted entry points."""

    def __init__(
        self,
        native: CudaRuntime,
        container_id: str,
        native_driver=None,
        retry_policy: RetryPolicy = WRAPPER_RETRY_POLICY,
    ) -> None:
        self.native = native
        self.container_id = container_id
        self.pid = native.pid
        self.adjuster = SizeAdjuster()
        self.retry_policy = retry_policy
        #: Transient IPC failures retried (observability / test oracle).
        self.ipc_retries = 0
        #: Cached device properties (the wrapper queries once, §III-C).
        self._cached_properties = None
        #: Driver-API hooks (§III-C: "can cover both CUDA Driver API and
        #: Runtime API"); None when the process has no driver handle.
        self.driver_hooks = None
        if native_driver is not None:
            from repro.core.wrapper.driver_hooks import DriverHooks

            self.driver_hooks = DriverHooks(native_driver, container_id)

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def _ipc(self, msg_type: str, **payload: Any) -> IpcCall:
        return IpcCall(
            message=protocol.make_request(
                msg_type, container_id=self.container_id, pid=self.pid, **payload
            ),
            # Bookkeeping messages are one-way; only size checks and queries
            # block on the scheduler (see protocol.NOTIFICATION_TYPES).
            await_reply=msg_type not in protocol.NOTIFICATION_TYPES,
        )

    def _ipc_retry(self, msg_type: str, **payload: Any) -> ApiGen:
        """One IPC exchange with bounded retry on *transient* failures.

        The interpreter marks replies from a dead or wedged scheduler with
        ``transient: True`` (typed :class:`~repro.errors.IpcDisconnected` /
        :class:`~repro.errors.IpcTimeoutError` underneath); those are worth
        re-asking — the daemon may be restarting from its journal.  The
        backoff between attempts is yielded as :class:`HostCompute` so
        simulated time accounts for the wait exactly like any host-side
        work.  Protocol errors and rejections pass through untouched.
        """
        attempt = 0
        while True:
            reply = yield self._ipc(msg_type, **payload)
            transient = (
                isinstance(reply, dict)
                and reply.get("status") == "error"
                and reply.get("transient")
            )
            if not transient or attempt >= self.retry_policy.max_attempts - 1:
                return reply
            self.ipc_retries += 1
            _WRAPPER_RETRIES.inc()
            delay = self.retry_policy.delay(attempt)
            if delay > 0:
                yield HostCompute(delay)
            attempt += 1

    def _ensure_properties(self) -> ApiGen:
        """Fetch device properties once to learn pitch/managed granularity."""
        if self._cached_properties is None:
            err, props = yield from self.native.cudaGetDeviceProperties()
            if err is not cudaError.cudaSuccess:
                return err, None
            self._cached_properties = props
            self.adjuster.learn(
                pitch_granularity=props.pitchGranularity,
                managed_granularity=self.native.device.properties.managed_granularity,
            )
        return cudaError.cudaSuccess, self._cached_properties

    def _checked_alloc(self, adjusted_size: int, api: str, native_call) -> ApiGen:
        """The grant → allocate → commit/abort protocol around one native call."""
        reply = yield from self._ipc_retry(
            protocol.MSG_ALLOC_REQUEST, size=adjusted_size, api=api
        )
        if reply.get("status") != "ok" or reply.get("decision") != "grant":
            # Rejected (over the container limit) — the program sees the
            # same error an exhausted device would produce.
            return cudaError.cudaErrorMemoryAllocation, None
        err, value = yield from native_call()
        if err is not cudaError.cudaSuccess:
            yield from self._ipc_retry(protocol.MSG_ALLOC_ABORT, size=adjusted_size)
            return err, None
        address = value[0] if isinstance(value, tuple) else (
            value.ptr if isinstance(value, cudaPitchedPtr) else value
        )
        yield from self._ipc_retry(
            protocol.MSG_ALLOC_COMMIT, address=address, size=adjusted_size
        )
        return cudaError.cudaSuccess, value

    # ------------------------------------------------------------------
    # intercepted allocation APIs
    # ------------------------------------------------------------------

    def cudaMalloc(self, size: int) -> ApiGen:  # noqa: N802 - CUDA name
        if size <= 0:
            return cudaError.cudaErrorInvalidValue, None
        adjusted = self.adjuster.malloc(size)
        return (
            yield from self._checked_alloc(
                adjusted, "cudaMalloc", lambda: self.native.cudaMalloc(size)
            )
        )

    def cudaMallocManaged(self, size: int) -> ApiGen:  # noqa: N802
        if size <= 0:
            return cudaError.cudaErrorInvalidValue, None
        err, _ = yield from self._ensure_properties()
        if err is not cudaError.cudaSuccess:
            return err, None
        adjusted = self.adjuster.malloc_managed(size)
        return (
            yield from self._checked_alloc(
                adjusted,
                "cudaMallocManaged",
                lambda: self.native.cudaMallocManaged(size),
            )
        )

    def cudaMallocPitch(self, width: int, height: int) -> ApiGen:  # noqa: N802
        if width <= 0 or height <= 0:
            return cudaError.cudaErrorInvalidValue, None
        # First call pays the cudaGetDeviceProperties round-trip — the ~2x
        # first-call bar in Fig. 4.
        err, _ = yield from self._ensure_properties()
        if err is not cudaError.cudaSuccess:
            return err, None
        adjusted, _pitch = self.adjuster.malloc_pitch(width, height)
        return (
            yield from self._checked_alloc(
                adjusted,
                "cudaMallocPitch",
                lambda: self.native.cudaMallocPitch(width, height),
            )
        )

    def cudaMalloc3D(self, extent: cudaExtent) -> ApiGen:  # noqa: N802
        if extent.width <= 0 or extent.height <= 0 or extent.depth <= 0:
            return cudaError.cudaErrorInvalidValue, None
        err, _ = yield from self._ensure_properties()
        if err is not cudaError.cudaSuccess:
            return err, None
        adjusted, _pitch = self.adjuster.malloc_3d(extent)
        return (
            yield from self._checked_alloc(
                adjusted,
                "cudaMalloc3D",
                lambda: self.native.cudaMalloc3D(extent),
            )
        )

    # ------------------------------------------------------------------
    # intercepted deallocation / query APIs
    # ------------------------------------------------------------------

    def cudaFree(self, dev_ptr: int) -> ApiGen:  # noqa: N802
        """Free natively, then tell the scheduler the address (§III-C)."""
        err, value = yield from self.native.cudaFree(dev_ptr)
        if err is cudaError.cudaSuccess and dev_ptr != 0:
            yield from self._ipc_retry(protocol.MSG_ALLOC_RELEASE, address=dev_ptr)
        return err, value

    def cudaMemGetInfo(self) -> ApiGen:  # noqa: N802
        """Answer from scheduler bookkeeping — no device round-trip (§IV-B)."""
        reply = yield from self._ipc_retry(protocol.MSG_MEM_GET_INFO)
        if reply.get("status") != "ok":
            # Scheduler unavailable: degrade to the native (device-wide) view.
            return (yield from self.native.cudaMemGetInfo())
        return cudaError.cudaSuccess, (reply["free"], reply["total"])

    def cudaGetDeviceProperties(self, ordinal: int = 0) -> ApiGen:  # noqa: N802
        """Forward, caching the result the adjuster needs."""
        if ordinal == self.native.device.ordinal and self._cached_properties is not None:
            return cudaError.cudaSuccess, self._cached_properties
        err, props = yield from self.native.cudaGetDeviceProperties(ordinal)
        if err is cudaError.cudaSuccess and ordinal == self.native.device.ordinal:
            self._cached_properties = props
            self.adjuster.learn(
                pitch_granularity=props.pitchGranularity,
                managed_granularity=self.native.device.properties.managed_granularity,
            )
        return err, props

    # ------------------------------------------------------------------
    # intercepted implicit API
    # ------------------------------------------------------------------

    def cudaUnregisterFatBinary(self, handle: FatBinaryHandle) -> ApiGen:  # noqa: N802
        """``__cudaUnregisterFatBinary``: forward, then report process exit."""
        err, last = yield from self.native.cudaUnregisterFatBinary(handle)
        if err is cudaError.cudaSuccess and last:
            # The last chance to report: a lost process_exit would pin the
            # pid's allocations (and 66 MiB context charge) forever.
            yield from self._ipc_retry(protocol.MSG_PROCESS_EXIT)
        return err, last

    # ------------------------------------------------------------------

    def as_shared_library(self) -> SharedLibrary:
        """Package the interceptions as ``libgpushare.so`` for LD_PRELOAD."""
        exports = {
            "cudaMalloc": self.cudaMalloc,
            "cudaMallocManaged": self.cudaMallocManaged,
            "cudaMallocPitch": self.cudaMallocPitch,
            "cudaMalloc3D": self.cudaMalloc3D,
            "cudaFree": self.cudaFree,
            "cudaMemGetInfo": self.cudaMemGetInfo,
            "cudaGetDeviceProperties": self.cudaGetDeviceProperties,
            "__cudaUnregisterFatBinary": self.cudaUnregisterFatBinary,
        }
        assert set(exports) == set(INTERCEPTED_SYMBOLS)
        if self.driver_hooks is not None:
            exports.update(self.driver_hooks.exports())
        return SharedLibrary("libgpushare.so", exports)
