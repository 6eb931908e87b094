"""The simulated GPU device: properties + allocator + Hyper-Q + latency.

One :class:`GpuDevice` stands in for the Tesla K20m of the paper's testbed.
Everything above this layer (the CUDA substrate, the wrapper module, the
scheduler) observes the device only through the operations implemented here,
so swapping in a differently-sized device reconfigures the whole stack —
which the ablation benchmarks rely on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InvalidDeviceError
from repro.gpu.hyperq import HyperQEngine, KernelRecord
from repro.gpu.latency import LatencyModel
from repro.gpu.memory import Allocation, GpuMemoryAllocator
from repro.gpu.properties import TESLA_K20M, DeviceProperties
from repro.units import format_size

__all__ = ["GpuDevice", "MemInfo"]


@dataclass(frozen=True)
class MemInfo:
    """Result of a ``cudaMemGetInfo``-style query."""

    free: int
    total: int

    @property
    def used(self) -> int:
        return self.total - self.free


class GpuDevice:
    """A single simulated GPU."""

    def __init__(
        self,
        ordinal: int = 0,
        properties: DeviceProperties | None = None,
        *,
        paged: bool = True,
    ) -> None:
        if ordinal < 0:
            raise InvalidDeviceError(f"negative device ordinal: {ordinal}")
        self.ordinal = ordinal
        self.properties = properties or TESLA_K20M
        self.allocator = GpuMemoryAllocator(
            self.properties.total_global_mem,
            alignment=self.properties.allocation_alignment,
            # Distinct address ranges per device so cross-device frees fail
            # loudly; 16 TiB of virtual space per device leaves the paged
            # bump pointer room for any realistic run.
            base=0x7_0000_0000 + ordinal * 0x1000_0000_0000,
            paged=paged,
        )
        self.hyperq = HyperQEngine(self.properties.hyper_q_width)
        self.latency = LatencyModel(self.properties)

    # -- memory -------------------------------------------------------------

    def allocate(self, size: int) -> Allocation:
        """Allocate device memory (raises OutOfMemoryError when full)."""
        return self.allocator.allocate(size)

    def release(self, address: int) -> Allocation:
        """Free device memory by base address."""
        return self.allocator.release(address)

    def mem_info(self) -> MemInfo:
        """Device-wide free/total, as ``cudaMemGetInfo`` reports it."""
        return MemInfo(free=self.allocator.free, total=self.allocator.total)

    # -- execution ------------------------------------------------------------

    def submit_kernel(self, now: float, duration: float) -> KernelRecord:
        """Submit a kernel of known duration through Hyper-Q."""
        return self.hyperq.submit(now, duration)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<GpuDevice {self.ordinal} '{self.properties.name}' "
            f"{format_size(self.allocator.used)} used of "
            f"{format_size(self.allocator.total)}>"
        )
