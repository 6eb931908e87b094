"""Simulated GPU substrate (device, memory allocator, Hyper-Q, latency).

Stands in for the NVIDIA Tesla K20m of the paper's testbed; see DESIGN.md
for the substitution rationale.
"""

from repro.gpu.device import GpuDevice, MemInfo
from repro.gpu.hyperq import HyperQEngine, KernelRecord
from repro.gpu.latency import DEFAULT_API_COSTS, ApiCostTable, LatencyModel
from repro.gpu.memory import Allocation, GpuMemoryAllocator
from repro.gpu.properties import TESLA_K20M, DeviceProperties, make_properties

__all__ = [
    "GpuDevice",
    "MemInfo",
    "HyperQEngine",
    "KernelRecord",
    "LatencyModel",
    "ApiCostTable",
    "DEFAULT_API_COSTS",
    "Allocation",
    "GpuMemoryAllocator",
    "DeviceProperties",
    "TESLA_K20M",
    "make_properties",
]
