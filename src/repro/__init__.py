"""ConVGPU reproduction — GPU management middleware for containers.

A from-scratch Python implementation of *"ConVGPU: GPU Management Middleware
in Container Based Virtualized Environment"* (Kang et al., IEEE CLUSTER
2017), including every substrate the paper depends on: a simulated GPU and
CUDA Runtime/Driver API, a Docker-like container engine with LD_PRELOAD
semantics, the customized nvidia-docker layer, real UNIX-socket JSON IPC,
the GPU memory scheduler with its four algorithms, and the full evaluation
harness (Fig. 4-8, Tables IV/V).

The public names below resolve on first use (PEP 562), so a process that
imports only the scheduler daemon never loads the simulator, the container
stack or numpy (DESIGN.md §11, "the serving closure").

See README.md and examples/quickstart.py.
"""

import sys
from importlib import import_module

__version__ = "1.0.0"


def _lazy_exports(package: str, exports: dict[str, str]):
    """PEP 562 ``__getattr__``/``__dir__`` for ``package``: each public name
    in ``exports`` (name -> defining module) is imported on first use."""
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(module), name)
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__


#: Public name -> the module that defines it.
_EXPORTS = {
    "ConVGPU": "repro.core.middleware",
    "GpuMemoryScheduler": "repro.core.scheduler",
    "make_policy": "repro.core.scheduler",
    "register_policy": "repro.core.scheduler",
    "PAPER_POLICIES": "repro.core.scheduler",
    "CONTEXT_OVERHEAD_CHARGE": "repro.core.scheduler",
    "Environment": "repro.sim.engine",
    "DeviceProperties": "repro.gpu.properties",
    "TESLA_K20M": "repro.gpu.properties",
    "KiB": "repro.units",
    "MiB": "repro.units",
    "GiB": "repro.units",
    "parse_size": "repro.units",
    "format_size": "repro.units",
}

__all__ = [*_EXPORTS, "__version__"]
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
