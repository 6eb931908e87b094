"""Cluster extensions (§V future work): one placement table under two
in-process drivers (multi-GPU hosts, simulated swarm dispatch).

The public names resolve on first use (PEP 562), so importing the package
loads neither the swarm's simulator nor numpy (DESIGN.md §11, "the
serving closure")."""

from repro import _lazy_exports

#: Public name -> the module that defines it.
_EXPORTS = {
    "MultiGpuScheduler": "repro.cluster.multigpu",
    "PLACEMENT_POLICIES": "repro.cluster.placement",
    "SwarmCluster": "repro.cluster.swarm",
    "SwarmNode": "repro.cluster.swarm",
    "SwarmRunResult": "repro.cluster.swarm",
    "DISPATCH_STRATEGIES": "repro.cluster.swarm",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
