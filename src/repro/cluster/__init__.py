"""Cluster extensions (§V future work): one placement table under two
in-process drivers (multi-GPU hosts, simulated swarm dispatch), and the
sharded multi-daemon control plane (ring / supervisor / router).

The public names resolve on first use (PEP 562): the router and supervisor
processes import only the control plane, never the swarm's simulator or
numpy (DESIGN.md §11, "the serving closure")."""

from repro import _lazy_exports

#: Public name -> the module that defines it.
_EXPORTS = {
    "MultiGpuScheduler": "repro.cluster.multigpu",
    "PLACEMENT_POLICIES": "repro.cluster.placement",
    "HashRing": "repro.cluster.ring",
    "ShardEndpoint": "repro.cluster.router",
    "ShardRouter": "repro.cluster.router",
    "ShardProcess": "repro.cluster.supervisor",
    "ShardSpec": "repro.cluster.supervisor",
    "ShardSupervisor": "repro.cluster.supervisor",
    "SwarmCluster": "repro.cluster.swarm",
    "SwarmNode": "repro.cluster.swarm",
    "SwarmRunResult": "repro.cluster.swarm",
    "DISPATCH_STRATEGIES": "repro.cluster.swarm",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = _lazy_exports(__name__, _EXPORTS)
