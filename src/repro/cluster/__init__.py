"""Cluster extensions (§V future work): one placement table under two
in-process drivers (multi-GPU hosts, simulated swarm dispatch), and the
sharded multi-daemon control plane (ring / supervisor / router)."""

from repro.cluster.multigpu import MultiGpuScheduler
from repro.cluster.placement import PLACEMENT_POLICIES
from repro.cluster.ring import HashRing
from repro.cluster.router import ShardEndpoint, ShardRouter
from repro.cluster.supervisor import ShardProcess, ShardSpec, ShardSupervisor
from repro.cluster.swarm import (
    DISPATCH_STRATEGIES,
    SwarmCluster,
    SwarmNode,
    SwarmRunResult,
)

__all__ = [
    "MultiGpuScheduler",
    "PLACEMENT_POLICIES",
    "HashRing",
    "ShardEndpoint",
    "ShardRouter",
    "ShardProcess",
    "ShardSpec",
    "ShardSupervisor",
    "SwarmCluster",
    "SwarmNode",
    "SwarmRunResult",
    "DISPATCH_STRATEGIES",
]
