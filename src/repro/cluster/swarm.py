"""Swarm extension (§V future work): ConVGPU across multiple hosts.

"Our further step is to adopt the ConVGPU in the clustering system like
Docker Swarm."

A :class:`SwarmCluster` holds several *nodes*, each a complete single-host
ConVGPU deployment (its own GPU(s), scheduler, engine) under one virtual
clock.  A dispatch strategy — named after Docker Swarm's real ones, each a
row of the placement table (:mod:`repro.cluster.placement`) applied to
whole nodes — picks the node for each submitted container:

- ``spread``  — node with the most unreserved GPU memory (Swarm default);
- ``binpack`` — node with the least unreserved memory that still fits,
  concentrating load so whole nodes stay free;
- ``random``  — uniform choice among nodes that can ever fit the limit.

Dispatch happens at submission, before the container's nvidia-docker
registration on the chosen node; everything after that is the unmodified
single-host stack.

This is a simulation: the live deployment is one daemon per host
(§III-D), and a host's several GPUs are served in process by
:class:`~repro.cluster.multigpu.MultiGpuScheduler` (DESIGN.md §15).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cluster.placement import make_placement
from repro.container.image import make_cuda_image
from repro.core.middleware import ConVGPU
from repro.core.scheduler.events import ContainerClosed
from repro.errors import ClusterError, LimitExceededError
from repro.sim.engine import Environment
from repro.workloads.api import ProcessApi
from repro.workloads.arrivals import Arrival
from repro.workloads.runner import SimIpcBridge, SimProgramRunner
from repro.workloads.sample import make_sample_command

__all__ = ["SwarmNode", "SwarmCluster", "DISPATCH_STRATEGIES", "SwarmRunResult"]


@dataclass
class SwarmNode:
    """One host in the cluster: a full ConVGPU deployment + its runner."""

    name: str
    system: ConVGPU
    runner: SimProgramRunner
    containers: list[str] = field(default_factory=list)

    @property
    def unreserved(self) -> int:
        return self.system.scheduler.unreserved

    @property
    def total_memory(self) -> int:
        return self.system.scheduler.total_memory


#: Docker Swarm's strategy names -> the placement each one is.
DISPATCH_STRATEGIES: dict[str, str] = {
    "spread": "most-free",
    "binpack": "best-fit",
    "random": "random",
}


@dataclass
class SwarmRunResult:
    """Outcome of a cluster schedule."""

    strategy: str
    finished_time: float
    avg_suspended: float
    failures: int
    per_node_containers: dict[str, int]


class SwarmCluster:
    """Several ConVGPU hosts under one virtual clock and dispatcher."""

    def __init__(
        self,
        node_count: int,
        *,
        env: Environment | None = None,
        policy: str = "BF",
        strategy: str = "spread",
        rng: np.random.Generator | None = None,
    ) -> None:
        if node_count < 1:
            raise ClusterError("need at least one node")
        if strategy not in DISPATCH_STRATEGIES:
            raise ClusterError(
                f"unknown strategy {strategy!r}; known: {sorted(DISPATCH_STRATEGIES)}"
            )
        self.strategy_name = strategy
        self.nodes: list[SwarmNode] = []
        self.env = env if env is not None else Environment()
        self._place = make_placement(DISPATCH_STRATEGIES[strategy], rng)
        for index in range(node_count):
            system = ConVGPU(policy=policy, clock=lambda: self.env.now)
            system.engine.images.add(make_cuda_image("sample"))
            bridge = SimIpcBridge(self.env, system.service.handle)
            runner = SimProgramRunner(self.env, system.device, bridge)
            self.nodes.append(
                SwarmNode(name=f"node{index}", system=system, runner=runner)
            )

    # ------------------------------------------------------------------

    def dispatch(self, limit: int, container_id: str = "") -> SwarmNode:
        """Pick the node for a container with the given GPU memory limit."""
        index = self._place(self.nodes, container_id, limit)
        if index is None:
            raise LimitExceededError(
                f"no node in the cluster can hold a {limit}-byte container"
            )
        return self.nodes[index]

    def submit(self, arrival: Arrival) -> "repro.sim.events.Process":  # noqa: F821
        """Schedule one arrival: dispatch and run it (a DES process).

        The process's value is ``(name, exit_code)``.
        """

        def _process():
            yield self.env.timeout(arrival.time)
            node = self.dispatch(arrival.container_type.gpu_memory, arrival.name)
            node.containers.append(arrival.name)
            system, runner = node.system, node.runner
            container = system.nvdocker.run(
                "sample",
                name=arrival.name,
                container_type=arrival.container_type,
                command=make_sample_command(
                    arrival.container_type, lambda: self.env.now
                ),
            )
            creation = (
                system.engine.timing.creation_time(container.config)
                + system.creation_overhead()
            )
            yield self.env.timeout(creation)
            proc = runner.run_program(
                ProcessApi(container.main_process),
                on_exit=lambda code: system.engine.notify_main_exit(
                    container.container_id, code
                ),
            )
            exit_code = yield proc
            return arrival.name, exit_code

        return self.env.process(_process())

    def run_schedule(self, arrivals: list[Arrival]) -> SwarmRunResult:
        """Run a full arrival schedule to completion."""
        processes = [self.submit(arrival) for arrival in arrivals]
        self.env.run()
        outcomes = [p.value for p in processes]
        # An exited container leaves no record: its suspension is on the
        # ContainerClosed event its node's scheduler logged.
        suspended = {
            event.container_id: event.suspended_total
            for node in self.nodes
            for event in node.system.scheduler.log.of_type(ContainerClosed)
        }
        for node in self.nodes:
            node.system.scheduler.check_invariants()
        return SwarmRunResult(
            strategy=self.strategy_name,
            finished_time=self.env.now,
            avg_suspended=(
                sum(suspended[name] for name, _c in outcomes) / len(outcomes)
                if outcomes
                else 0.0
            ),
            failures=sum(1 for _n, code in outcomes if code != 0),
            per_node_containers={n.name: len(n.containers) for n in self.nodes},
        )
