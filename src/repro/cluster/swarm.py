"""Swarm extension (§V future work): ConVGPU across multiple hosts.

"Our further step is to adopt the ConVGPU in the clustering system like
Docker Swarm."

A :class:`SwarmCluster` holds several *nodes*, each a complete single-host
ConVGPU deployment (its own GPU(s), scheduler, engine).  A dispatch
strategy — named after Docker Swarm's real ones — picks the node for each
submitted container:

- ``spread``  — node with the most unreserved GPU memory (Swarm default);
- ``binpack`` — node with the least unreserved memory that still fits,
  concentrating load so whole nodes stay free;
- ``random``  — uniform choice among nodes that can ever fit the limit.

Dispatch happens at submission, before the container's nvidia-docker
registration on the chosen node; everything after that is the unmodified
single-host stack.

``live=True`` swaps the simulated nodes for the real sharded control
plane: one ``repro daemon`` process per node (journalled, over loopback
TCP — the cross-host transport) behind a
:class:`~repro.cluster.router.ShardRouter`, with the supervisor's
auto-restart wired to the router's re-routing.  The DES scheduling API is
unavailable in live mode (and vice versa); live callers register through
:meth:`register` and talk to containers via :meth:`client_for`.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.cluster.multigpu import place_best_fit, place_most_free
from repro.container.image import make_cuda_image
from repro.core.middleware import ConVGPU
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


def _random(nodes: list[SwarmNode], limit: int, rng) -> int | None:
    fitting = [i for i, n in enumerate(nodes) if limit <= n.total_memory]
    if not fitting:
        return None
    return fitting[int(rng.integers(0, len(fitting)))]


#: name -> ``(nodes, limit, rng) -> node index | None``.  ``spread`` and
#: ``binpack`` are the multi-GPU placement pair applied to whole nodes (a
#: dispatch has no container id yet, and neither of the two reads one).
DISPATCH_STRATEGIES: dict[str, Callable] = {
    "spread": lambda nodes, limit, rng: place_most_free(nodes, "", limit),
    "binpack": lambda nodes, limit, rng: place_best_fit(nodes, "", limit),
    "random": _random,
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
    """Several ConVGPU hosts under one virtual clock and dispatcher.

    With ``live=True`` the hosts are real: one journalled shard daemon
    process per node on loopback TCP, fronted by a consistent-hash
    router.  ``node_count`` then sets the shard count; ``policy`` and
    ``total_memory_mib`` configure each shard's scheduler; ``strategy``
    is ignored (placement is the router's hash ring).
    """

    def __init__(
        self,
        node_count: int,
        *,
        env: Environment | None = None,
        policy: str = "BF",
        strategy: str = "spread",
        rng: np.random.Generator | None = None,
        live: bool = False,
        base_dir: str | None = None,
        total_memory_mib: int = 4096,
    ) -> None:
        if node_count < 1:
            raise ClusterError("need at least one node")
        if strategy not in DISPATCH_STRATEGIES:
            raise ClusterError(
                f"unknown strategy {strategy!r}; known: {sorted(DISPATCH_STRATEGIES)}"
            )
        self.live = live
        self.node_count = node_count
        self.strategy_name = strategy
        self.nodes: list[SwarmNode] = []
        self.supervisor = None
        self.router = None
        self._control_client = None
        if live:
            self._policy = policy
            self._total_memory_mib = total_memory_mib
            self._owns_base_dir = base_dir is None
            self._base_dir = base_dir or tempfile.mkdtemp(prefix="convgpu-swarm-")
            return
        self.env = env if env is not None else Environment()
        self._dispatch = DISPATCH_STRATEGIES[strategy]
        self._rng = rng if rng is not None else np.random.default_rng(0)
        for index in range(node_count):
            system = ConVGPU(policy=policy, clock=lambda: self.env.now)
            system.engine.images.add(make_cuda_image("sample"))
            bridge = SimIpcBridge(self.env, system.service.handle)
            runner = SimProgramRunner(self.env, system.device, bridge)
            self.nodes.append(
                SwarmNode(name=f"node{index}", system=system, runner=runner)
            )

    # -- live mode -----------------------------------------------------------

    def _require_live(self) -> None:
        if not self.live:
            raise ClusterError("this method needs a live=True cluster")
        if self.router is None:
            raise ClusterError("live cluster not started (call start())")

    def start(self) -> "SwarmCluster":
        """Live mode: spawn the shard fleet and the router in front of it."""
        if not self.live:
            raise ClusterError("start() only applies to a live=True cluster")
        from repro.cluster.router import ShardEndpoint, ShardRouter
        from repro.cluster.supervisor import ShardSupervisor

        self.supervisor = ShardSupervisor(
            self.node_count,
            base_dir=os.path.join(self._base_dir, "shards"),
            transport="tcp",
            policy=self._policy,
            total_memory_mib=self._total_memory_mib,
        )
        self.supervisor.start()
        try:
            self.router = ShardRouter(
                [
                    ShardEndpoint.from_ready(i, self.supervisor.endpoints(i))
                    for i in range(self.node_count)
                ],
                base_dir=os.path.join(self._base_dir, "router"),
            )
            self.router.start()
        except Exception:
            self.supervisor.stop()
            self.supervisor = None
            raise
        self.supervisor.on_restart = self.router.refresh_shard
        return self

    def stop(self) -> None:
        if not self.live:
            return
        if self._control_client is not None:
            self._control_client.close()
            self._control_client = None
        if self.router is not None:
            self.router.stop()
            self.router = None
        if self.supervisor is not None:
            self.supervisor.stop()
            self.supervisor = None
        if self._owns_base_dir:
            import shutil

            shutil.rmtree(self._base_dir, ignore_errors=True)

    def __enter__(self) -> "SwarmCluster":
        return self.start() if self.live else self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def register(self, container_id: str, limit: int) -> dict:
        """Live mode: register a container through the router."""
        self._require_live()
        from repro.ipc import protocol
        from repro.ipc.tcp_socket import TcpSocketClient

        if self._control_client is None:
            self._control_client = TcpSocketClient(
                self.router.host, self.router.control_port, timeout=30.0
            )
        return self._control_client.call(
            protocol.MSG_REGISTER_CONTAINER,
            container_id=container_id,
            limit=limit,
        )

    def container_exit(self, container_id: str) -> dict:
        """Live mode: deregister a container through the router."""
        self._require_live()
        from repro.ipc import protocol

        if self._control_client is None:
            raise ClusterError("no containers registered yet")
        return self._control_client.call(
            protocol.MSG_CONTAINER_EXIT, container_id=container_id
        )

    def client_for(self, container_id: str, *, codec: str = "auto", timeout=30.0):
        """Live mode: a connected client to the container's proxied socket."""
        self._require_live()
        from repro.ipc.tcp_socket import TcpSocketClient

        return TcpSocketClient(
            self.router.host,
            self.router.container_port(container_id),
            timeout=timeout,
            codec=codec,
        )

    # ------------------------------------------------------------------

    def dispatch(self, limit: int) -> SwarmNode:
        """Pick the node for a container with the given GPU memory limit."""
        if self.live:
            raise ClusterError("dispatch() is the DES path; live placement "
                               "is the router's hash ring")
        index = self._dispatch(self.nodes, limit, self._rng)
        if index is None:
            raise LimitExceededError(
                f"no node in the cluster can hold a {limit}-byte container"
            )
        return self.nodes[index]

    def submit(self, arrival: Arrival) -> "repro.sim.events.Process":  # noqa: F821
        """Schedule one arrival: dispatch, run, record (a DES process)."""
        if self.live:
            raise ClusterError("submit() is the DES path; use register() / "
                               "client_for() on a live cluster")

        def _process():
            yield self.env.timeout(arrival.time)
            node = self.dispatch(arrival.container_type.gpu_memory)
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
            record = system.scheduler.container(arrival.name)
            return arrival.name, exit_code, record.suspended_total

        return self.env.process(_process())

    def run_schedule(self, arrivals: list[Arrival]) -> SwarmRunResult:
        """Run a full arrival schedule to completion."""
        processes = [self.submit(arrival) for arrival in arrivals]
        self.env.run()
        outcomes = [p.value for p in processes]
        for node in self.nodes:
            node.system.scheduler.check_invariants()
        return SwarmRunResult(
            strategy=self.strategy_name,
            finished_time=self.env.now,
            avg_suspended=(
                sum(s for _n, _c, s in outcomes) / len(outcomes) if outcomes else 0.0
            ),
            failures=sum(1 for _n, code, _s in outcomes if code != 0),
            per_node_containers={n.name: len(n.containers) for n in self.nodes},
        )
