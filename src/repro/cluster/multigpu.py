"""Multi-GPU extension (§V future work).

"Our future work will extend the ConVGPU in a multiple GPU with an
appropriate algorithm to achieve better performance."

The design follows the paper's single-GPU semantics per device: each GPU
keeps its own :class:`~repro.core.scheduler.core.GpuMemoryScheduler`
(memory cannot move between devices, so per-device bookkeeping is exact)
and a **placement policy** decides, at registration time, which device a
container binds to — the single cross-device decision the paper's model
needs.  After placement, every wrapper message routes to the container's
device scheduler unchanged, so the entire single-GPU machinery is reused.

Placement policies provided:

- ``most-free``  — the device with the most unreserved memory (spread);
- ``best-fit``   — the device whose unreserved memory is the smallest that
  still fits the limit (binpack: keeps big devices free for big tenants);
- ``round-robin``— cycle across devices that can fit the limit;
- ``hash``       — consistent-hash the container id onto the device set
  (the :class:`~repro.cluster.ring.HashRing` the shard router uses), so a
  single-process multi-GPU deployment and a sharded multi-daemon one
  agree on where a container lives.

A placement callable takes ``(schedulers, container_id, limit)`` and
returns a device ordinal (or ``None`` when no device can ever fit the
limit); only ``hash`` looks at the container id today, but the id is part
of the contract so stateful policies can be deterministic per tenant.

``place_most_free`` / ``place_best_fit`` read nothing but ``.unreserved``
and ``.total_memory``, so they are also the swarm dispatcher's ``spread``
and ``binpack`` over whole nodes (:mod:`repro.cluster.swarm`).
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Sequence

from repro.cluster.ring import HashRing
from repro.core.scheduler.core import GpuMemoryScheduler
from repro.core.scheduler.policies import SchedulingPolicy, make_policy
from repro.core.scheduler.records import ContainerRecord
from repro.errors import ClusterError, LimitExceededError, UnknownContainerError
from repro.gpu.device import DeviceRegistry
from repro.units import format_size

__all__ = [
    "PLACEMENT_POLICIES",
    "MultiGpuScheduler",
    "place_best_fit",
    "place_most_free",
]


def place_most_free(
    pools: Sequence[Any], container_id: str, limit: int
) -> int | None:
    """Index of the pool with the most unreserved memory (lowest on ties)."""
    candidates = [
        (pool.unreserved, -i)
        for i, pool in enumerate(pools)
        if limit <= pool.total_memory
    ]
    if not candidates:
        return None
    _, neg_index = max(candidates)
    return -neg_index


def place_best_fit(
    pools: Sequence[Any], container_id: str, limit: int
) -> int | None:
    """Index of the tightest pool that can reserve ``limit`` in full."""
    fitting = [
        (pool.unreserved, i)
        for i, pool in enumerate(pools)
        if limit <= pool.total_memory and pool.unreserved >= limit
    ]
    if fitting:
        # Smallest unreserved pool that still covers the limit.
        _, index = min(fitting)
        return index
    # Nobody can reserve fully right now: fall back to the pool with the
    # most room (the container will be partially assigned + paused there).
    return place_most_free(pools, container_id, limit)


class _RoundRobin:
    def __init__(self) -> None:
        self._next = 0

    def __call__(
        self, schedulers: list[GpuMemoryScheduler], container_id: str, limit: int
    ) -> int | None:
        n = len(schedulers)
        for offset in range(n):
            index = (self._next + offset) % n
            if limit <= schedulers[index].total_memory:
                self._next = (index + 1) % n
                return index
        return None


class _PlaceHash:
    """Consistent-hash placement: ring-walk to the first device that fits.

    The ring is built lazily on first use (the device count is only known
    then) and is the same construction the shard router uses, so
    ``hash``-placed ordinals equal the router's shard assignments for the
    same container ids and device count.
    """

    def __init__(self) -> None:
        self._ring: HashRing | None = None
        self._size = 0

    def __call__(
        self, schedulers: list[GpuMemoryScheduler], container_id: str, limit: int
    ) -> int | None:
        if self._ring is None or self._size != len(schedulers):
            ring = HashRing()
            for ordinal in range(len(schedulers)):
                ring.add(ordinal)
            self._ring = ring
            self._size = len(schedulers)
        for ordinal in self._ring.preference(container_id):
            if limit <= schedulers[ordinal].total_memory:
                return ordinal
        return None


#: name -> factory producing a placement callable.
PLACEMENT_POLICIES: dict[str, Callable[[], Callable]] = {
    "most-free": lambda: place_most_free,
    "best-fit": lambda: place_best_fit,
    "round-robin": _RoundRobin,
    "hash": _PlaceHash,
}


class MultiGpuScheduler:
    """ConVGPU's scheduler generalized over a device registry.

    Locking is sharded per device: each
    :class:`~repro.core.scheduler.core.GpuMemoryScheduler` carries its own
    mutex, so traffic for containers on different GPUs never contends.
    The only cross-device state is the placement map, guarded by its own
    small lock here.  Passing one :class:`SchedulingPolicy` *instance* for
    every device is safe: policies are stateless strategy objects, and the
    incremental candidate index each one maintains is created per scheduler
    state via ``policy.make_index(state)`` — never shared across devices.
    """

    def __init__(
        self,
        devices: DeviceRegistry,
        policy: SchedulingPolicy | str = "BF",
        *,
        placement: str = "most-free",
        clock: Callable[[], float] | None = None,
        context_overhead: int | None = None,
    ) -> None:
        if len(devices) == 0:
            raise ClusterError("need at least one device")
        if placement not in PLACEMENT_POLICIES:
            raise ClusterError(
                f"unknown placement {placement!r}; known: {sorted(PLACEMENT_POLICIES)}"
            )
        self.devices = devices
        self.placement_name = placement
        self._place = PLACEMENT_POLICIES[placement]()
        self.schedulers: list[GpuMemoryScheduler] = []
        for device in devices:
            per_device_policy = (
                make_policy(policy) if isinstance(policy, str) else policy
            )
            kwargs: dict[str, Any] = {"clock": clock} if clock else {}
            if context_overhead is not None:
                kwargs["context_overhead"] = context_overhead
            self.schedulers.append(
                GpuMemoryScheduler(
                    device.properties.total_global_mem, per_device_policy, **kwargs
                )
            )
        #: The shared per-device policy; the protocol service labels its
        #: decision-latency histogram with ``scheduler.policy.name``.
        self.policy = self.schedulers[0].policy
        #: container_id -> device ordinal; guarded by ``_placements_lock``
        #: (the per-device scheduler locks do not cover this map).
        self._placements: dict[str, int] = {}
        self._placements_lock = threading.Lock()

    # ------------------------------------------------------------------

    def register_container(self, container_id: str, limit: int) -> tuple[int, ContainerRecord]:
        """Place the container on a device and register it there.

        Returns ``(device_ordinal, record)``; the ordinal is what the
        customized nvidia-docker would translate into the right
        ``--device /dev/nvidiaN`` option.
        """
        ordinal = self._place(self.schedulers, container_id, limit)
        if ordinal is None:
            raise LimitExceededError(
                f"no device can ever hold {format_size(limit)}"
            )
        record = self.schedulers[ordinal].register_container(container_id, limit)
        with self._placements_lock:
            self._placements[container_id] = ordinal
        return ordinal, record

    def device_of(self, container_id: str) -> int:
        with self._placements_lock:
            try:
                return self._placements[container_id]
            except KeyError:
                raise UnknownContainerError(
                    f"container {container_id!r} is not placed"
                ) from None

    def scheduler_of(self, container_id: str) -> GpuMemoryScheduler:
        return self.schedulers[self.device_of(container_id)]

    def container(self, container_id: str) -> ContainerRecord:
        """The container's record on its placed device."""
        return self.scheduler_of(container_id).container(container_id)

    def containers(self, *, include_closed: bool = False) -> list[ContainerRecord]:
        records: list[ContainerRecord] = []
        for scheduler in self.schedulers:
            records.extend(scheduler.containers(include_closed=include_closed))
        return sorted(records, key=lambda r: (r.created_at, r.container_id))

    # -- routed single-GPU operations --------------------------------------

    def request_allocation(self, container_id: str, pid: int, size: int, **kwargs):
        return self.scheduler_of(container_id).request_allocation(
            container_id, pid, size, **kwargs
        )

    def commit_allocation(self, container_id: str, pid: int, address: int, size: int):
        return self.scheduler_of(container_id).commit_allocation(
            container_id, pid, address, size
        )

    def abort_allocation(self, container_id: str, pid: int, size: int):
        return self.scheduler_of(container_id).abort_allocation(container_id, pid, size)

    def release_allocation(self, container_id: str, pid: int, address: int):
        return self.scheduler_of(container_id).release_allocation(
            container_id, pid, address
        )

    def process_exit(self, container_id: str, pid: int):
        return self.scheduler_of(container_id).process_exit(container_id, pid)

    def mem_get_info(self, container_id: str, pid: int):
        return self.scheduler_of(container_id).mem_get_info(container_id, pid)

    def container_exit(self, container_id: str) -> int:
        with self._placements_lock:
            ordinal = self._placements.pop(container_id, None)
        if ordinal is None:
            return 0
        return self.schedulers[ordinal].container_exit(container_id)

    def begin_batch(self) -> None:
        """Enter batch mode on every device scheduler (see core.begin_batch).

        A pipelined frame batch may carry traffic for containers placed on
        different devices; entering batch mode everywhere lets each device
        coalesce its share into one durability wait at commit.
        """
        for scheduler in self.schedulers:
            scheduler.begin_batch()

    def commit_batch(self) -> None:
        for scheduler in self.schedulers:
            scheduler.commit_batch()

    # ------------------------------------------------------------------

    @property
    def total_memory(self) -> int:
        return sum(s.total_memory for s in self.schedulers)

    @property
    def reserved(self) -> int:
        return sum(s.reserved for s in self.schedulers)

    def check_invariants(self) -> None:
        for scheduler in self.schedulers:
            scheduler.check_invariants()

    def utilization_by_device(self) -> list[float]:
        """Reserved fraction per device (placement-quality metric)."""
        return [s.reserved / s.total_memory for s in self.schedulers]
