"""Multi-GPU extension (§V future work).

"Our future work will extend the ConVGPU in a multiple GPU with an
appropriate algorithm to achieve better performance."

The design follows the paper's single-GPU semantics per device: each GPU
keeps its own :class:`~repro.core.scheduler.core.GpuMemoryScheduler`
(memory cannot move between devices, so per-device bookkeeping is exact)
and a **placement** decides, at registration time, which device a
container binds to — the single cross-device decision the paper's model
needs.  After placement, every wrapper message routes to the container's
device scheduler unchanged, so the entire single-GPU machinery is reused.

The placements themselves (``most-free``, ``best-fit``, ``round-robin``,
``hash``, ``random``) live in :mod:`repro.cluster.placement`, the one
table this driver and the swarm dispatcher both resolve names in; this
module is the in-process driver: a placement map plus verb routing.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from repro.cluster.placement import PLACEMENT_POLICIES, make_placement
from repro.core.scheduler.core import GpuMemoryScheduler
from repro.core.scheduler.policies import SchedulingPolicy, make_policy
from repro.core.scheduler.records import ContainerRecord
from repro.errors import ClusterError, LimitExceededError, UnknownContainerError
from repro.gpu.device import DeviceRegistry
from repro.units import format_size

__all__ = ["PLACEMENT_POLICIES", "MultiGpuScheduler"]


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

    ``placement`` names a row of :data:`PLACEMENT_POLICIES`; every other
    keyword goes to each device's :class:`GpuMemoryScheduler` as given, so
    a scheduler option means the same thing on one device and on many.
    """

    def __init__(
        self,
        devices: DeviceRegistry,
        policy: SchedulingPolicy | str = "BF",
        *,
        placement: str = "most-free",
        **scheduler_kwargs: Any,
    ) -> None:
        if len(devices) == 0:
            raise ClusterError("need at least one device")
        self.devices = devices
        self.placement_name = placement
        self._place = make_placement(placement)
        self.schedulers = [
            GpuMemoryScheduler(
                device.properties.total_global_mem,
                make_policy(policy) if isinstance(policy, str) else policy,
                **scheduler_kwargs,
            )
            for device in devices
        ]
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

    def containers(self) -> list[ContainerRecord]:
        records: list[ContainerRecord] = []
        for scheduler in self.schedulers:
            records.extend(scheduler.containers())
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

    def commit_batch(self, then: Callable[[], None] | None = None) -> None:
        """Commit every device; ``then`` rides the last one, so it runs
        once every device's decisions are durable."""
        last = len(self.schedulers) - 1
        for ordinal, scheduler in enumerate(self.schedulers):
            scheduler.commit_batch(then if ordinal == last else None)

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
