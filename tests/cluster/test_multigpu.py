"""Tests for the multi-GPU extension."""

import pytest

from repro.cluster.multigpu import PLACEMENT_POLICIES, MultiGpuScheduler
from repro.core.middleware import ConVGPU
from repro.errors import ClusterError, LimitExceededError, UnknownContainerError
from repro.gpu.device import DeviceRegistry, GpuDevice
from repro.gpu.properties import make_properties
from repro.units import GiB, MiB


def registry(*sizes):
    return DeviceRegistry(
        [GpuDevice(i, make_properties(size)) for i, size in enumerate(sizes)]
    )


class TestConstruction:
    def test_needs_devices(self):
        with pytest.raises(ClusterError):
            MultiGpuScheduler(DeviceRegistry())

    def test_unknown_placement_rejected(self):
        with pytest.raises(ClusterError):
            MultiGpuScheduler(registry(GiB), placement="psychic")

    def test_per_device_schedulers(self):
        cluster = MultiGpuScheduler(registry(GiB, 2 * GiB))
        assert len(cluster.schedulers) == 2
        assert cluster.total_memory == 3 * GiB


class TestPlacement:
    def test_most_free_spreads(self):
        cluster = MultiGpuScheduler(registry(2 * GiB, 2 * GiB), placement="most-free")
        d0, _ = cluster.register_container("a", GiB)
        d1, _ = cluster.register_container("b", GiB)
        assert {d0, d1} == {0, 1}  # spread across both devices

    def test_best_fit_packs(self):
        cluster = MultiGpuScheduler(registry(4 * GiB, 1 * GiB), placement="best-fit")
        ordinal, _ = cluster.register_container("small", 512 * MiB)
        assert ordinal == 1  # the tighter device that still fits
        ordinal, _ = cluster.register_container("big", 3 * GiB)
        assert ordinal == 0

    def test_best_fit_keeps_large_device_for_large_tenant(self):
        cluster = MultiGpuScheduler(registry(4 * GiB, 1 * GiB), placement="best-fit")
        cluster.register_container("s1", 512 * MiB)
        cluster.register_container("s2", 512 * MiB)  # fills device 1
        # A 4 GiB tenant still fits because the small ones were packed away.
        ordinal, record = cluster.register_container("xl", 4 * GiB)
        assert ordinal == 0
        assert record.assigned == 4 * GiB

    def test_round_robin_cycles(self):
        cluster = MultiGpuScheduler(
            registry(2 * GiB, 2 * GiB, 2 * GiB), placement="round-robin"
        )
        ordinals = [
            cluster.register_container(f"c{i}", 256 * MiB)[0] for i in range(6)
        ]
        assert ordinals == [0, 1, 2, 0, 1, 2]

    def test_round_robin_skips_too_small_devices(self):
        cluster = MultiGpuScheduler(
            registry(GiB, 4 * GiB), placement="round-robin"
        )
        ordinals = [
            cluster.register_container(f"c{i}", 2 * GiB)[0] for i in range(3)
        ]
        assert ordinals == [1, 1, 1]

    def test_impossible_limit_rejected(self):
        cluster = MultiGpuScheduler(registry(GiB, GiB))
        with pytest.raises(LimitExceededError):
            cluster.register_container("xxl", 2 * GiB)

    def test_random_is_seeded_and_skips_too_small_devices(self):
        def ordinals():
            cluster = MultiGpuScheduler(
                registry(GiB, 4 * GiB, 4 * GiB), placement="random"
            )
            return [cluster.register_container(f"c{i}", 2 * GiB)[0] for i in range(8)]

        first = ordinals()
        assert first == ordinals()  # the default generator is seeded
        assert set(first) == {1, 2}

    def test_all_policies_registered(self):
        assert set(PLACEMENT_POLICIES) == {
            "most-free", "best-fit", "round-robin", "random",
        }


class TestSchedulerOptions:
    def test_scheduler_options_reach_every_device(self):
        """A scheduler option means the same on one device and on many."""
        system = ConVGPU(device_count=2, resume_mode="full", context_overhead=0)
        assert [s.resume_mode for s in system.scheduler.schedulers] == ["full"] * 2
        assert [s.context_overhead for s in system.scheduler.schedulers] == [0, 0]


class TestRouting:
    @pytest.fixture
    def cluster(self):
        return MultiGpuScheduler(registry(2 * GiB, 2 * GiB), placement="most-free")

    def test_operations_route_to_placed_device(self, cluster):
        cluster.register_container("a", GiB)
        device = cluster.device_of("a")
        decision = cluster.request_allocation("a", 1, 100 * MiB)
        assert decision.granted
        cluster.commit_allocation("a", 1, 0x1000, 100 * MiB)
        free, total = cluster.mem_get_info("a", 1)
        assert total == GiB
        # Only the placed device's scheduler holds the record.
        other = cluster.schedulers[1 - device]
        with pytest.raises(UnknownContainerError):
            other.container("a")

    def test_exit_releases_on_right_device(self, cluster):
        cluster.register_container("a", GiB)
        ordinal = cluster.device_of("a")
        assert cluster.schedulers[ordinal].reserved == GiB
        reclaimed = cluster.container_exit("a")
        assert reclaimed == GiB
        assert cluster.reserved == 0

    def test_exit_unknown_is_noop(self, cluster):
        assert cluster.container_exit("ghost") == 0

    def test_unplaced_container_rejected(self, cluster):
        with pytest.raises(UnknownContainerError):
            cluster.request_allocation("ghost", 1, MiB)

    def test_utilization_metric(self, cluster):
        cluster.register_container("a", GiB)
        utilization = cluster.utilization_by_device()
        assert sorted(utilization) == [0.0, 0.5]
        cluster.check_invariants()


class TestCapacityScaling:
    def test_two_gpus_double_concurrent_xlarge_capacity(self):
        """The point of the extension: more devices, more co-residency."""
        single = MultiGpuScheduler(registry(5 * GiB))
        double = MultiGpuScheduler(registry(5 * GiB, 5 * GiB))
        single.register_container("x1", 4 * GiB)
        r = single.register_container("x2", 4 * GiB)[1]
        assert r.assigned < 4 * GiB  # second xlarge can't be fully reserved
        double.register_container("y1", 4 * GiB)
        r = double.register_container("y2", 4 * GiB)[1]
        assert r.assigned == 4 * GiB  # placed on the second device
