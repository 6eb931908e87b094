"""Tests for GpuDevice, properties, and the latency model."""

import pytest

from repro.errors import InvalidDeviceError, OutOfMemoryError
from repro.gpu.device import GpuDevice
from repro.gpu.latency import ApiCostTable, LatencyModel
from repro.gpu.properties import TESLA_K20M, DeviceProperties, make_properties
from repro.units import GiB, MiB


class TestProperties:
    def test_k20m_matches_paper_testbed(self):
        # §IV-A: "one NVIDIA Tesla K20m GPU which has 5GB memory" + Hyper-Q.
        assert TESLA_K20M.total_global_mem == 5 * GiB
        assert TESLA_K20M.hyper_q_width == 32
        assert TESLA_K20M.managed_granularity == 128 * MiB

    def test_validation_rejects_bad_granularity(self):
        with pytest.raises(ValueError):
            DeviceProperties(name="x", total_global_mem=GiB, pitch_granularity=300)

    def test_with_memory_copy(self):
        smaller = TESLA_K20M.with_memory(GiB)
        assert smaller.total_global_mem == GiB
        assert smaller.name == TESLA_K20M.name
        assert TESLA_K20M.total_global_mem == 5 * GiB  # original untouched

    def test_make_properties_rejects_tiny(self):
        with pytest.raises(ValueError):
            make_properties(1024)


class TestDevice:
    def test_default_is_k20m(self):
        assert GpuDevice().properties is TESLA_K20M

    def test_mem_info_tracks_allocations(self, device):
        info = device.mem_info()
        assert info.free == info.total == 5 * GiB
        allocation = device.allocate(MiB)
        assert device.mem_info().free == 5 * GiB - MiB
        assert device.mem_info().used == MiB
        device.release(allocation.address)

    def test_oom_propagates(self, small_device):
        with pytest.raises(OutOfMemoryError):
            small_device.allocate(GiB)

    def test_negative_ordinal_rejected(self):
        with pytest.raises(InvalidDeviceError):
            GpuDevice(-1)

    def test_distinct_devices_have_distinct_address_ranges(self):
        d0, d1 = GpuDevice(0), GpuDevice(1)
        a0 = d0.allocate(MiB)
        a1 = d1.allocate(MiB)
        assert abs(a0.address - a1.address) >= (1 << 40)

    def test_kernel_submission_goes_through_hyperq(self, device):
        record = device.submit_kernel(0.0, 2.0)
        assert record.completion_time == 2.0
        assert device.hyperq.submitted == 1


class TestLatencyModel:
    @pytest.fixture
    def model(self):
        return LatencyModel(TESLA_K20M)

    def test_h2d_scales_with_size(self, model):
        small = model.h2d_time(MiB)
        large = model.h2d_time(100 * MiB)
        assert large > small
        # 100 MiB over ~6 GB/s PCIe: ~17 ms.
        assert 0.005 < large < 0.1

    def test_zero_byte_transfer_costs_latency_only(self, model):
        assert model.h2d_time(0) > 0

    def test_negative_sizes_rejected(self, model):
        with pytest.raises(ValueError):
            model.h2d_time(-1)
        with pytest.raises(ValueError):
            model.streaming_kernel_time(-1)
        with pytest.raises(ValueError):
            model.compute_kernel_time(-1.0)

    def test_streaming_kernel_bounded_by_memory_bandwidth(self, model):
        # One complement pass over 1 GiB: 2 GiB of traffic at ~208 GB/s.
        t = model.streaming_kernel_time(GiB)
        assert 0.005 < t < 0.05

    def test_d2d_faster_than_pcie(self, model):
        assert model.d2d_time(100 * MiB) < model.h2d_time(100 * MiB)

    def test_api_cost_lookup(self, model):
        assert model.api_time("cuda_malloc") == pytest.approx(35e-6)
        assert model.api_time("cuda_mem_get_info") > 47e-6  # Fig. 4 ordering
        with pytest.raises(KeyError):
            model.api_time("not_an_api")

    def test_fig4_calibration_ratios(self):
        # Fig. 4: cudaMallocManaged ~40x cudaMalloc; cudaFree slightly less.
        costs = ApiCostTable()
        assert 20 < costs.cuda_malloc_managed / costs.cuda_malloc < 60
        assert costs.cuda_free < costs.cuda_malloc
