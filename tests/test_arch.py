"""Tests for the device registry and spec dataclasses."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.arch import (
    CacheGeometry,
    ClockDomain,
    DeviceSpec,
    DramSpec,
    MemoryLatencies,
    MemoryWidths,
    PackValidationError,
    TensorCoreSpec,
    get_device,
    list_devices,
    register_device,
)
from repro.arch.packs import ADA, AMPERE, BLACKWELL, HOPPER, VOLTA
from repro.arch.registry import PAPER_DEVICES


class TestArchitecture:
    def test_compute_capabilities(self):
        assert VOLTA.compute_capability == "7.0"
        assert AMPERE.compute_capability == "8.0"
        assert ADA.compute_capability == "8.9"
        assert HOPPER.compute_capability == "9.0"
        assert BLACKWELL.compute_capability == "10.0"

    def test_tensor_core_generations(self):
        assert VOLTA.tensor_core_generation == 1
        assert AMPERE.tensor_core_generation == 3
        assert ADA.tensor_core_generation == 4
        assert HOPPER.tensor_core_generation == 4
        assert BLACKWELL.tensor_core_generation == 5

    def test_hopper_exclusive_features(self):
        for feat in ("has_dpx_hardware", "has_distributed_shared_memory",
                     "has_wgmma", "has_tma"):
            assert getattr(HOPPER, feat)
            assert not getattr(AMPERE, feat)
            assert not getattr(ADA, feat)

    def test_fp8_support(self):
        assert not AMPERE.has_fp8
        assert ADA.has_fp8
        assert HOPPER.has_fp8

    def test_cp_async_sm80_onward(self):
        assert not VOLTA.has_cp_async
        for a in (AMPERE, ADA, HOPPER, BLACKWELL):
            assert a.has_cp_async


class TestRegistry:
    def test_three_paper_devices(self):
        assert set(PAPER_DEVICES) <= set(list_devices())
        assert {"A100", "RTX4090", "H800"} <= set(list_devices())

    def test_lookup_case_insensitive(self):
        assert get_device("h800") is get_device("H800")

    def test_unknown_device_raises(self):
        with pytest.raises(KeyError, match="unknown device"):
            get_device("H100")

    def test_lineage_devices_registered(self):
        assert {"B200", "V100"} <= set(list_devices())
        assert get_device("B200").pack.name == "blackwell"
        assert get_device("V100").pack.name == "volta"

    def test_duplicate_registration_rejected(self, h800):
        with pytest.raises(ValueError, match="already registered"):
            register_device(h800)

    def test_overwrite_allowed(self, h800):
        register_device(h800, overwrite=True)
        assert get_device("H800") is h800

    def test_invalid_pack_is_rejected_at_registration(self, h800):
        # claims wgmma but carries no wgmma calibration: a wgmma query
        # against it would crash the engine instead of being answered
        bad = h800.with_overrides(
            name="H800NOWG", pack=replace(h800.pack, wgmma=None))
        with pytest.raises(PackValidationError,
                           match="has_wgmma but no wgmma calibration"):
            register_device(bad)
        assert "H800NOWG" not in list_devices()


class TestDeviceProperties:
    def test_table3_fields(self, h800):
        row = h800.table3_row()
        assert row["Comp. Capability"] == "9.0 (Hopper)"
        assert row["SMs * cores/SM"] == "114 * 128"
        assert row["Mem. Bandwidth"] == "2039 GB/s"
        assert row["DPX hardware"] == "Yes"
        assert row["Distributed shared memory"] == "Yes"

    def test_table3_negative_features(self, a100):
        row = a100.table3_row()
        assert row["DPX hardware"] == "No"
        assert row["Distributed shared memory"] == "No"

    def test_total_cuda_cores(self, a100, rtx4090, h800):
        assert a100.total_cuda_cores == 108 * 64
        assert rtx4090.total_cuda_cores == 128 * 128
        assert h800.total_cuda_cores == 114 * 128

    def test_tc_peaks_match_official(self, a100, rtx4090, h800):
        assert a100.tensor_core.dense_peak("fp16") == 312.0
        assert rtx4090.tensor_core.dense_peak("tf32") == 82.6
        assert h800.tensor_core.dense_peak("fp8") == 1513.0

    def test_sparse_peak_doubles(self, h800):
        tc = h800.tensor_core
        assert tc.sparse_peak_tflops("fp16") == 2 * tc.dense_peak("fp16")

    def test_unknown_precision_raises(self, a100):
        with pytest.raises(KeyError, match="not supported"):
            a100.tensor_core.dense_peak("fp8")  # Ampere has no FP8

    def test_tc_flops_per_clk_consistency(self, h800):
        # peak = per_clk × SMs × boost clock
        per_clk = h800.tc_flops_per_clk_sm("fp16")
        rebuilt = per_clk * h800.num_sms * h800.clocks.boost_hz / 1e12
        assert rebuilt == pytest.approx(756.5, rel=1e-9)

    def test_observed_clock_above_boost_only_on_4090(
            self, a100, rtx4090, h800):
        assert rtx4090.clocks.observed_sm_mhz > rtx4090.clocks.boost_sm_mhz
        assert a100.clocks.observed_sm_mhz == a100.clocks.boost_sm_mhz
        assert h800.clocks.observed_sm_mhz == h800.clocks.boost_sm_mhz

    def test_with_overrides(self, h800):
        derived = h800.with_overrides(power_cap_watts=700.0)
        assert derived.power_cap_watts == 700.0
        assert h800.power_cap_watts == 350.0
        assert derived.num_sms == h800.num_sms

    def test_global_latency_composition(self, any_device):
        lat = any_device.mem_latencies
        assert lat.global_clk == pytest.approx(
            lat.l2_hit_clk + lat.dram_clk
        )


class TestValidation:
    def test_clock_validation(self):
        for boost in (-1, 0):
            with pytest.raises(ValueError, match="must be positive"):
                ClockDomain(boost_sm_mhz=boost, observed_sm_mhz=100,
                            memory_mhz=100)

    def test_cache_geometry_validation(self):
        with pytest.raises(ValueError, match="multiple of sector"):
            CacheGeometry(l1_size_kib=128, shared_max_kib=100,
                          l2_size_kib=1024, line_bytes=100,
                          sector_bytes=32)
        with pytest.raises(ValueError):
            CacheGeometry(l1_size_kib=0, shared_max_kib=100,
                          l2_size_kib=1024)

    def test_latency_ordering_enforced(self):
        with pytest.raises(ValueError, match="shared <= L1 <= L2"):
            MemoryLatencies(shared_clk=50, l1_hit_clk=40,
                            l2_hit_clk=260, dram_clk=200)

    def test_widths_must_be_positive(self):
        with pytest.raises(ValueError):
            MemoryWidths(l1_bytes_per_clk_sm=0,
                         smem_bytes_per_clk_sm=128,
                         l2_bytes_per_clk=2000, lsu_issue_per_clk=1,
                         fp64_add_bytes_per_clk_sm=16)
        with pytest.raises(ValueError, match="access efficiency"):
            MemoryWidths(l1_bytes_per_clk_sm=128,
                         smem_bytes_per_clk_sm=128,
                         l2_bytes_per_clk=2000, lsu_issue_per_clk=1,
                         fp64_add_bytes_per_clk_sm=16,
                         access_efficiency={("l2", "FP32"): 0.0})

    def test_cluster_requires_dsm(self, a100):
        with pytest.raises(ValueError, match="clusters require"):
            a100.with_overrides(max_cluster_size=8)

    def test_tensor_core_validation(self):
        with pytest.raises(ValueError, match="count must be positive"):
            TensorCoreSpec(count=0)
        with pytest.raises(ValueError, match="must be positive"):
            TensorCoreSpec(count=4, dense_peak_tflops={"fp16": -1.0})


class TestDramSpec:
    def test_effective_bandwidth_below_peak(self, any_device):
        d = any_device.dram
        assert d.effective_bandwidth_gbps(1.0) < d.peak_bandwidth_gbps

    def test_mixed_stream_pays_turnaround(self, h800):
        d = h800.dram
        assert (d.effective_bandwidth_gbps(0.5)
                < d.effective_bandwidth_gbps(1.0))
        # symmetric in read fraction
        assert d.effective_bandwidth_gbps(0.3) == pytest.approx(
            d.effective_bandwidth_gbps(0.7))

    def test_read_fraction_validated(self, h800):
        with pytest.raises(ValueError):
            h800.dram.effective_bandwidth_gbps(1.5)

    def test_refresh_overhead_bounds(self):
        with pytest.raises(ValueError, match="refresh_overhead"):
            DramSpec(size_gib=8, mem_type="HBM", bus_width_bits=1024,
                     peak_bandwidth_gbps=1000, refresh_overhead=0.9)
