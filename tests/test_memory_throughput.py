"""Tests for the memory throughput model (Table V)."""

from __future__ import annotations

import pytest

from repro.memory import MemoryThroughputModel, measure_throughputs

#: Table V reference values
PAPER_TABLE5 = {
    "RTX4090": {"l1": {"FP32": 63.7, "FP64": 13.3, "FP32.v4": 121.2},
                "l2": {"FP32": 1622.2, "FP64": 1500.8,
                       "FP32.v4": 1708.0},
                "global": 929.8, "l2_vs_global": 4.67},
    "A100": {"l1": {"FP32": 99.5, "FP64": 120.0, "FP32.v4": 106.8},
             "l2": {"FP32": 1853.7, "FP64": 1990.4, "FP32.v4": 2007.9},
             "global": 1407.2, "l2_vs_global": 2.01},
    "H800": {"l1": {"FP32": 125.8, "FP64": 16.0, "FP32.v4": 124.1},
             "l2": {"FP32": 4472.3, "FP64": 1817.3, "FP32.v4": 3942.4},
             "global": 1861.5, "l2_vs_global": 4.23},
}


class TestLimiters:
    def test_fp32_is_issue_limited_on_4090(self, rtx4090):
        m = MemoryThroughputModel(rtx4090)
        assert m.l1("FP32").limiter == "LSU issue"

    def test_v4_is_width_limited(self, any_device):
        m = MemoryThroughputModel(any_device)
        assert m.l1("FP32.v4").limiter == "L1 width"

    def test_fp64_alu_limited_on_nerfed_parts(self, rtx4090, h800):
        for d in (rtx4090, h800):
            assert MemoryThroughputModel(d).l1("FP64").limiter \
                == "FP64 unit"

    def test_fp64_not_alu_limited_on_a100(self, a100):
        assert MemoryThroughputModel(a100).l1("FP64").limiter \
            != "FP64 unit"

    def test_h800_l2_fp64_collapses_to_alus(self, h800):
        m = MemoryThroughputModel(h800)
        r = m.l2("FP64")
        assert r.limiter == "FP64 units"
        assert r.value == pytest.approx(16.0 * h800.num_sms, rel=0.01)

    def test_shared_is_bank_width(self, any_device):
        r = MemoryThroughputModel(any_device).shared()
        assert r.value == 128.0
        assert measure_throughputs(any_device)[
            "Shared (byte/clk/SM)"] == 128.0

    def test_unknown_pattern(self, h800):
        with pytest.raises(ValueError):
            MemoryThroughputModel(h800).l1("FP128")


class TestTable5Values:
    @pytest.mark.parametrize("device_name", sorted(PAPER_TABLE5))
    def test_l1_values(self, device_name):
        from repro.arch import get_device
        m = MemoryThroughputModel(get_device(device_name))
        for pattern, expect in PAPER_TABLE5[device_name]["l1"].items():
            assert m.l1(pattern).value == pytest.approx(expect,
                                                        rel=0.05), \
                (device_name, pattern)

    @pytest.mark.parametrize("device_name", sorted(PAPER_TABLE5))
    def test_l2_values(self, device_name):
        from repro.arch import get_device
        m = MemoryThroughputModel(get_device(device_name))
        for pattern, expect in PAPER_TABLE5[device_name]["l2"].items():
            assert m.l2(pattern).value == pytest.approx(expect,
                                                        rel=0.05), \
                (device_name, pattern)

    @pytest.mark.parametrize("device_name", sorted(PAPER_TABLE5))
    def test_global_bandwidth(self, device_name):
        from repro.arch import get_device
        m = MemoryThroughputModel(get_device(device_name))
        expect = PAPER_TABLE5[device_name]["global"]
        assert m.global_memory().value == pytest.approx(expect,
                                                        rel=0.02)

    @pytest.mark.parametrize("device_name", sorted(PAPER_TABLE5))
    def test_l2_vs_global_ratio(self, device_name):
        from repro.arch import get_device
        m = MemoryThroughputModel(get_device(device_name))
        expect = PAPER_TABLE5[device_name]["l2_vs_global"]
        assert m.l2_vs_global_ratio() == pytest.approx(expect, rel=0.1)

    def test_percent_of_peak_around_ninety(self, any_device):
        m = MemoryThroughputModel(any_device)
        assert 0.88 <= m.theoretical_fraction() <= 0.94

    def test_measure_throughputs_keys(self, h800):
        out = measure_throughputs(h800)
        assert "L1 FP32.v4 (byte/clk/SM)" in out
        assert "Global (GB/s)" in out
        assert "L2 vs. Global" in out


class TestMechanisms:
    def test_pure_read_faster_than_mixed(self, h800):
        m = MemoryThroughputModel(h800)
        mixed = m.global_memory(reads_per_write=1).value
        mostly_read = m.global_memory(reads_per_write=9).value
        assert mostly_read > mixed

    def test_h800_l2_beats_others(self):
        from repro.arch import get_device
        vals = {
            d: MemoryThroughputModel(get_device(d)).l2("FP32").value
            for d in PAPER_TABLE5
        }
        assert vals["H800"] > 2 * vals["A100"]
        assert vals["H800"] > 2.4 * vals["RTX4090"]
