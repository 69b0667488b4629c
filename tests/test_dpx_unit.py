"""Tests for the DPX timing model (Figs 6, 7)."""

from __future__ import annotations

import pytest

from repro.arch import get_device
from repro.dpx import DpxTimingModel, block_sweep, get_dpx_function


@pytest.fixture(scope="module")
def models():
    return {d: DpxTimingModel(get_device(d))
            for d in ("A100", "RTX4090", "H800")}


class TestLatency:
    def test_hardware_flag(self, models):
        assert models["H800"].hardware
        assert not models["A100"].hardware
        assert not models["RTX4090"].hardware

    def test_emulated_devices_identical_cycles(self, models):
        for name in ("__vimax3_s32", "__viaddmax_s16x2_relu"):
            fn = get_dpx_function(name)
            assert models["A100"].latency_clk(fn) \
                == models["RTX4090"].latency_clk(fn)

    def test_h800_never_slower(self, models):
        from repro.dpx import DPX_FUNCTIONS
        for fn in DPX_FUNCTIONS.values():
            assert models["H800"].latency_clk(fn) \
                <= models["A100"].latency_clk(fn)

    def test_simple_op_parity(self, models):
        fn = get_dpx_function("__vimax_s32")
        assert models["H800"].latency_clk(fn) \
            == models["A100"].latency_clk(fn)

    def test_latency_ns_uses_clock(self, models):
        fn = get_dpx_function("__vimax3_s32")
        # RTX4090's higher clock → fewer ns for the same cycle count
        assert models["RTX4090"].latency_ns(fn) \
            < models["A100"].latency_ns(fn)


class TestThroughput:
    def test_sixteen_bit_relu_speedup(self, models):
        fn = get_dpx_function("__viaddmax_s16x2_relu")
        s = models["H800"].speedup_vs(fn, models["A100"])
        assert 10 < s < 18  # paper: "up to 13 times"

    def test_simple_ops_close(self, models):
        fn = get_dpx_function("__viaddmax_s32")
        s = models["H800"].speedup_vs(fn, models["RTX4090"])
        assert s < 2.0

    def test_measure_flags_unmeasurable(self, models):
        fn = get_dpx_function("__vibmax_s32")
        assert not models["A100"].measure(fn).measurable
        assert models["H800"].measure(fn).measurable

    def test_throughput_gops_scaling(self, models):
        fn = get_dpx_function("__vimax3_s32")
        full = models["H800"].throughput_gops(fn)
        half = models["H800"].throughput_gops(
            fn, num_blocks=get_device("H800").num_sms // 2)
        assert half == pytest.approx(full / 2, rel=0.01)
        from repro.dpx import DPX_FUNCTIONS
        for model in models.values():
            for f in DPX_FUNCTIONS.values():
                model.throughput_gops(f)        # every cell prices


class TestSawtooth:
    def test_plummet_past_sm_multiple(self, h800):
        fn = get_dpx_function("__vimax3_s32")
        pts = {p["blocks"]: p["gops"]
               for p in block_sweep(h800, fn, max_multiple=2)}
        sms = h800.num_sms
        assert pts[sms + 1] < 0.55 * pts[sms]
        assert pts[2 * sms] == pytest.approx(pts[sms], rel=1e-9)
        # recovery between multiples
        assert pts[2 * sms - 1] > pts[sms + 1]

    def test_linear_below_sm_count(self, h800):
        fn = get_dpx_function("__vimax3_s32")
        pts = {p["blocks"]: p["gops"]
               for p in block_sweep(h800, fn, max_multiple=1)}
        assert pts[h800.num_sms // 2] == pytest.approx(
            pts[1] * (h800.num_sms // 2), rel=0.01)
        assert len(block_sweep(h800, fn, 3)) >= 9
