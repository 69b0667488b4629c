"""Tests for the generic kernel model and roofline."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import get_device
from repro.sm import BlockConfig, KernelModel, KernelSpec, Roofline


def _spec(**kw):
    defaults = dict(
        name="k",
        block=BlockConfig(threads=256, regs_per_thread=32),
        num_blocks=1024,
    )
    defaults.update(kw)
    return KernelSpec(**defaults)


class TestKernelSpec:
    def test_totals(self):
        s = _spec(flops_per_thread=100, dram_bytes_per_thread=50)
        assert s.total_threads == 1024 * 256
        assert s.total_flops == 100 * s.total_threads
        assert s.arithmetic_intensity == 2.0

    def test_pure_compute_intensity(self):
        s = _spec(flops_per_thread=10)
        assert s.arithmetic_intensity == float("inf")

    def test_validation(self):
        with pytest.raises(ValueError):
            _spec(num_blocks=0)
        with pytest.raises(ValueError):
            _spec(flops_per_thread=-1)
        with pytest.raises(ValueError):
            _spec(memory_ilp=0)


class TestKernelModel:
    def test_streaming_kernel_is_dram_bound(self, h800):
        m = KernelModel(h800)
        est = m.estimate(_spec(dram_bytes_per_thread=64,
                               flops_per_thread=4,
                               num_blocks=h800.num_sms * 64))
        assert est.limiter == "DRAM bandwidth"
        assert est.achieved_gbps == pytest.approx(
            h800.dram.effective_bandwidth_gbps(0.8), rel=0.02)
        # a 10..1e5 FLOP/thread ladder over the same traffic prices
        for i in range(1, 6):
            m.estimate(KernelSpec(name=f"k{i}",
                                  block=BlockConfig(threads=256),
                                  num_blocks=1024,
                                  flops_per_thread=float(10 ** i),
                                  dram_bytes_per_thread=64.0))

    def test_gemm_like_kernel_is_tc_bound(self, h800):
        m = KernelModel(h800)
        est = m.estimate(_spec(tc_flops_per_thread=1e5,
                               dram_bytes_per_thread=8,
                               num_blocks=h800.num_sms * 64))
        assert est.limiter == "tensor cores"
        assert est.achieved_tflops == pytest.approx(
            0.9 * h800.tc_peak_tflops("fp16"), rel=0.02)

    def test_underpopulated_kernel_is_latency_bound(self, h800):
        m = KernelModel(h800)
        est = m.estimate(_spec(
            block=BlockConfig(threads=32, regs_per_thread=255),
            num_blocks=h800.num_sms,
            dram_bytes_per_thread=512, memory_ilp=1.0,
        ))
        assert est.limiter == "memory latency"

    def test_partial_wave_stretches_time(self, h800):
        m = KernelModel(h800)
        full = m.estimate(_spec(
            block=BlockConfig(threads=1024, regs_per_thread=32),
            num_blocks=2 * h800.num_sms,
            flops_per_thread=1e4))
        straggler = m.estimate(_spec(
            block=BlockConfig(threads=1024, regs_per_thread=32),
            num_blocks=2 * h800.num_sms + 1,
            flops_per_thread=1e4))
        assert straggler.seconds > full.seconds
        assert straggler.waves == full.waves + 1

    def test_unlaunchable_kernel(self, h800):
        m = KernelModel(h800)
        with pytest.raises(ValueError, match="cannot launch"):
            m.estimate(_spec(block=BlockConfig(
                threads=128, smem_bytes=10 ** 7)))

    def test_resource_breakdown_complete(self, a100):
        est = KernelModel(a100).estimate(
            _spec(flops_per_thread=10, dram_bytes_per_thread=10,
                  smem_bytes_per_thread=10, tc_flops_per_thread=10))
        assert set(est.resource_seconds) == {
            "FP32 pipes", "tensor cores", "DRAM bandwidth",
            "shared memory", "memory latency"}
        assert est.seconds >= max(est.resource_seconds.values())


class TestRoofline:
    def test_ridge_points_ordered_by_balance(self):
        """H800 has the highest compute-to-bandwidth ratio at FP16."""
        ridges = {d: Roofline(get_device(d), "fp16").ridge_point
                  for d in ("A100", "RTX4090", "H800")}
        assert ridges["H800"] > ridges["A100"]
        assert ridges["RTX4090"] > ridges["A100"]

    def test_fp8_doubles_the_flat_roof(self, h800):
        fp16 = Roofline(h800, "fp16")
        fp8 = Roofline(h800, "fp8")
        assert fp8.peak_tflops == pytest.approx(2 * fp16.peak_tflops)
        assert fp8.ridge_point == pytest.approx(2 * fp16.ridge_point)

    def test_achievable_below_ridge_is_linear(self, h800):
        r = Roofline(h800)
        i = r.ridge_point / 4
        assert r.achievable_tflops(i) == pytest.approx(
            i * r.memory_bandwidth_tbps)
        assert r.classify(i) == "memory"

    def test_achievable_above_ridge_is_flat(self, h800):
        r = Roofline(h800)
        assert r.achievable_tflops(10 * r.ridge_point) \
            == r.peak_tflops
        assert r.classify(10 * r.ridge_point) == "compute"

    def test_place_kernel(self, h800):
        r = Roofline(h800)
        decode = KernelSpec(
            name="llm-decode", block=BlockConfig(threads=256),
            num_blocks=1024, tc_flops_per_thread=100,
            dram_bytes_per_thread=200)
        p = r.place(decode)
        assert p.bound == "memory"
        gemm = KernelSpec(
            name="gemm", block=BlockConfig(threads=256),
            num_blocks=1024, tc_flops_per_thread=1e6,
            dram_bytes_per_thread=10)
        assert r.place(gemm).bound == "compute"

    def test_pure_compute_placement(self, h800):
        r = Roofline(h800)
        s = KernelSpec(name="alu", block=BlockConfig(threads=64),
                       num_blocks=8, flops_per_thread=100)
        p = r.place(s)
        assert p.bound == "compute"
        assert p.achievable_tflops == r.peak_tflops

    def test_negative_intensity_rejected(self, h800):
        with pytest.raises(ValueError):
            Roofline(h800).achievable_tflops(-1)

    def test_curve_sampling(self, h800):
        r = Roofline(h800)
        c = r.curve([0.1, 1.0, 1000.0])
        assert c[0.1] < c[1.0] <= c[1000.0] == r.peak_tflops

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=0, max_value=1e5))
    def test_achievable_monotone_and_bounded(self, i):
        r = Roofline(get_device("H800"))
        v = r.achievable_tflops(i)
        assert 0 <= v <= r.peak_tflops
