"""Tests for tensor-core timing against Tables VII–X."""

from __future__ import annotations

import pytest

from repro.arch import get_device
from repro.isa import (
    MatrixShape,
    MmaInstruction,
    OperandSource,
    WgmmaInstruction,
)
from repro.isa.dtypes import DType
from repro.isa.lowering import UnsupportedInstruction
from repro.isa.mma import valid_wgmma_n
from repro.tensorcore import TensorCoreTimingModel

SS = OperandSource.SHARED
RS = OperandSource.REGISTER


def mma(ab, cd, shape, sparse=False):
    return MmaInstruction(ab, cd, MatrixShape(*shape), sparse=sparse)


#: Table VII reference (LAT, dense TFLOPS, sparse TFLOPS) subsets
PAPER_MMA = {
    ("A100", DType.FP16, DType.FP16, (16, 8, 16)): (24.6, 310.6, 622.8),
    ("A100", DType.TF32, DType.FP32, (16, 8, 8)): (26.3, 151.5, 301.5),
    ("A100", DType.INT8, DType.INT32, (16, 8, 32)): (26.0, 607.6, 1210),
    ("RTX4090", DType.FP16, DType.FP16, (16, 8, 16)): (24.6, 357.6,
                                                       711.8),
    ("RTX4090", DType.FP16, DType.FP32, (16, 8, 16)): (33.0, 178.9,
                                                       356.0),
    ("RTX4090", DType.TF32, DType.FP32, (16, 8, 8)): (33.4, 89.0, 178.7),
    ("H800", DType.FP16, DType.FP16, (16, 8, 16)): (24.1, 494.4, 722.8),
    ("H800", DType.INT8, DType.INT32, (16, 8, 32)): (24.0, 977.9, 1435),
}


class TestMmaTiming:
    @pytest.mark.parametrize("key", sorted(PAPER_MMA, key=str))
    def test_matches_table7(self, key):
        dev, ab, cd, shape = key
        lat, dense, sparse = PAPER_MMA[key]
        tm = TensorCoreTimingModel(get_device(dev))
        d = tm.mma(mma(ab, cd, shape))
        s = tm.mma(mma(ab, cd, shape, sparse=True))
        assert d.latency_clk == pytest.approx(lat, rel=0.06)
        assert d.throughput_tflops() == pytest.approx(dense, rel=0.06)
        assert s.throughput_tflops() == pytest.approx(sparse, rel=0.06)

    def test_hopper_mma_fraction_of_peak(self, h800):
        tm = TensorCoreTimingModel(h800)
        t = tm.mma(mma(DType.FP16, DType.FP16, (16, 8, 16)))
        assert 0.6 < t.fraction_of_peak() < 0.7

    def test_a100_saturates(self, a100):
        tm = TensorCoreTimingModel(a100)
        t = tm.mma(mma(DType.FP16, DType.FP16, (16, 8, 16)))
        assert t.fraction_of_peak() > 0.95

    def test_sparse_latency_equals_dense(self, any_device):
        tm = TensorCoreTimingModel(any_device)
        d = tm.mma(mma(DType.INT8, DType.INT32, (16, 8, 32)))
        s = tm.mma(mma(DType.INT8, DType.INT32, (16, 8, 32), True))
        assert d.latency_clk == s.latency_clk

    def test_ada_fp32_acc_half_rate(self, rtx4090):
        tm = TensorCoreTimingModel(rtx4090)
        f16 = tm.mma(mma(DType.FP16, DType.FP16, (16, 8, 16)))
        f32 = tm.mma(mma(DType.FP16, DType.FP32, (16, 8, 16)))
        assert f32.throughput_tflops() == pytest.approx(
            f16.throughput_tflops() / 2, rel=0.01)

    def test_int4_on_hopper_is_slow(self, h800, a100):
        i = mma(DType.INT4, DType.INT32, (16, 8, 64))
        hopper = TensorCoreTimingModel(h800).mma(i)
        ampere = TensorCoreTimingModel(a100).mma(i)
        assert not hopper.on_tensor_core
        assert ampere.on_tensor_core
        # Hopper INT4 runs on CUDA cores: orders of magnitude slower
        assert hopper.throughput_tflops() < 0.05 * 1513
        assert hopper.latency_clk > 100

    def test_issue_interval_positive(self, any_device):
        tm = TensorCoreTimingModel(any_device)
        t = tm.mma(mma(DType.FP16, DType.FP32, (16, 8, 8)))
        assert t.issue_interval_clk > 0

    def test_rand_does_not_throttle_mma(self, h800):
        tm = TensorCoreTimingModel(h800)
        t = tm.mma(mma(DType.FP16, DType.FP16, (16, 8, 16)))
        assert t.throughput_tflops("rand") == pytest.approx(
            t.throughput_tflops("zero"), rel=1e-6)


#: Table VIII/IX spot references: (ss_lat, ss_thpt, rs_lat, rs_thpt)
PAPER_WGMMA = {
    (DType.FP16, DType.FP16, False): (128.0, 729.3, 128.0, 729.2),
    (DType.TF32, DType.FP32, False): (128.0, 364.4, 128.0, 364.6),
    (DType.E4M3, DType.FP32, False): (128.0, 1447.5, 128.0, 1455.0),
    (DType.FP16, DType.FP32, True): (144.0, 1312.3, 128.0, 1476.2),
    (DType.INT8, DType.INT32, True): (144.0, 2612.4, 128.0, 2933.0),
}


class TestWgmmaTiming:
    def test_requires_hopper(self, a100):
        with pytest.raises(UnsupportedInstruction):
            TensorCoreTimingModel(a100).wgmma(
                WgmmaInstruction(DType.FP16, DType.FP32, 256))

    @pytest.mark.parametrize("key", sorted(PAPER_WGMMA, key=str))
    def test_matches_tables_8_9(self, key, h800):
        ab, cd, sparse = key
        ss_lat, ss_thpt, rs_lat, rs_thpt = PAPER_WGMMA[key]
        tm = TensorCoreTimingModel(h800)
        ss = tm.wgmma(WgmmaInstruction(ab, cd, 256, sparse=sparse,
                                       a_source=SS))
        rs = tm.wgmma(WgmmaInstruction(ab, cd, 256, sparse=sparse,
                                       a_source=RS))
        assert ss.latency_clk == ss_lat
        assert rs.latency_clk == rs_lat
        assert ss.throughput_tflops() == pytest.approx(ss_thpt, rel=0.04)
        assert rs.throughput_tflops() == pytest.approx(rs_thpt, rel=0.04)

    def test_dense_latency_is_half_n(self, h800):
        tm = TensorCoreTimingModel(h800)
        for n in (64, 128, 256):
            t = tm.wgmma(WgmmaInstruction(DType.FP16, DType.FP32, n,
                                          a_source=RS))
            assert t.latency_clk == n / 2

    def test_latency_floor_at_small_n(self, h800):
        tm = TensorCoreTimingModel(h800)
        t8 = tm.wgmma(WgmmaInstruction(DType.FP16, DType.FP32, 8,
                                       a_source=RS))
        t16 = tm.wgmma(WgmmaInstruction(DType.FP16, DType.FP32, 16,
                                        a_source=RS))
        assert t8.latency_clk == t16.latency_clk == 13.0

    def test_sparse_ss_extra_is_unpruned_a_traffic(self, h800):
        """144 − 128 = m·k·bytes / smem width for EVERY dtype."""
        tm = TensorCoreTimingModel(h800)
        for ab, cd in ((DType.FP16, DType.FP32),
                       (DType.TF32, DType.FP32),
                       (DType.E4M3, DType.FP32),
                       (DType.INT8, DType.INT32)):
            t = tm.wgmma(WgmmaInstruction(ab, cd, 256, sparse=True,
                                          a_source=SS))
            assert t.latency_clk == 144.0, ab

    def test_zero_init_fraction_of_peak(self, h800):
        tm = TensorCoreTimingModel(h800)
        t = tm.wgmma(WgmmaInstruction(DType.E4M3, DType.FP16, 256,
                                      a_source=SS))
        assert t.fraction_of_peak() > 0.95

    def test_rand_throttles_wgmma(self, h800):
        tm = TensorCoreTimingModel(h800)
        t = tm.wgmma(WgmmaInstruction(DType.FP16, DType.FP32, 256,
                                      a_source=SS))
        drop = t.throughput_tflops("rand") / t.throughput_tflops("zero")
        assert 0.85 < drop < 0.95  # paper: 665.4 / 728.5 ≈ 0.913
        for ab, cd in ((DType.FP16, DType.FP16), (DType.FP16, DType.FP32),
                       (DType.TF32, DType.FP32), (DType.E4M3, DType.FP32),
                       (DType.INT8, DType.INT32)):
            assert tm.wgmma(WgmmaInstruction(ab, cd, 256)) \
                .throughput_tflops("rand") > 0

    def test_nsweep_throughput_monotone(self, h800):
        tm = TensorCoreTimingModel(h800)
        vals = [
            tm.wgmma(WgmmaInstruction(DType.FP16, DType.FP32, n,
                                      a_source=SS)).throughput_tflops()
            for n in (8, 16, 32, 64, 128, 256)
        ]
        assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 4 * vals[0]
        # Table X: every legal N prices, dense and sparse, SS and RS
        for n in valid_wgmma_n():
            for sparse in (False, True):
                for src in OperandSource:
                    assert tm.wgmma(WgmmaInstruction(
                        DType.FP16, DType.FP32, n, sparse=sparse,
                        a_source=src)).throughput_tflops() > 0

    def test_small_n_ss_worse_than_rs(self, h800):
        tm = TensorCoreTimingModel(h800)
        for n in (8, 16, 32):
            ss = tm.wgmma(WgmmaInstruction(DType.FP16, DType.FP32, n,
                                           a_source=SS))
            rs = tm.wgmma(WgmmaInstruction(DType.FP16, DType.FP32, n,
                                           a_source=RS))
            assert ss.throughput_tflops() < rs.throughput_tflops()
            assert ss.latency_clk > rs.latency_clk

    def test_large_n_ss_equals_rs(self, h800):
        tm = TensorCoreTimingModel(h800)
        ss = tm.wgmma(WgmmaInstruction(DType.FP16, DType.FP32, 128,
                                       a_source=SS))
        rs = tm.wgmma(WgmmaInstruction(DType.FP16, DType.FP32, 128,
                                       a_source=RS))
        assert ss.throughput_tflops() == pytest.approx(
            rs.throughput_tflops())

    def test_best_dense_tflops_paths(self, h800, a100, rtx4090):
        # Hopper → wgmma; Ampere → mma; Ada FP8 → library fallback
        assert TensorCoreTimingModel(h800).best_dense_tflops(
            DType.FP16, DType.FP32) > 600
        assert TensorCoreTimingModel(a100).best_dense_tflops(
            DType.FP16, DType.FP32) > 290
        assert TensorCoreTimingModel(rtx4090).best_dense_tflops(
            DType.E4M3, DType.FP32) > 500
        with pytest.raises(KeyError):
            TensorCoreTimingModel(a100).best_dense_tflops(
                DType.E4M3, DType.FP32)
