"""Tests for the functional tensor-core execution engine."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.isa import WgmmaInstruction
from repro.isa.dtypes import DType
from repro.numerics import FP16
from repro.tensorcore import (
    compress_2_4,
    decompress_2_4,
    matmul_quantized,
    prune_2_4,
    wgmma_functional,
)


def _rand(shape, seed=0, scale=1.0):
    return np.random.default_rng(seed).normal(size=shape) * scale


class TestMatmulQuantized:
    def test_exact_small_integers(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        d = matmul_quantized(a, b, ab_type=DType.FP16,
                             cd_type=DType.FP32)
        assert np.array_equal(d, a @ b)

    def test_inputs_quantized_to_format(self):
        # a value not representable in FP16 must be rounded first
        a = np.array([[1.0 + 2 ** -13]])
        b = np.array([[1.0]])
        d = matmul_quantized(a, b, ab_type=DType.FP16,
                             cd_type=DType.FP32)
        assert float(d[0, 0]) == 1.0

    def test_tf32_truncation_visible(self):
        a = np.array([[1.0 + 2 ** -12]])  # fits TF32 (10 mantissa bits)?
        b = np.array([[1.0]])
        d32 = matmul_quantized(a, b, ab_type=DType.TF32,
                               cd_type=DType.FP32)
        # 2^-12 < 2^-10 ulp → truncated away
        assert float(d32[0, 0]) == 1.0

    def test_fp16_accumulator_rounds_stepwise(self):
        # accumulating 1.0 + many tiny values in FP16 loses them;
        # FP32 accumulation keeps them.
        k = 64
        a = np.ones((1, k))
        b = np.full((k, 1), 2 ** -12)
        b[0, 0] = 1.0
        d16 = matmul_quantized(a, b, ab_type=DType.FP16,
                               cd_type=DType.FP16)
        d32 = matmul_quantized(a, b, ab_type=DType.FP16,
                               cd_type=DType.FP32)
        assert float(d16[0, 0]) == 1.0              # swallowed
        assert float(d32[0, 0]) > 1.0               # preserved

    def test_c_operand_added(self):
        a = np.eye(4)
        b = np.eye(4)
        c = np.full((4, 4), 2.0)
        d = matmul_quantized(a, b, ab_type=DType.FP16,
                             cd_type=DType.FP32, c=c)
        assert np.array_equal(d, np.eye(4) + 2.0)

    def test_int8_exact(self):
        a = np.array([[127.0, -128.0]])
        b = np.array([[2.0], [3.0]])
        d = matmul_quantized(a, b, ab_type=DType.INT8,
                             cd_type=DType.INT32)
        assert float(d[0, 0]) == 127 * 2 - 128 * 3

    def test_int8_range_enforced(self):
        with pytest.raises(ValueError, match="range"):
            matmul_quantized(np.array([[200.0]]), np.array([[1.0]]),
                             ab_type=DType.INT8, cd_type=DType.INT32)

    def test_int32_accumulator_wraps(self):
        k = 300
        a = np.full((1, k), 127.0)
        b = np.full((k, 1), 127.0)
        d = matmul_quantized(a, b, ab_type=DType.INT8,
                             cd_type=DType.INT32)
        expected = (127 * 127 * k + 2 ** 31) % 2 ** 32 - 2 ** 31
        assert float(d[0, 0]) == expected

    def test_binary_and_popcount(self):
        a = np.array([[1.0, 1.0, 0.0, 1.0]])
        b = np.array([[1.0], [0.0], [1.0], [1.0]])
        d = matmul_quantized(a, b, ab_type=DType.BIN1,
                             cd_type=DType.INT32)
        assert float(d[0, 0]) == 2.0  # AND + POPC

    def test_binary_rejects_non_bits(self):
        with pytest.raises(ValueError, match="0/1"):
            matmul_quantized(np.array([[2.0]]), np.array([[1.0]]),
                             ab_type=DType.BIN1, cd_type=DType.INT32)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="inner dimensions"):
            matmul_quantized(np.ones((2, 3)), np.ones((4, 2)),
                             ab_type=DType.FP16, cd_type=DType.FP32)

    def test_fp8_inputs(self):
        a = _rand((8, 8), scale=4.0)
        b = _rand((8, 8), 1, scale=4.0)
        d = matmul_quantized(a, b, ab_type=DType.E4M3,
                             cd_type=DType.FP32)
        rel = np.abs(d - a @ b) / (np.abs(a @ b) + 1e-9)
        assert np.median(rel) < 0.2   # coarse FP8 grid

    @settings(max_examples=50, deadline=None)
    @given(hnp.arrays(np.float64, (4, 8),
                      elements=st.floats(-100, 100)),
           hnp.arrays(np.float64, (8, 4),
                      elements=st.floats(-100, 100)))
    def test_fp16_in_fp32_acc_close_to_exact(self, a, b):
        d = matmul_quantized(a, b, ab_type=DType.FP16,
                             cd_type=DType.FP32)
        aq = FP16.quantize(a)
        bq = FP16.quantize(b)
        ref = np.float32(aq) @ np.float32(bq)
        assert np.allclose(d, ref, rtol=1e-5, atol=1e-3)


class TestInstructionWrappers:
    def test_sparse_mma_uses_effective_shape(self):
        # the sparse wgmma pipeline: prune, compress, decompress, MMA
        w = WgmmaInstruction(DType.FP16, DType.FP32, 64, sparse=True)
        op = compress_2_4(prune_2_4(_rand((64, 32), 6)))
        d = wgmma_functional(w, decompress_2_4(op), _rand((32, 64), 7))
        assert d.shape == (64, 64)

    def test_wgmma_accumulates_into_d(self):
        w = WgmmaInstruction(DType.FP16, DType.FP32, 8)
        a = np.ones((64, 16))
        b = np.ones((16, 8))
        d0 = np.full((64, 8), 10.0)
        d = wgmma_functional(w, a, b, d=d0)
        assert np.allclose(d, 26.0)  # 16 + 10
        w64 = WgmmaInstruction(DType.FP16, DType.FP32, 64)
        assert wgmma_functional(w64, _rand((64, 16), 8),
                                _rand((16, 64), 9)).shape == (64, 64)

    def test_wgmma_shape_errors(self):
        w = WgmmaInstruction(DType.FP16, DType.FP32, 16)
        with pytest.raises(ValueError, match="A must be"):
            wgmma_functional(w, np.ones((32, 16)), np.ones((16, 16)))
        with pytest.raises(ValueError, match="D must be"):
            wgmma_functional(w, np.ones((64, 16)), np.ones((16, 16)),
                             d=np.ones((64, 8)))
