"""Tests for 2:4 structured sparsity."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.tensorcore import (
    SparseOperand,
    compress_2_4,
    decompress_2_4,
    prune_2_4,
    sparsity_pattern_valid,
)


class TestPrune:
    def test_keeps_two_largest_per_group(self):
        a = np.array([[1.0, -5.0, 3.0, 0.5]])
        p = prune_2_4(a)
        assert list(p[0]) == [0.0, -5.0, 3.0, 0.0]

    def test_ties_keep_earlier(self):
        a = np.array([[2.0, 2.0, 2.0, 2.0]])
        p = prune_2_4(a)
        assert list(p[0]) == [2.0, 2.0, 0.0, 0.0]

    def test_already_sparse_unchanged(self):
        a = np.array([[0.0, 7.0, 0.0, -3.0, 1.0, 0.0, 0.0, 2.0]])
        assert np.array_equal(prune_2_4(a), a)

    def test_validates_shape(self):
        with pytest.raises(ValueError, match="multiple of 4"):
            prune_2_4(np.ones((2, 6)))
        with pytest.raises(ValueError, match="2-D"):
            prune_2_4(np.ones(8))

    def test_pattern_validity(self):
        assert sparsity_pattern_valid(np.zeros((2, 8)))
        assert not sparsity_pattern_valid(np.ones((2, 8)))
        assert sparsity_pattern_valid(prune_2_4(np.ones((2, 8))))


class TestCompressDecompress:
    def test_roundtrip_of_pruned(self):
        rng = np.random.default_rng(0)
        a = prune_2_4(rng.normal(size=(16, 32)))
        op = compress_2_4(a)
        assert op.values.shape == (16, 16)
        assert np.array_equal(decompress_2_4(op), a)

    def test_compress_prunes_dense_input(self):
        a = np.random.default_rng(1).normal(size=(8, 16))
        op = compress_2_4(a)
        back = decompress_2_4(op)
        assert sparsity_pattern_valid(back)
        assert np.array_equal(back, prune_2_4(a))
        big = np.random.default_rng(1).normal(size=(256, 512))
        assert compress_2_4(big).values.shape == (256, 256)

    def test_metadata_range(self):
        a = np.random.default_rng(2).normal(size=(4, 8))
        op = compress_2_4(a)
        assert op.metadata.dtype == np.uint8
        assert op.metadata.max() < 4

    def test_metadata_bytes(self):
        op = compress_2_4(np.ones((16, 32)))
        # 2 bits per kept element: 16 rows × 16 kept × 2 bits
        assert op.compressed_bytes == 16 * 16 * 2 / 8

    def test_operand_validation(self):
        with pytest.raises(ValueError, match="shapes differ"):
            SparseOperand(np.ones((2, 4)), np.zeros((2, 3),
                                                    dtype=np.uint8), 8)
        with pytest.raises(ValueError, match="k/2"):
            SparseOperand(np.ones((2, 4)), np.zeros((2, 4),
                                                    dtype=np.uint8), 16)
        with pytest.raises(ValueError, match=r"\[0, 4\)"):
            SparseOperand(np.ones((1, 2)),
                          np.array([[0, 5]], dtype=np.uint8), 4)

    @settings(max_examples=100, deadline=None)
    @given(hnp.arrays(np.float64, (8, 16),
                      elements=st.floats(-1e6, 1e6)))
    def test_roundtrip_property(self, a):
        pruned = prune_2_4(a)
        assert sparsity_pattern_valid(pruned)
        assert np.array_equal(decompress_2_4(compress_2_4(pruned)),
                              pruned)

    @settings(max_examples=100, deadline=None)
    @given(hnp.arrays(np.float64, (4, 12),
                      elements=st.floats(-100, 100)))
    def test_prune_preserves_largest_energy(self, a):
        pruned = prune_2_4(a)
        # pruning keeps at least half the groups' L2 energy (it keeps
        # the 2 largest of 4)
        assert np.sum(pruned ** 2) >= 0.5 * np.sum(a ** 2) - 1e-9

    @settings(max_examples=50, deadline=None)
    @given(hnp.arrays(np.float64, (4, 8),
                      elements=st.floats(-100, 100)))
    def test_prune_idempotent(self, a):
        once = prune_2_4(a)
        assert np.array_equal(prune_2_4(once), once)
