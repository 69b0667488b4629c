"""Tests for DPX intrinsic semantics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dpx import (
    DPX_FUNCTIONS,
    get_dpx_function,
    pack_s16x2,
    unpack_s16x2,
)

s32 = st.integers(min_value=-(2 ** 31), max_value=2 ** 31 - 1)
s16 = st.integers(min_value=-(2 ** 15), max_value=2 ** 15 - 1)
u32 = st.integers(min_value=0, max_value=2 ** 32 - 1)


class TestPacking:
    def test_roundtrip(self):
        v = pack_s16x2(-5, 1000)
        hi, lo = unpack_s16x2(v)
        assert (int(hi), int(lo)) == (-5, 1000)

    def test_known_value(self):
        assert int(pack_s16x2(1, 2)) == 0x00010002
        assert int(pack_s16x2(-1, 0)) == -65536  # 0xFFFF0000 as s32

    @settings(max_examples=200, deadline=None)
    @given(s16, s16)
    def test_roundtrip_property(self, hi, lo):
        h, l = unpack_s16x2(pack_s16x2(hi, lo))
        assert (int(h), int(l)) == (hi, lo)


class TestScalarSemantics:
    def test_vimax_vimin(self):
        f = get_dpx_function("__vimax_s32")
        assert int(f(3, -7)) == 3
        g = get_dpx_function("__vimin_s32")
        assert int(g(3, -7)) == -7

    def test_max3_relu(self):
        f = get_dpx_function("__vimax3_s32_relu")
        assert int(f(-5, -2, -9)) == 0
        assert int(f(-5, 7, -9)) == 7

    def test_min3(self):
        f = get_dpx_function("__vimin3_s32")
        assert int(f(4, -2, 9)) == -2

    def test_viaddmax_semantics(self):
        f = get_dpx_function("__viaddmax_s32")
        # max(s1+s2, s3) — the paper's running example
        assert int(f(2, 3, 10)) == 10
        assert int(f(20, 3, 10)) == 23

    def test_viaddmax_wraps_like_hardware(self):
        f = get_dpx_function("__viaddmax_s32")
        assert int(f(2 ** 31 - 1, 1, 0)) == 0  # overflow wraps negative

    def test_viaddmax_u32_unsigned_compare(self):
        f = get_dpx_function("__viaddmax_u32")
        assert int(f(2 ** 32 - 2, 1, 5)) == 2 ** 32 - 1
        assert int(f(2 ** 32 - 1, 1, 5)) == 5  # wrapped to 0

    def test_vibmax_returns_predicate(self):
        f = get_dpx_function("__vibmax_s32")
        v, pred = f(np.array([3, -1]), np.array([2, 5]))
        assert list(v) == [3, 5]
        assert list(pred) == [True, False]

    def test_arity_checked(self):
        with pytest.raises(TypeError):
            get_dpx_function("__vimax_s32")(1, 2, 3)

    def test_unknown_function(self):
        with pytest.raises(KeyError):
            get_dpx_function("__vimax_s64")


class TestPackedSemantics:
    def test_lanes_independent(self):
        f = get_dpx_function("__vimax3_s16x2")
        a = pack_s16x2(10, -10)
        b = pack_s16x2(-5, 20)
        c = pack_s16x2(0, 0)
        hi, lo = unpack_s16x2(f(a, b, c))
        assert (int(hi), int(lo)) == (10, 20)

    def test_relu_per_lane(self):
        f = get_dpx_function("__vimax3_s16x2_relu")
        a = pack_s16x2(-9, 5)
        b = pack_s16x2(-3, -1)
        c = pack_s16x2(-7, 2)
        hi, lo = unpack_s16x2(f(a, b, c))
        assert (int(hi), int(lo)) == (0, 5)

    def test_viaddmax_s16x2_wraps_16bit(self):
        f = get_dpx_function("__viaddmax_s16x2")
        a = pack_s16x2(32767, 0)
        b = pack_s16x2(1, 0)
        c = pack_s16x2(-100, 3)
        hi, lo = unpack_s16x2(f(a, b, c))
        assert int(hi) == -100   # 32767+1 wraps to -32768 < -100
        assert int(lo) == 3
        # the packed ReLU variant runs vectorized over 64k lanes
        rng = np.random.default_rng(0)
        lanes = [pack_s16x2(rng.integers(-100, 100, 65536),
                            rng.integers(-100, 100, 65536))
                 for _ in range(3)]
        out = get_dpx_function("__viaddmax_s16x2_relu")(*lanes)
        assert out.shape == (65536,)

    @settings(max_examples=200, deadline=None)
    @given(s16, s16, s16, s16, s16, s16)
    def test_packed_max3_matches_scalar(self, a0, a1, b0, b1, c0, c1):
        f = get_dpx_function("__vimax3_s16x2")
        hi, lo = unpack_s16x2(f(pack_s16x2(a0, a1), pack_s16x2(b0, b1),
                                pack_s16x2(c0, c1)))
        assert int(hi) == max(a0, b0, c0)
        assert int(lo) == max(a1, b1, c1)


class TestHypothesisScalar:
    @settings(max_examples=200, deadline=None)
    @given(s32, s32, s32)
    def test_max3_reference(self, a, b, c):
        f = get_dpx_function("__vimax3_s32")
        assert int(f(a, b, c)) == max(a, b, c)

    @settings(max_examples=200, deadline=None)
    @given(s32, s32, s32)
    def test_viaddmax_reference(self, a, b, c):
        f = get_dpx_function("__viaddmax_s32")
        wrapped = (a + b + 2 ** 31) % 2 ** 32 - 2 ** 31
        assert int(f(a, b, c)) == max(wrapped, c)

    @settings(max_examples=200, deadline=None)
    @given(s32, s32, s32)
    def test_relu_clamps(self, a, b, c):
        f = get_dpx_function("__vimax3_s32_relu")
        assert int(f(a, b, c)) == max(a, b, c, 0)


class TestRegistryMetadata:
    def test_all_have_lowerings(self):
        for fn in DPX_FUNCTIONS.values():
            assert fn.hw_instruction_count >= 1
            assert fn.emu_instruction_count >= fn.hw_instruction_count
            assert 1 <= fn.emu_critical_path <= fn.emu_instruction_count

    def test_packed_emulation_is_expensive(self):
        simple = DPX_FUNCTIONS["__vimax_s32"]
        packed = DPX_FUNCTIONS["__viaddmax_s16x2_relu"]
        assert packed.emu_instruction_count \
            >= 10 * simple.emu_instruction_count

    def test_vibmax_marked_unmeasurable(self):
        assert DPX_FUNCTIONS["__vibmax_s32"].emu_optimized_away
        assert not DPX_FUNCTIONS["__vimax3_s32"].emu_optimized_away

    def test_family_coverage(self):
        names = set(DPX_FUNCTIONS)
        assert {"__vimax_s32", "__vimin_s32", "__vimax3_s32",
                "__vimin3_s32", "__viaddmax_s32", "__viaddmin_s32",
                "__viaddmax_u32", "__vibmax_s32",
                "__vimax3_s16x2", "__viaddmax_s16x2_relu"} <= names
