"""Tests for the PTX → SASS lowering pass (Table VI)."""

from __future__ import annotations

import pytest

from repro.arch.packs import ADA, AMPERE, HOPPER
from repro.isa import (
    FunctionalUnit,
    MatrixShape,
    MmaInstruction,
    WgmmaInstruction,
    lower,
    sass_table,
)
from repro.isa.dtypes import DType
from repro.isa.lowering import UnsupportedInstruction

H = HOPPER
A = AMPERE
L = ADA


def _mma(ab, cd, shape, sparse=False):
    return MmaInstruction(ab, cd, MatrixShape(*shape), sparse=sparse)


class TestMmaLowering:
    def test_fp16_names(self):
        lo = lower(_mma(DType.FP16, DType.FP16, (16, 8, 16)), H)
        assert lo.primary.mnemonic == "HMMA.16816.F16"
        lo = lower(_mma(DType.FP16, DType.FP32, (16, 8, 8)), A)
        assert lo.primary.mnemonic == "HMMA.1688.F32"

    def test_tf32_suffix(self):
        lo = lower(_mma(DType.TF32, DType.FP32, (16, 8, 8)), H)
        assert lo.primary.mnemonic == "HMMA.1688.F32.TF32"

    def test_bf16_suffix(self):
        lo = lower(_mma(DType.BF16, DType.FP32, (16, 8, 16)), H)
        assert lo.primary.mnemonic == "HMMA.16816.F32.BF16"

    def test_int8(self):
        lo = lower(_mma(DType.INT8, DType.INT32, (16, 8, 32)), L)
        assert lo.primary.mnemonic == "IMMA.16832.S8.S8"

    def test_binary(self):
        lo = lower(_mma(DType.BIN1, DType.INT32, (16, 8, 256)), H)
        assert lo.primary.mnemonic == "BMMA.168256.AND.POPC"

    def test_fp64(self):
        lo = lower(_mma(DType.FP64, DType.FP64, (8, 8, 4)), A)
        assert lo.primary.mnemonic == "DMMA.884.F64"

    def test_sparse_marker(self):
        lo = lower(_mma(DType.FP16, DType.FP32, (16, 8, 16), True), H)
        assert "SP." in lo.primary.mnemonic
        assert "16832" in lo.primary.mnemonic  # k doubled in SASS name

    def test_int4_on_ampere_ada_uses_imma(self):
        for arch in (A, L):
            lo = lower(_mma(DType.INT4, DType.INT32, (16, 8, 32)), arch)
            assert lo.primary.mnemonic == "IMMA.16832.S4.S4"
            assert lo.uses_tensor_core

    def test_int4_on_hopper_falls_to_cuda_cores(self):
        lo = lower(_mma(DType.INT4, DType.INT32, (16, 8, 64)), H)
        assert lo.primary.mnemonic == "IMAD.MOV.U32"
        assert not lo.uses_tensor_core
        assert lo.primary.unit is FunctionalUnit.CUDA_CORE_INT
        # a 16×8×64 tile needs one 32-lane IMAD per 32 scalar MACs
        assert lo.instruction_count == 16 * 8 * 64 // 32

    def test_fp8_mma_does_not_exist(self):
        for arch in (A, L, H):
            with pytest.raises(UnsupportedInstruction, match="FP8"):
                # construct bypassing MmaInstruction validation is not
                # possible — FP8 has no mma shapes at all
                from repro.isa.lowering import _lower_mma
                class _Fake:
                    ab_type = DType.E4M3
                    cd_type = DType.FP16
                _lower_mma(_Fake(), arch)


class TestWgmmaLowering:
    def test_hopper_only(self):
        w = WgmmaInstruction(DType.FP16, DType.FP32, 256)
        for arch in (A, L):
            with pytest.raises(UnsupportedInstruction, match="Hopper"):
                lower(w, arch)

    def test_hgmma(self):
        lo = lower(WgmmaInstruction(DType.FP16, DType.FP16, 256), H)
        assert lo.primary.mnemonic == "HGMMA.64x256x16.F16"

    def test_qgmma_variants(self):
        for dt, tag in ((DType.E4M3, "E4M3"), (DType.E5M2, "E5M2")):
            lo = lower(WgmmaInstruction(dt, DType.FP32, 256), H)
            assert lo.primary.mnemonic == \
                f"QGMMA.64x256x32.F32.{tag}.{tag}"

    def test_igmma_bgmma(self):
        lo = lower(WgmmaInstruction(DType.INT8, DType.INT32, 256), H)
        assert lo.primary.mnemonic == "IGMMA.64x256x32.S8.S8"
        lo = lower(WgmmaInstruction(DType.BIN1, DType.INT32, 256), H)
        assert lo.primary.mnemonic == "BGMMA.64x256x256.AND.POPC"

    def test_shape_in_name_follows_n(self):
        lo = lower(WgmmaInstruction(DType.FP16, DType.FP32, 64), H)
        assert "64x64x16" in lo.primary.mnemonic

    def test_sparse_name_doubles_k(self):
        lo = lower(WgmmaInstruction(DType.FP16, DType.FP32, 256,
                                    sparse=True), H)
        assert "SP." in lo.primary.mnemonic
        assert "64x256x32" in lo.primary.mnemonic


class TestMemoryOpLowering:
    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            lower(object(), H)


class TestSassTable:
    def test_matches_paper_table6(self):
        assert len(sass_table(H)) == 10
        rows = {(r["A/B"], r["C/D"]): r for r in sass_table(H)}
        assert rows[("FP16", "FP16")]["mma"] == "HMMA.16816.F16"
        assert rows[("FP16", "FP16")]["wgmma"] == "HGMMA.64x256x16.F16"
        assert rows[("TF32", "FP32")]["wgmma"] == \
            "HGMMA.64x256x8.F32.TF32"
        assert rows[("FP8 (E5M2)", "FP16")]["wgmma"] == \
            "QGMMA.64x256x32.F16.E5M2.E5M2"
        assert rows[("INT4", "INT32")]["mma"] == "IMAD.MOV.U32"
        assert rows[("INT4", "INT32")]["wgmma"] == "×"
        assert rows[("FP8 (E4M3)", "FP32")]["mma"] == "×"

    def test_ampere_table_has_no_wgmma(self):
        rows = sass_table(A)
        assert all(r["wgmma"] == "×" for r in rows)

    def test_ampere_int4_stays_on_tensor_core(self):
        rows = {(r["A/B"], r["C/D"]): r for r in sass_table(A)}
        assert rows[("INT4", "INT32")]["mma"] == "IMMA.16864.S4.S4"
