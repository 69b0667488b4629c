"""Tests for the async-copy pipeline model (Tables XIII/XIV) and TMA."""

from __future__ import annotations

import pytest

from repro.arch import get_device
from repro.asynccopy import (
    AsyncCopyConfig,
    CopyVariant,
    TiledMatmulModel,
    TmaModel,
    benchmark_table,
)
from repro.isa.lowering import UnsupportedInstruction
from repro.isa.memory_ops import TmaCopy

SYNC, ASYNC = CopyVariant.SYNC, CopyVariant.ASYNC


class TestConfig:
    def test_derived_quantities(self):
        cfg = AsyncCopyConfig(16, 4, SYNC)
        assert cfg.threads == 256
        assert cfg.warps == 8
        assert cfg.flops_per_step == 2 * 16 ** 3
        assert cfg.copy_bytes_per_step == 2 * 256 * 4

    def test_async_doubles_smem(self):
        s = AsyncCopyConfig(32, 1, SYNC)
        a = AsyncCopyConfig(32, 1, ASYNC, pipeline_stages=2)
        assert a.smem_bytes_per_block == 2 * s.smem_bytes_per_block

    def test_validation(self):
        with pytest.raises(ValueError):
            AsyncCopyConfig(7, 1, SYNC)
        with pytest.raises(ValueError):
            AsyncCopyConfig(8, 0, SYNC)
        with pytest.raises(ValueError):
            AsyncCopyConfig(8, 1, ASYNC, pipeline_stages=1)


class TestModelShapes:
    def test_async_wins_at_small_blocks(self, h800):
        m = TiledMatmulModel(h800)
        for nb in (1, 2, 4, 8):
            a = m.throughput_gflops(AsyncCopyConfig(8, nb, ASYNC))
            s = m.throughput_gflops(AsyncCopyConfig(8, nb, SYNC))
            assert a > 1.2 * s, nb

    def test_async_loses_at_32x32_h800(self, h800):
        m = TiledMatmulModel(h800)
        a = m.throughput_gflops(AsyncCopyConfig(32, 16, ASYNC))
        s = m.throughput_gflops(AsyncCopyConfig(32, 16, SYNC))
        assert a < s

    def test_monotone_in_blocks(self, any_device):
        m = TiledMatmulModel(any_device)
        for variant in (SYNC, ASYNC):
            vals = [m.throughput_gflops(AsyncCopyConfig(16, nb, variant))
                    for nb in (1, 2, 4, 8, 16, 32)]
            assert all(x <= y * 1.001 for x, y in zip(vals, vals[1:]))

    def test_8x8_saturates_at_dram_cap(self, h800):
        m = TiledMatmulModel(h800)
        cfg = AsyncCopyConfig(8, 32, ASYNC)
        achieved = m.flops_per_clk_sm(cfg)
        assert achieved == pytest.approx(
            m.dram_cap_flops_clk(cfg) * 0.98, rel=0.01)

    def test_32x32_saturates_at_smem_cap(self, h800):
        m = TiledMatmulModel(h800)
        cfg = AsyncCopyConfig(32, 32, ASYNC)
        assert m.flops_per_clk_sm(cfg) == pytest.approx(
            m.smem_cap_flops_clk() * 0.98, rel=0.01)

    def test_resident_blocks_capped_by_occupancy(self, h800):
        m = TiledMatmulModel(h800)
        # 32×32 = 1024 threads → at most 2 resident on H800
        assert m.resident_blocks(AsyncCopyConfig(32, 32, SYNC)) == 2

    def test_step_breakdown_totals(self, h800):
        m = TiledMatmulModel(h800)
        bd = m.step_breakdown(AsyncCopyConfig(16, 1, SYNC))
        assert bd.total_clk == pytest.approx(
            bd.compute_clk + bd.copy_issue_clk + bd.overhead_clk)
        assert bd.compute_clk == pytest.approx(2 * 16 ** 3 * 4 / 128)

    def test_fallback_path_for_uncalibrated_arch(self, rtx4090):
        # Ada is not in the calibration table → structural fallback
        m = TiledMatmulModel(rtx4090)
        a = m.throughput_gflops(AsyncCopyConfig(8, 4, ASYNC))
        s = m.throughput_gflops(AsyncCopyConfig(8, 4, SYNC))
        assert a > s > 0


class TestBenchmarkTable:
    def test_h800_gains_match_paper_shape(self, h800):
        rows = {r["block"]: r for r in benchmark_table(h800)}
        assert rows["8x8"]["perf_gain"] > 0.25
        assert rows["8x8"]["perf_gain"] > rows["16x16"]["perf_gain"] \
            > rows["32x32"]["perf_gain"]
        assert rows["32x32"]["perf_gain"] < 0.02

    def test_a100_gains_positive_but_smaller(self, a100, h800):
        assert len(benchmark_table(a100)) == 3
        assert len(benchmark_table(h800)) == 3
        a_rows = {r["block"]: r for r in benchmark_table(a100)}
        h_rows = {r["block"]: r for r in benchmark_table(h800)}
        assert a_rows["8x8"]["perf_gain"] > 0.05
        assert a_rows["8x8"]["perf_gain"] < h_rows["8x8"]["perf_gain"]

    def test_magnitudes_track_paper(self, h800):
        rows = {r["block"]: r for r in benchmark_table(h800)}
        # paper: 8×8 async @1 = 516.69; 32×32 plateau ≈ 6.6 TF
        assert rows["8x8"]["AsyncPipe"][0] == pytest.approx(517, rel=0.1)
        assert rows["32x32"]["SyncShare"][-1] == pytest.approx(
            6631, rel=0.1)


class TestTma:
    def test_hopper_only(self, a100, h800):
        with pytest.raises(UnsupportedInstruction):
            TmaModel(a100)
        TmaModel(h800)

    def test_transfer_cost(self, h800):
        m = TmaModel(h800)
        t = m.transfer(TmaCopy(tile_bytes=16384))
        assert t.issuing_instructions == 1
        assert t.cycles > 16384 / 128
        assert t.bytes_per_clk > 0

    def test_bigger_tiles_amortize_overhead(self, h800):
        m = TmaModel(h800)
        small = m.transfer(TmaCopy(tile_bytes=1024))
        big = m.transfer(TmaCopy(tile_bytes=65536))
        assert big.bytes_per_clk > small.bytes_per_clk

    def test_issue_reduction(self, h800):
        m = TmaModel(h800)
        assert m.cp_async_equivalent_instructions(16384) == 32
        assert m.issue_reduction(TmaCopy(tile_bytes=16384)) == 32
