"""The DESIGN.md §4 ablations: switch one mechanism off, and the
paper effect it explains must vanish while everything else holds.

Ablation 5 (TE quantisation overhead) lives with the cost-model
tests: ``test_overhead_ablation_switch`` in ``tests/test_te_cost_llm.py``.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.asynccopy import AsyncCopyConfig, CopyVariant, TiledMatmulModel
from repro.dsm import RingCopyBenchmark
from repro.isa import OperandSource, WgmmaInstruction
from repro.isa.dtypes import DType
from repro.tensorcore import TensorCoreTimingModel


class TestSparseSharedMemoryPressure:
    """Ablation 1: sparse wgmma's SS-mode deficit is entirely the
    unpruned-A shared-memory traffic; the RS operand path removes
    that traffic and restores latency and throughput."""

    def test_sparse_ss_penalty_is_unpruned_a_traffic(self, h800):
        tm = TensorCoreTimingModel(h800)
        ss_instr = WgmmaInstruction(DType.FP16, DType.FP32, 256,
                                    sparse=True,
                                    a_source=OperandSource.SHARED)
        rs_instr = WgmmaInstruction(DType.FP16, DType.FP32, 256,
                                    sparse=True,
                                    a_source=OperandSource.REGISTER)
        ss, rs = tm.wgmma(ss_instr), tm.wgmma(rs_instr)
        extra_bytes = (ss_instr.shared_memory_bytes()
                       - rs_instr.shared_memory_bytes()
                       - ss_instr.m * ss_instr.k * 2)  # pruned-A share
        smem_clk = extra_bytes / 128.0
        # with the traffic: +16 cycles and lower throughput
        assert ss.latency_clk - rs.latency_clk == smem_clk == 16.0
        assert ss.throughput_tflops() < rs.throughput_tflops()
        # ablated (RS path): deficit gone
        assert rs.latency_clk == 128.0
        assert rs.fraction_of_peak() > 0.95


class TestPipelineDepth:
    """Ablation 2: deeper cp.async rings hide more latency per step
    but multiply the shared-memory footprint, cutting resident
    blocks."""

    def test_pipeline_depth_tradeoff(self, h800):
        m = TiledMatmulModel(h800)
        by_depth = {
            stages: m.throughput_gflops(AsyncCopyConfig(
                8, 4, CopyVariant.ASYNC, pipeline_stages=stages))
            for stages in (2, 3, 4)
        }
        # at low occupancy a deeper ring hides more latency
        assert by_depth[3] >= by_depth[2]

    def test_deeper_ring_costs_occupancy(self, h800):
        m = TiledMatmulModel(h800)
        shallow = AsyncCopyConfig(32, 32, CopyVariant.ASYNC,
                                  pipeline_stages=2)
        deep = AsyncCopyConfig(32, 32, CopyVariant.ASYNC,
                               pipeline_stages=8)
        assert deep.smem_bytes_per_block \
            == 4 * shallow.smem_bytes_per_block
        assert m.resident_blocks(deep) <= m.resident_blocks(shallow)

    def test_single_stage_is_rejected(self):
        with pytest.raises(ValueError):
            AsyncCopyConfig(8, 1, CopyVariant.ASYNC, pipeline_stages=1)


class TestDsmContention:
    """Ablation 3: with the fabric contention coefficient zeroed (an
    ideal crossbar), Fig. 8's decline over cluster size disappears —
    the decline is a shared-fabric effect, not a per-link one."""

    @staticmethod
    def _best_by_cs(device):
        rbc = RingCopyBenchmark(device)
        return {cs: rbc.measure(cluster_size=cs, block_threads=1024,
                                ilp=8).aggregate_tbps
                for cs in (2, 4, 8, 16)}

    def test_contention_drives_cluster_decline(self, h800):
        with_contention = self._best_by_cs(h800)
        assert with_contention[2] > with_contention[16] * 2

        pack = h800.pack
        ideal = h800.with_overrides(pack=replace(
            pack, dsm=replace(pack.dsm, contention_alpha=0.0)))
        without = self._best_by_cs(ideal)
        # ideal crossbar: cluster size no longer matters (up to the
        # ±2 % wobble of how many SMs a cluster size can populate)
        vals = list(without.values())
        assert max(vals) == pytest.approx(min(vals), rel=0.02)
        assert without[16] > with_contention[16] * 2


class TestPowerCap:
    """Ablation 4: lifting the H800-PCIe's 350 W cap removes the
    Rand-vs-Zero wgmma throughput gap entirely — the random-data
    slowdown is power throttling."""

    @staticmethod
    def _gap(device):
        t = TensorCoreTimingModel(device).wgmma(
            WgmmaInstruction(DType.FP16, DType.FP32, 256))
        return t.throughput_tflops("zero"), t.throughput_tflops("rand")

    def test_power_cap_explains_rand_gap(self, h800):
        zero, rand = self._gap(h800)
        assert rand < 0.95 * zero                       # capped: gap

        uncapped = h800.with_overrides(power_cap_watts=10_000.0)
        zero_u, rand_u = self._gap(uncapped)
        assert rand_u == pytest.approx(zero_u, rel=1e-9)  # gap gone
        assert zero_u == pytest.approx(zero, rel=1e-9)    # zero intact
