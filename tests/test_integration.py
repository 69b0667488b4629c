"""Cross-subsystem integration tests.

Each test ties two or more subsystems together and asserts they tell a
*consistent* story — the kind of coherence a monolithic simulator gets
for free and a modular one must prove.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch import get_device
from repro.isa import (
    MatrixShape,
    MmaInstruction,
    OperandSource,
    WgmmaInstruction,
    lower,
)
from repro.isa.dtypes import DType
from repro.sm import BlockConfig, Roofline
from repro.te import CostModel, LLAMA_MODELS, LlmInferenceModel, \
    Precision
from repro.tensorcore import TensorCoreTimingModel


class TestTimingConsistency:
    def test_te_gemm_rate_matches_instruction_model(self, h800):
        """The TE cost model's FP16 GEMM rate must be the wgmma
        instruction model's sustained rate (times kernel efficiency)."""
        cm = CostModel(h800)
        tm = TensorCoreTimingModel(h800)
        w = tm.wgmma(WgmmaInstruction(DType.FP16, DType.FP16, 256))
        assert cm.gemm_tflops(Precision.FP16) == pytest.approx(
            w.throughput_tflops("rand"), rel=1e-6)

    def test_lowered_unit_matches_timing_path(self, h800):
        """If lowering says CUDA cores (INT4 on Hopper), the timing
        model must agree it's off the tensor core."""
        instr = MmaInstruction(DType.INT4, DType.INT32,
                               MatrixShape(16, 8, 32))
        lowered = lower(instr, h800.pack)
        timing = TensorCoreTimingModel(h800).mma(instr)
        assert lowered.uses_tensor_core == timing.on_tensor_core \
            is False


class TestRooflineConsistency:
    def test_llm_decode_sits_in_memory_region(self, h800):
        """The LLM model's decode step and the roofline must agree:
        decode arithmetic intensity sits far below the ridge."""
        model = LLAMA_MODELS["llama-2-7B"]
        batch = 8
        flops = 2.0 * model.params * batch
        bytes_ = model.weight_bytes(Precision.BF16)
        intensity = flops / bytes_
        r = Roofline(h800, "bf16")
        assert intensity < r.ridge_point / 3
        assert r.classify(intensity) == "memory"

    def test_decode_step_at_least_roofline_time(self, h800):
        """The LLM model's decode step (which adds host overhead)
        can never beat the pure roofline bound."""
        m = LlmInferenceModel(h800)
        spec = LLAMA_MODELS["llama-2-7B"]
        step = m.decode_step_seconds(spec, Precision.BF16)
        roofline_floor = spec.weight_bytes(Precision.BF16) \
            / (h800.dram.peak_bandwidth_gbps * 1e9)
        assert step > roofline_floor

class TestSchedulerDpxConsistency:
    def test_block_sweep_matches_scheduler_utilization(self, h800):
        from repro.dpx import DpxTimingModel, block_sweep, \
            get_dpx_function
        from repro.sm import KernelLaunch, schedule_blocks
        fn = get_dpx_function("__vimax3_s32")
        model = DpxTimingModel(h800)
        peak = model.throughput_gops(fn)
        for p in block_sweep(h800, fn, 2):
            sched = schedule_blocks(
                h800,
                KernelLaunch(p["blocks"], BlockConfig(threads=1024)),
                blocks_per_sm_override=1)
            assert p["gops"] == pytest.approx(
                peak * sched.utilization, rel=1e-9)


class TestClusterAccountingConsistency:
    def test_histogram_remote_fraction_realised(self, h800):
        """The timing model's remote-traffic assumption must match
        what the functional path actually does on uniform data."""
        from repro.dsm import Cluster, DsmHistogram, HistogramConfig
        hist = DsmHistogram(h800)
        cfg = HistogramConfig(512, 4, 128)
        data = np.random.default_rng(0).integers(0, 512, 4000)
        # run functionally on an instrumented cluster
        cluster = Cluster(h800, 4,
                          smem_bytes_per_block=cfg.bins_per_block * 4)
        bpb = cfg.bins_per_block
        for i, v in enumerate(data):
            accessor = i % 4
            owner, local_bin = divmod(int(v), bpb)
            cluster.map_shared_rank(accessor,
                                    owner).atomic_add_u32(4 * local_bin)
        measured_remote = cluster.remote_accesses \
            / cluster.total_accesses
        assert measured_remote == pytest.approx(cfg.remote_fraction,
                                                abs=0.03)


class TestEnergyThroughputConsistency:
    def test_table11_uses_table7_throughput(self, h800):
        """Table XI's efficiency = Table VII's throughput / its own
        wattage — the two experiments must share one timing source."""
        from repro.power import PowerModel
        instr = MmaInstruction(DType.FP16, DType.FP16,
                               MatrixShape(16, 8, 16))
        t = TensorCoreTimingModel(h800).mma(instr)
        rep = PowerModel(h800).report(
            op="mma", ab=instr.ab_type, cd=instr.cd_type,
            tflops=t.throughput_tflops("rand"))
        assert rep.efficiency_tflops_per_watt == pytest.approx(
            t.throughput_tflops("rand") / rep.power_watts)
