"""Tests for the trace-driven SM simulator.

Validation strategy: closed-form traces first (the simulator must
reproduce arithmetic we can do by hand), then consistency with the
analytical models it shares calibration with.
"""

from __future__ import annotations

import pytest

from repro.arch import get_device
from repro.isa import MatrixShape, MmaInstruction
from repro.isa.dtypes import DType
from repro.isa.lowering import FunctionalUnit
from repro.tensorcore import TensorCoreTimingModel
from repro.trace import SmSimulator, TraceBuilder, TraceInstr, \
    WarpTrace


class TestClosedForms:
    def test_dependent_chain_is_n_times_latency(self):
        """The latency microbenchmark: serial chain → n·L cycles."""
        sim = SmSimulator()
        n, lat = 100, 4.5
        res = sim.run([TraceBuilder.dependent_chain(n, latency=lat)])
        assert res.cycles == pytest.approx(n * lat, abs=lat)
        assert res.instructions == n

    def test_independent_stream_is_ii_bound(self):
        """The throughput microbenchmark: with enough ILP the pipe
        issues every II cycles."""
        sim = SmSimulator()
        n = 200
        res = sim.run([TraceBuilder.independent_stream(
            n, latency=20.0, ii=2.0, regs=16)])
        # fill (one latency) + (n-1)·II
        assert res.cycles == pytest.approx(20 + (n - 1) * 2.0,
                                           rel=0.05)
        eight = sim.run([TraceBuilder.independent_stream(
            500, latency=8.0, ii=2.0) for _ in range(8)])
        assert eight.instructions == 4000

    def test_ilp_below_latency_limits_ipc(self):
        """ILP=2 with latency 20, II 1 → IPC = 2/20 (Little's law)."""
        sim = SmSimulator()
        n = 200
        res = sim.run([TraceBuilder.independent_stream(
            n, latency=20.0, ii=1.0, regs=2)])
        assert res.ipc == pytest.approx(2.0 / 20.0, rel=0.05)

    def test_four_warps_four_pipes(self):
        """Dependent chains on separate schedulers don't interfere."""
        sim = SmSimulator(num_schedulers=4)
        traces = [TraceBuilder.dependent_chain(50, latency=10.0)
                  for _ in range(4)]
        res = sim.run(traces)
        assert res.cycles == pytest.approx(500, abs=10)

    def test_two_warps_one_scheduler_share_pipe(self):
        """Two warps on one scheduler with II-bound streams halve."""
        sim = SmSimulator(num_schedulers=1)
        one = sim.run([TraceBuilder.independent_stream(
            100, latency=8.0, ii=2.0)]).cycles
        two = sim.run([TraceBuilder.independent_stream(
            100, latency=8.0, ii=2.0) for _ in range(2)]).cycles
        assert two == pytest.approx(2 * one, rel=0.05)

    def test_two_warps_hide_each_others_latency(self):
        """Two dependent chains interleave on one scheduler: the pipe
        serves one while the other waits."""
        sim = SmSimulator(num_schedulers=1)
        one = sim.run([TraceBuilder.dependent_chain(
            100, latency=10.0, ii=1.0)]).cycles
        two = sim.run([TraceBuilder.dependent_chain(
            100, latency=10.0, ii=1.0) for _ in range(2)]).cycles
        # both finish in (approximately) the same wall time as one
        assert two < 1.2 * one

    def test_shared_lsu_serializes_across_schedulers(self):
        sim_shared = SmSimulator(num_schedulers=4, shared_lsu=True)
        sim_split = SmSimulator(num_schedulers=4, shared_lsu=False)
        traces = [TraceBuilder.independent_stream(
            50, latency=8.0, ii=4.0,
            unit=FunctionalUnit.LSU, regs=16) for _ in range(4)]
        assert sim_shared.run(traces).cycles \
            > 2 * sim_split.run(traces).cycles

    def test_load_compute_exposes_latency(self):
        sim = SmSimulator()
        res = sim.run([TraceBuilder.load_compute(
            20, load_latency=400.0)])
        # each pair costs ≈ the load latency (compute is dependent)
        assert res.cycles == pytest.approx(20 * 404.5, rel=0.05)


class TestStats:
    def test_unit_accounting(self):
        sim = SmSimulator()
        res = sim.run([TraceBuilder.load_compute(10,
                                                 load_latency=100.0)])
        assert res.unit_issue_counts[FunctionalUnit.LSU] == 10
        assert res.unit_issue_counts[FunctionalUnit.CUDA_CORE_FP32] \
            == 10
        assert res.instructions == 20

    def test_utilization_bounds(self):
        sim = SmSimulator()
        res = sim.run([TraceBuilder.independent_stream(
            100, latency=4.0, ii=1.0, regs=8)])
        u = res.unit_utilization(FunctionalUnit.CUDA_CORE_INT)
        assert 0.8 < u <= 1.0

    def test_warp_finish_times(self):
        sim = SmSimulator()
        res = sim.run([TraceBuilder.dependent_chain(10, latency=5.0),
                       TraceBuilder.dependent_chain(20, latency=5.0)])
        assert res.warp_finish_clk[1] > res.warp_finish_clk[0]


class TestValidation:
    def test_errors(self):
        sim = SmSimulator()
        with pytest.raises(ValueError):
            sim.run([])
        with pytest.raises(ValueError):
            SmSimulator(num_schedulers=0)
        with pytest.raises(ValueError):
            TraceInstr("x", FunctionalUnit.LSU, 0.0, 0.0)
        with pytest.raises(ValueError):
            TraceInstr("x", FunctionalUnit.LSU, 2.0, 4.0)

    def test_runaway_guard(self):
        sim = SmSimulator()
        with pytest.raises(RuntimeError, match="exceeded"):
            sim.run([TraceBuilder.dependent_chain(100, latency=500.0)],
                    max_cycles=100.0)


class TestAgainstAnalyticalModels:
    def test_mma_chain_matches_latency_model(self, h800):
        """A dependent mma accumulation loop runs at the calibrated
        completion latency per instruction."""
        instr = MmaInstruction(DType.FP16, DType.FP32,
                               MatrixShape(16, 8, 16))
        timing = TensorCoreTimingModel(h800).mma(instr)
        n = 64
        trace = TraceBuilder.mma_accumulate_loop(h800, instr, n)
        res = SmSimulator().run([trace])
        assert res.cycles == pytest.approx(n * timing.latency_clk,
                                           rel=0.05)

    def test_mma_throughput_matches_issue_model(self, h800):
        """Four warps with accumulator ILP saturate the tensor-core
        pipes at the calibrated issue interval → the simulator's
        device-wide TFLOPS matches the analytical Table VII value."""
        instr = MmaInstruction(DType.FP16, DType.FP32,
                               MatrixShape(16, 8, 16))
        timing = TensorCoreTimingModel(h800).mma(instr)
        n = 128
        traces = [TraceBuilder.mma_independent(h800, instr, n,
                                               accumulators=8)
                  for _ in range(4)]
        res = SmSimulator(num_schedulers=4).run(traces)
        flops = 4 * n * instr.flops
        tflops = (flops / res.cycles) * h800.num_sms \
            * h800.clocks.observed_hz / 1e12
        assert tflops == pytest.approx(timing.throughput_tflops(),
                                       rel=0.1)

    def test_a100_vs_h800_mma_gap_reproduced(self):
        """The simulator inherits the paper's finding: per-clock, the
        A100 outruns the H800 on the legacy mma path."""
        results = {}
        for dev_name in ("A100", "H800"):
            dev = get_device(dev_name)
            instr = MmaInstruction(DType.FP16, DType.FP32,
                                   MatrixShape(16, 8, 16))
            traces = [TraceBuilder.mma_independent(dev, instr, 64,
                                                   accumulators=8)
                      for _ in range(4)]
            res = SmSimulator().run(traces)
            results[dev_name] = 4 * 64 * instr.flops / res.cycles
        assert results["A100"] > 0.75 * results["H800"] / 0.65 * 0.487
        # per-clock flops: A100 ≈ 2048, H800 ≈ 2471
        assert results["A100"] == pytest.approx(2048, rel=0.1)
