#!/usr/bin/env python
"""Driving the mini SM simulator: from microbenchmarks to kernels.

Rebuilds the paper's two measurement idioms as instruction traces —
the dependent chain (latency) and the ILP stream (throughput) — runs
them through the cycle-approximate SM engine, and shows the simulator
agreeing with the analytical models it shares calibration with.  Ends
with a mixed load/compute kernel to show where the time goes.

Run:  python examples/trace_simulation.py
"""

from __future__ import annotations

from repro.arch import get_device
from repro.isa import MatrixShape, MmaInstruction
from repro.isa.dtypes import DType
from repro.isa.lowering import FunctionalUnit
from repro.tensorcore import TensorCoreTimingModel
from repro.trace import SmSimulator, TraceBuilder


def latency_idiom() -> None:
    print("=== the latency microbenchmark, as a trace ===")
    h800 = get_device("H800")
    instr = MmaInstruction(DType.FP16, DType.FP32,
                           MatrixShape(16, 8, 16))
    timing = TensorCoreTimingModel(h800).mma(instr)
    n = 64
    res = SmSimulator().run(
        [TraceBuilder.mma_accumulate_loop(h800, instr, n)])
    print(f"dependent mma chain, n={n}: {res.cycles / n:.2f} clk per "
          f"instruction (calibrated latency: {timing.latency_clk})")


def throughput_idiom() -> None:
    print("\n=== the throughput microbenchmark, as a trace ===")
    h800 = get_device("H800")
    instr = MmaInstruction(DType.FP16, DType.FP32,
                           MatrixShape(16, 8, 16))
    timing = TensorCoreTimingModel(h800).mma(instr)
    n = 128
    for warps, accs in ((1, 1), (1, 8), (4, 8)):
        traces = [TraceBuilder.mma_independent(h800, instr, n,
                                               accumulators=accs)
                  for _ in range(warps)]
        res = SmSimulator().run(traces)
        flops = warps * n * instr.flops
        tflops = (flops / res.cycles * h800.num_sms
                  * h800.clocks.observed_hz / 1e12)
        print(f"{warps} warp(s) x ILP {accs}: {tflops:7.1f} TFLOPS "
              f"(IPC {res.ipc:.3f})")
    print(f"analytical Table VII value: "
          f"{timing.throughput_tflops():.1f} TFLOPS")


def mixed_kernel() -> None:
    print("\n=== a mixed load+compute inner loop ===")
    h800 = get_device("H800")
    lat = h800.mem_latencies.global_clk
    for warps in (1, 4, 8):
        traces = [TraceBuilder.load_compute(32, load_latency=lat)
                  for _ in range(warps)]
        res = SmSimulator().run(traces)
        lsu = res.unit_utilization(FunctionalUnit.LSU)
        rate = warps * 32 / res.cycles * 1000
        print(f"{warps} warp(s): {res.cycles:8.0f} clk total, "
              f"{rate:6.2f} load+FMA pairs per kclk, "
              f"LSU busy {100 * lsu:4.1f}%")
    print("→ wall time stays flat while work grows: extra warps hide "
          "the global-memory latency under each other — the same "
          "story as Tables XIII/XIV.")


if __name__ == "__main__":
    latency_idiom()
    throughput_idiom()
    mixed_kernel()
