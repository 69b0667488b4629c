#!/usr/bin/env python
"""Extending the library: predict an H100 SXM5 the paper never tested.

The registry is open — a downstream user can describe a new GPU from
its public spec sheet and every model and experiment in the library
runs against it.  This script registers an H100 SXM5 (132 SMs, HBM3,
700 W) and predicts the paper's headline quantities for it.

Run:  python examples/custom_device.py
"""

from __future__ import annotations

from dataclasses import replace

from repro.arch import (
    Architecture,
    CacheGeometry,
    ClockDomain,
    DeviceSpec,
    DramSpec,
    MemoryLatencies,
    MemoryWidths,
    TensorCoreSpec,
    get_device,
    register_device,
)
from repro.isa import MatrixShape, MmaInstruction, WgmmaInstruction
from repro.isa.dtypes import DType
from repro.memory import measure_latencies, MemoryThroughputModel
from repro.dsm import RingCopyBenchmark
from repro.tensorcore import TensorCoreTimingModel

H100_SXM = DeviceSpec(
    name="H100-SXM",
    marketing_name="H100 SXM5",
    architecture=Architecture.HOPPER,
    num_sms=132,
    cuda_cores_per_sm=128,
    max_threads_per_sm=2048,
    max_blocks_per_sm=32,
    registers_per_sm=65536,
    clocks=ClockDomain(base_sm_mhz=1095.0, boost_sm_mhz=1980.0,
                       observed_sm_mhz=1980.0, memory_mhz=2619.0),
    cache=CacheGeometry(l1_size_kib=256, shared_max_kib=228,
                        l2_size_kib=50 * 1024),
    # Hopper-family latency signature (same SM design as the H800)
    mem_latencies=MemoryLatencies(shared_clk=29.0, l1_hit_clk=40.7,
                                  l2_hit_clk=263.0, dram_clk=200.0),
    mem_widths=MemoryWidths(
        l1_bytes_per_clk_sm=128.0, smem_bytes_per_clk_sm=128.0,
        l2_bytes_per_clk=5200.0, lsu_issue_per_clk=0.98,
        # full-rate FP64 on the SXM part
        fp64_add_bytes_per_clk_sm=256.0,
    ),
    dram=DramSpec(size_gib=80, mem_type="HBM3", bus_width_bits=5120,
                  peak_bandwidth_gbps=3350.0, refresh_overhead=0.03,
                  rw_turnaround_penalty=0.106),
    tensor_core=TensorCoreSpec(
        count=528, generation=4,
        dense_peak_tflops={"fp16": 989.5, "bf16": 989.5, "tf32": 494.7,
                           "fp8": 1979.0, "int8": 1979.0, "fp64": 66.9,
                           "binary": 15832.0},
    ),
    power_cap_watts=700.0,
    max_cluster_size=16,
)


def main() -> None:
    register_device(H100_SXM, overwrite=True)
    dev = get_device("H100-SXM")
    h800 = get_device("H800")

    print("=== Predicted H100 SXM5 vs measured H800 PCIe ===\n")

    lat = measure_latencies(dev)
    print("memory latency (clk):", {k: round(v, 1)
                                    for k, v in lat.items()})
    bw = MemoryThroughputModel(dev).global_memory().value
    print(f"sustained DRAM bandwidth: {bw:.0f} GB/s "
          f"(H800: {MemoryThroughputModel(h800).global_memory().value:.0f})")

    tm = TensorCoreTimingModel(dev)
    w = tm.wgmma(WgmmaInstruction(DType.FP16, DType.FP32, 256))
    m = tm.mma(MmaInstruction(DType.FP16, DType.FP32,
                              MatrixShape(16, 8, 16)))
    print(f"\nwgmma fp16->f32: {w.throughput_tflops('zero'):.0f} TFLOPS"
          f" zero / {w.throughput_tflops('rand'):.0f} rand "
          "(700 W budget barely throttles)")
    print(f"legacy mma path: {m.throughput_tflops():.0f} TFLOPS "
          f"({100 * m.fraction_of_peak():.0f}% of peak — the Hopper "
          "mma deficit carries over)")

    rbc = RingCopyBenchmark(dev)
    print(f"\nDSM ring copy peak: {rbc.peak_tbps():.2f} TB/s "
          f"(H800: {RingCopyBenchmark(h800).peak_tbps():.2f})")


if __name__ == "__main__":
    main()
