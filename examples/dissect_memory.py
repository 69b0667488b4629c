#!/usr/bin/env python
"""Memory-hierarchy dissection across three GPU generations.

Reproduces the §III-A methodology end to end: P-chase latency at every
level (including a cold-TLB variant the paper's warm-up avoids), the
sustained-throughput table, and the cache-capacity knee you can observe
by growing the probe array past L1.

Run:  python examples/dissect_memory.py
"""

from __future__ import annotations

from repro.arch import get_device
from repro.memory import (
    MemoryThroughputModel,
    PChase,
    measure_latencies,
)

DEVICES = ("RTX4090", "A100", "H800")


def latency_study() -> None:
    print("=== P-chase latency (cycles) ===")
    header = f"{'level':<10}" + "".join(f"{d:>10}" for d in DEVICES)
    print(header)
    results = {d: measure_latencies(get_device(d)) for d in DEVICES}
    for level in ("Shared", "L1 Cache", "L2 Cache", "Global"):
        row = f"{level:<10}"
        for d in DEVICES:
            row += f"{results[d][level]:>10.1f}"
        print(row)
    avg_l2_l1 = sum(results[d]["L2 Cache"] / results[d]["L1 Cache"]
                    for d in DEVICES) / 3
    print(f"\nL2/L1 latency ratio (avg): {avg_l2_l1:.1f}x "
          "(paper: 6.5x)")


def tlb_study() -> None:
    print("\n=== Why the paper warms the TLB ===")
    from dataclasses import replace
    h800 = get_device("H800")
    small = h800.with_overrides(cache=replace(h800.cache,
                                              l2_size_kib=2048))
    p = PChase(small)
    warm = p.global_latency(iters=512).mean_latency_clk
    cold = p.global_latency_cold_tlb(iters=512).mean_latency_clk
    print(f"global latency, warm TLB: {warm:.0f} clk")
    print(f"global latency, cold TLB: {cold:.0f} clk "
          f"(+{cold - warm:.0f} clk of page-walk per access)")


def capacity_knee() -> None:
    print("\n=== Finding the L1 capacity by growing the probe ===")
    h800 = get_device("H800")
    for kib in (64, 128, 192, 256, 320, 512):
        p = PChase(h800)
        r = p.l1_latency(array_kib=kib, iters=1024)
        marker = " <- past L1 capacity" if r.hits_at_level < 0.99 else ""
        print(f"array {kib:>4} KiB: {r.mean_latency_clk:7.1f} clk, "
              f"{100 * r.hits_at_level:5.1f}% L1 hits{marker}")


def throughput_study() -> None:
    print("\n=== Sustained throughput ===")
    for d in DEVICES:
        m = MemoryThroughputModel(get_device(d))
        l1 = m.l1("FP32.v4")
        l2 = m.l2("FP32.v4")
        g = m.global_memory()
        print(f"{d:<8} L1 {l1.value:6.1f} B/clk/SM | "
              f"L2 {l2.value:7.1f} B/clk | "
              f"DRAM {g.value:7.1f} GB/s "
              f"({100 * m.theoretical_fraction():.0f}% of peak) | "
              f"L2-vs-global {m.l2_vs_global_ratio():.2f}x")


if __name__ == "__main__":
    latency_study()
    tlb_study()
    capacity_knee()
    throughput_study()
