"""Tables IV and V — memory latency and throughput."""

from __future__ import annotations

from typing import List, Tuple

from repro.arch import get_device
from repro.core.checks import Check, approx, ordered, ratio_between
from repro.core.context import RunContext
from repro.core.tables import Table
from repro.memory import measure_latencies, measure_throughputs
from repro.memory.throughput import MemoryThroughputModel

#: the paper's column order for Tables IV/V
_PAPER_ORDER = ("RTX4090", "A100", "H800")


def table04(ctx: RunContext) -> Tuple[Table, List[Check]]:
    devices = ctx.device_order(*_PAPER_ORDER)
    # Chains stay sequential (seed=None): the over-L2 global probe is
    # a transient measurement (iters ≪ chain length), and only the
    # sequential order reproduces the paper's all-miss capacity
    # behaviour — a random permutation mostly revisits the resident
    # 1/overfill of the array and reads like an L2 hit.  Seeded chain
    # orders are exercised by the scalar/vectorized equivalence suite.
    results = {
        name: measure_latencies(get_device(name), fast=ctx.fast)
        for name in devices
    }
    table = Table("Table IV: latency clocks of memory scopes",
                  ["Type", *devices])
    for level in ("L1 Cache", "Shared", "L2 Cache", "Global"):
        table.add_row(level, *(results[d][level] for d in devices))

    checks: List[Check] = []
    for d in devices:
        r = results[d]
        checks.append(ordered(
            f"{d}: shared < L1 < L2 < global",
            [r["Shared"], r["L1 Cache"], r["L2 Cache"], r["Global"]],
            strict=True,
        ))
    if ctx.has(*_PAPER_ORDER):
        l2_over_l1 = sum(
            results[d]["L2 Cache"] / results[d]["L1 Cache"]
            for d in _PAPER_ORDER
        ) / 3
        glob_over_l2 = sum(
            results[d]["Global"] / results[d]["L2 Cache"]
            for d in _PAPER_ORDER
        ) / 3
        checks.append(approx(
            "average L2 latency ≈ 6.5× L1 (paper §IV-B)", l2_over_l1,
            6.5, rel_tol=0.15,
        ))
        checks.append(approx(
            "average global latency ≈ 1.9× L2 (paper §IV-B)",
            glob_over_l2, 1.9, rel_tol=0.15,
        ))
        checks.append(Check(
            "HBM2e devices (A100, H800) have lower global latency than "
            "GDDR6X (RTX4090)",
            max(results["A100"]["Global"], results["H800"]["Global"])
            < results["RTX4090"]["Global"],
        ))
    return table, checks


def table05(ctx: RunContext) -> Tuple[Table, List[Check]]:
    devices = ctx.device_order(*_PAPER_ORDER)
    results = {name: measure_throughputs(get_device(name))
               for name in devices}
    metrics = list(results[devices[0]].keys())
    table = Table("Table V: memory throughput", ["Metric", *devices])
    for m in metrics:
        table.add_row(m, *(results[d][m] for d in devices))

    checks: List[Check] = []
    for d in devices:
        r = results[d]
        # Table V itself has H800 scalar FP32 a hair above v4 (125.8 vs
        # 124.1) — the claim is "vectorised is never materially worse".
        checks.append(Check(
            f"{d}: vectorised FP32.v4 ≥ 0.95× scalar FP32 at L1",
            r["L1 FP32.v4 (byte/clk/SM)"]
            >= 0.95 * r["L1 FP32 (byte/clk/SM)"],
        ))
    for d in ctx.select("RTX4090", "H800"):
        checks.append(Check(
            f"{d}: FP64 L1 probe collapses to the FP64 ALU "
            "(paper §IV-B)",
            results[d]["L1 FP64 (byte/clk/SM)"] <= 16.5,
        ))
    if ctx.has("A100"):
        checks.append(Check(
            "A100 FP64 L1 probe is NOT ALU-limited",
            results["A100"]["L1 FP64 (byte/clk/SM)"] > 100,
        ))
    if ctx.has("H800"):
        h800_l2 = max(results["H800"]["L2 FP32 (byte/clk)"],
                      results["H800"]["L2 FP32.v4 (byte/clk)"])
        if ctx.has("RTX4090"):
            checks.append(ratio_between(
                "H800 L2 ≈ 2.6× RTX4090 L2 (paper §IV-B)",
                h800_l2, results["RTX4090"]["L2 FP32.v4 (byte/clk)"],
                2.2, 3.0,
            ))
        if ctx.has("A100"):
            checks.append(ratio_between(
                "H800 L2 ≈ 2.2× A100 L2 (paper §IV-B)",
                h800_l2, results["A100"]["L2 FP32.v4 (byte/clk)"],
                1.9, 2.6,
            ))
    for d, expect in (("RTX4090", 4.67), ("A100", 2.01),
                      ("H800", 4.23)):
        if ctx.has(d):
            checks.append(approx(
                f"{d}: L2-vs-global ratio ≈ {expect}×",
                results[d]["L2 vs. Global"], expect, rel_tol=0.15,
            ))
    for d, pct in (("RTX4090", 92), ("A100", 90), ("H800", 91)):
        if ctx.has(d):
            checks.append(approx(
                f"{d}: global throughput ≈ {pct}% of theoretical peak",
                results[d]["% of peak"], pct, rel_tol=0.05,
            ))
    return table, checks


def table05_shared(ctx: RunContext) -> Tuple[Table, List[Check]]:
    devices = ctx.device_order(*_PAPER_ORDER)
    table = Table("Shared-memory throughput (byte/clk/SM)",
                  ["Device", "Throughput"])
    vals = {}
    for d in devices:
        v = MemoryThroughputModel(get_device(d)).shared().value
        vals[d] = v
        table.add_row(d, v)
    spread = max(vals.values()) - min(vals.values())
    return table, [Check(
        "all devices sustain ≈128 byte/clk/SM of shared memory",
        spread < 2.0 and min(vals.values()) > 126.0,
        detail=str(vals),
    )]
