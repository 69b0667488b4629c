"""Figures 6–9 and Tables XIII/XIV — DPX, async copy, DSM."""

from __future__ import annotations

from typing import List, Tuple

from repro.arch import get_device
from repro.asynccopy import benchmark_table
from repro.core.checks import Check, approx, ordered
from repro.core.context import RunContext
from repro.core.tables import Table
from repro.dpx import DPX_FUNCTIONS, DpxTimingModel, block_sweep, \
    get_dpx_function
from repro.dsm import (
    DsmHistogram,
    HistogramConfig,
    RingCopyBenchmark,
    SmToSmNetwork,
)

_DPX_SAMPLE = (
    "__vimax_s32",
    "__viaddmax_s32",
    "__vimax3_s32",
    "__vimax3_s32_relu",
    "__vimax3_s16x2",
    "__vimax3_s16x2_relu",
    "__viaddmax_s16x2_relu",
)


def fig06(ctx: RunContext) -> Tuple[Table, List[Check]]:
    devices = ctx.device_order("RTX4090", "A100", "H800")
    models = {d: DpxTimingModel(get_device(d)) for d in devices}
    table = Table("Fig 6: DPX latency (cycles)",
                  ["Function", *devices])
    lat = {}
    for name in _DPX_SAMPLE:
        fn = get_dpx_function(name)
        row = [models[d].latency_clk(fn) for d in devices]
        lat[name] = dict(zip(devices, row))
        table.add_row(name, *row)

    checks: List[Check] = []
    if ctx.has("RTX4090", "A100"):
        checks.append(Check(
            "software-emulated devices (RTX4090, A100) have identical "
            "cycle latency (paper §IV-E)",
            all(lat[n]["RTX4090"] == lat[n]["A100"]
                for n in _DPX_SAMPLE),
        ))
    if ctx.has("H800", "A100"):
        checks.append(Check(
            "H800 latency ≤ emulation for every function",
            all(lat[n]["H800"] <= lat[n]["A100"]
                for n in _DPX_SAMPLE),
        ))
        checks.append(Check(
            "2-input __vimax_s32 shows no H800 latency edge "
            "(VIMNMX ≈ IMNMX, paper §IV-E)",
            lat["__vimax_s32"]["H800"] == lat["__vimax_s32"]["A100"],
        ))
        checks.append(Check(
            "relu-fused and 16x2 functions gain the most",
            lat["__viaddmax_s16x2_relu"]["A100"]
            / lat["__viaddmax_s16x2_relu"]["H800"] > 4.0,
        ))
    return table, checks


def fig07(ctx: RunContext) -> Tuple[Table, List[Check]]:
    devices = ctx.device_order("RTX4090", "A100", "H800")
    models = {d: DpxTimingModel(get_device(d)) for d in devices}
    with_speedup = ctx.has("H800", "A100")
    table = Table(
        "Fig 7: DPX throughput (G results/s, device-wide)",
        ["Function", *devices]
        + (["H800 speedup vs A100"] if with_speedup else []),
    )
    speedups = {}
    for name in _DPX_SAMPLE:
        fn = get_dpx_function(name)
        row = [models[d].throughput_gops(fn) for d in devices]
        extra = []
        if with_speedup:
            s = models["H800"].speedup_vs(fn, models["A100"])
            speedups[name] = s
            extra = [round(s, 2)]
        table.add_row(name, *(round(v, 1) for v in row), *extra)

    checks: List[Check] = []
    if with_speedup:
        checks.append(Check(
            "simple 32-bit ops are close across devices (≤2.6× span, "
            "paper §IV-E)",
            speedups["__vimax_s32"] < 1.5
            and speedups["__viaddmax_s32"] < 2.6,
        ))
        checks.append(Check(
            "16-bit relu functions accelerate up to ~13× on H800 "
            "(paper §IV-E)",
            10.0 < speedups["__viaddmax_s16x2_relu"] < 18.0,
            detail=f"{speedups['__viaddmax_s16x2_relu']:.1f}×",
        ))
    if ctx.has("H800"):
        h800 = get_device("H800")
        sweep = block_sweep(h800, get_dpx_function("__vimax3_s32"), 2)
        by_blocks = {p["blocks"]: p["gops"] for p in sweep}
        sms = h800.num_sms
        checks += [
            Check(
                "throughput ∝ blocks below the SM count",
                approx("", by_blocks[sms // 2] / by_blocks[1],
                       sms // 2, rel_tol=0.02).passed,
            ),
            Check(
                "throughput plummets just past the SM count "
                "(DPX unit is per-SM, paper §IV-E)",
                by_blocks[sms + 1] < 0.6 * by_blocks[sms],
            ),
            Check(
                "maximum throughput at integer multiples of the SM "
                "count",
                by_blocks[2 * sms] >= by_blocks[2 * sms - 1]
                and by_blocks[2 * sms] >= by_blocks[2 * sms + 1],
            ),
        ]
    return table, checks


def _async_table(dev_name: str):
    rows = benchmark_table(get_device(dev_name))
    table = Table(
        f"Table {'XIII' if dev_name == 'H800' else 'XIV'}: "
        f"globalToShmemAsyncCopy on {dev_name} (GFLOP/s)",
        ["block", "variant", "1", "2", "4", "8", "16", "32", "Perf↑"],
    )
    gains = {}
    for r in rows:
        gains[r["block"]] = r["perf_gain"]
        table.add_row(r["block"], "AsyncPipe",
                      *(round(v) for v in r["AsyncPipe"]),
                      f"{100 * r['perf_gain']:.1f}%")
        table.add_row(r["block"], "SyncShare",
                      *(round(v) for v in r["SyncShare"]), "")
    return table, rows, gains


def table13(ctx: RunContext) -> Tuple[Table, List[Check]]:
    table, rows, gains = _async_table(ctx.pin("H800"))
    checks = [
        approx("8×8: async gains ≈ 39.5% on average (paper)",
               100 * gains["8x8"], 39.5, rel_tol=0.40),
        Check("gains shrink as block size grows",
              gains["8x8"] > gains["16x16"] > gains["32x32"]),
        Check("at 32×32 async is no better (≈ −1.8%, paper)",
              gains["32x32"] < 0.02),
        Check("throughput is non-decreasing in launched blocks",
              all(a <= b * 1.001
                  for r in rows
                  for series in (r["AsyncPipe"], r["SyncShare"])
                  for a, b in zip(series, series[1:]))),
    ]
    return table, checks


def table14(ctx: RunContext) -> Tuple[Table, List[Check]]:
    table, rows, gains = _async_table(ctx.pin("A100"))
    checks = [
        Check("8×8: async helps (paper: +19.6% average)",
              gains["8x8"] > 0.08),
        Check("A100 gains are smaller than H800 gains at 8×8",
              gains["8x8"]
              < _async_table("H800")[2]["8x8"]),
        Check("at 32×32 the effect is within a few percent",
              abs(gains["32x32"]) < 0.05),
    ]
    return table, checks


def fig08(ctx: RunContext) -> Tuple[Table, List[Check]]:
    h800 = get_device(ctx.pin("H800"))
    rbc = RingCopyBenchmark(h800)
    net = SmToSmNetwork(h800)
    table = Table(
        "Fig 8: RBC SM-to-SM throughput (TB/s), block 1024",
        ["Cluster size", "ILP=1", "ILP=2", "ILP=4", "ILP=8"],
    )
    best = {}
    for cs in (2, 4, 8, 16):
        row = [rbc.measure(cluster_size=cs, block_threads=1024,
                           ilp=ilp).aggregate_tbps
               for ilp in (1, 2, 4, 8)]
        best[cs] = max(row)
        table.add_row(cs, *(round(v, 2) for v in row))

    small = rbc.measure(cluster_size=2, block_threads=128, ilp=1)
    big = rbc.measure(cluster_size=2, block_threads=1024, ilp=1)
    checks = [
        approx("SM-to-SM latency is 180 cycles", net.latency_clk, 180.0,
               rel_tol=0.01),
        approx("DSM latency ≈ 32% below L2 (paper §IV-E)",
               100 * net.latency_vs_l2, 32.0, rel_tol=0.10),
        approx("peak ≈ 3.27 TB/s at cluster size 2 (paper Fig 8)",
               best[2], 3.27, rel_tol=0.10),
        approx("≈ 2.65 TB/s at cluster size 4", best[4], 2.65,
               rel_tol=0.10),
        ordered("throughput declines as the cluster grows "
                "(fabric contention)",
                [best[2], best[4], best[8], best[16]],
                strict=True, descending=True),
        Check("bigger blocks raise latency-bound throughput",
              small.aggregate_tbps < big.aggregate_tbps),
    ]
    return table, checks


def fig09(ctx: RunContext) -> Tuple[Table, List[Check]]:
    h800 = get_device(ctx.pin("H800"))
    hist = DsmHistogram(h800)
    nbins = (256, 512, 1024, 2048, 4096)
    table = Table(
        "Fig 9: DSM histogram (G elements/s)",
        ["block", "CS"] + [str(n) for n in nbins],
    )
    data = {}
    for bt in (128, 512):
        for cs in (1, 2, 4, 8):
            row = []
            for n in nbins:
                r = hist.measure(HistogramConfig(n, cs, bt))
                row.append(r.elements_per_second / 1e9)
            data[(bt, cs)] = dict(zip(nbins, row))
            table.add_row(bt, cs, *(round(v, 1) for v in row))

    checks = [
        Check(
            "CS=1 drops sharply from 1024 to 2048 bins "
            "(shared memory caps resident blocks, paper §IV-E)",
            data[(512, 1)][2048] < 0.6 * data[(512, 1)][1024]
            and data[(128, 1)][4096] < 0.6 * data[(128, 1)][1024],
        ),
        Check(
            "clustering recovers the large-Nbins drop",
            data[(512, 2)][2048] > 1.5 * data[(512, 1)][2048]
            and data[(128, 4)][4096] > 1.5 * data[(128, 1)][4096],
        ),
        Check(
            "block 128: CS=4 is optimal-or-tied at 4096 bins "
            "(paper: CS=4 for block 128)",
            data[(128, 4)][4096]
            >= max(data[(128, cs)][4096] for cs in (1, 2, 8)) * 0.999,
        ),
        Check(
            "block 512: CS=2 beats CS=1 at 2048 bins "
            "(paper: CS=2 for block 512)",
            data[(512, 2)][2048] > data[(512, 1)][2048],
        ),
    ]
    return table, checks
