"""Extension experiments — beyond the paper's published artefacts.

The paper names several things it does not measure (TMA, numeric
behaviour, FP8 accuracy, DPX at application level).  These experiments
fill those gaps with the same harness discipline: regenerate, check,
report.  They carry an ``ext_`` prefix so the paper artefacts stay
clearly separated.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.arch import get_device
from repro.core.checks import Check, approx
from repro.core.context import RunContext
from repro.core.tables import Table


def ext_tma(ctx: RunContext) -> Tuple[Table, List[Check]]:
    from repro.asynccopy import TmaModel
    from repro.isa.memory_ops import TmaCopy
    h800 = get_device(ctx.pin("H800"))
    m = TmaModel(h800)
    table = Table(
        "TMA vs cp.async on H800",
        ["tile KiB", "TMA cycles", "one-shot B/clk",
         "sustained B/clk", "cp.async instrs", "issue reduction"],
    )
    rows = {}
    for kib in (1, 4, 16, 64):
        t = m.transfer(TmaCopy(tile_bytes=kib * 1024))
        instrs = m.cp_async_equivalent_instructions(kib * 1024)
        rows[kib] = (t, instrs)
        table.add_row(kib, round(t.cycles, 1),
                      round(t.bytes_per_clk, 1),
                      round(t.sustained_bytes_per_clk, 1),
                      instrs, f"{instrs}x")
    checks = [
        Check("TMA always issues exactly one instruction",
              all(t.issuing_instructions == 1
                  for t, _ in rows.values())),
        Check("issue savings grow linearly with tile size",
              rows[64][1] == 64 * rows[1][1]),
        Check("pipelined large tiles approach the streaming width",
              rows[64][0].sustained_bytes_per_clk
              > 0.9 * h800.mem_widths.l1_bytes_per_clk_sm),
        Check("small one-shot tiles are overhead-dominated",
              rows[1][0].bytes_per_clk
              < 0.6 * rows[64][0].bytes_per_clk),
    ]
    return table, checks


def ext_cache_detection(ctx: RunContext) -> Tuple[Table, List[Check]]:
    from repro.memory import CacheProbe
    table = Table(
        "Detected vs configured cache parameters",
        ["Device", "parameter", "detected", "configured"],
    )
    checks = []
    for dev_name in ctx.select("RTX4090", "A100", "H800", "B200",
                               "V100"):
        dev = get_device(dev_name)
        params = CacheProbe(dev).detect()
        geo = dev.cache
        pairs = [
            ("L1 capacity (KiB)", params.l1_capacity_bytes // 1024,
             geo.l1_size_kib),
            ("fill sector (B)", params.l1_sector_bytes,
             geo.sector_bytes),
            ("L1 ways", params.l1_ways, geo.l1_associativity),
        ]
        for name, detected, configured in pairs:
            table.add_row(dev_name, name, detected, configured)
            checks.append(Check(
                f"{dev_name}: detected {name} matches ground truth",
                detected == configured,
                detail=f"{detected} vs {configured}",
            ))
    return table, checks


def ext_dpx_apps(ctx: RunContext) -> Tuple[Table, List[Check]]:
    from repro.dp import FloydWarshall, SmithWaterman, \
        estimate_kernel_time
    devices = ctx.device_order("A100", "RTX4090", "H800")
    with_speedup = ctx.has("H800", "A100")
    rng = np.random.default_rng(ctx.seed)
    bases = np.array(list("ACGT"))
    a = "".join(rng.choice(bases, 64))
    b = "".join(rng.choice(bases, 64))
    sw = SmithWaterman().align(a, b)
    fw = FloydWarshall().run(
        FloydWarshall.from_edges(
            32, [(int(u), int(v), int(w)) for u, v, w in
                 zip(rng.integers(0, 32, 100),
                     rng.integers(0, 32, 100),
                     rng.integers(1, 9, 100))]))

    table = Table(
        "DP kernels on DPX: estimated time (us)",
        ["kernel", "DPX calls", *devices]
        + (["H800 vs A100"] if with_speedup else []),
    )
    speedups = {}
    for name, calls, fn in (
        ("Smith-Waterman 64x64", sw.dpx_calls, "__viaddmax_s32_relu"),
        ("Floyd-Warshall n=32", fw.dpx_calls, "__viaddmin_s32"),
    ):
        times = {d: estimate_kernel_time(get_device(d), calls,
                                         function_name=fn).seconds
                 for d in devices}
        extra = []
        if with_speedup:
            s = times["A100"] / times["H800"]
            speedups[name] = s
            extra = [f"{s:.1f}x"]
        table.add_row(name, calls,
                      *(round(times[d] * 1e6, 4) for d in devices),
                      *extra)
    checks = []
    if with_speedup:
        checks += [
            Check("H800 leads on the relu-fused alignment kernel",
                  speedups["Smith-Waterman 64x64"] > 2.5),
            Check("H800 leads on the add-min relaxation kernel",
                  speedups["Floyd-Warshall n=32"] > 1.5),
        ]
    checks.append(Check("alignment issues 2 DPX calls per cell",
                        sw.dpx_calls == 2 * sw.cells))
    return table, checks


def ext_fp8_accuracy(ctx: RunContext) -> Tuple[Table, List[Check]]:
    from repro.te import Precision
    from repro.te.accuracy import layer_accuracy, linear_accuracy
    table = Table(
        "Relative RMS error vs FP64 reference",
        ["module", "precision", "rel RMS", "rel max"],
    )
    lin = {r.precision: r for r in linear_accuracy(seed=ctx.seed)}
    for p, r in lin.items():
        table.add_row("Linear 256x256", p.name, f"{r.rel_rms:.2e}",
                      f"{r.rel_max:.2e}")
    layer = layer_accuracy(seed=ctx.seed)
    table.add_row("TransformerLayer", "FP8",
                  f"{layer[Precision.FP8].rel_rms:.2e}",
                  f"{layer[Precision.FP8].rel_max:.2e}")
    checks = [
        Check("error orders FP16 < BF16 < FP8",
              lin[Precision.FP16].rel_rms < lin[Precision.BF16].rel_rms
              < lin[Precision.FP8].rel_rms),
        Check("FP8 Linear stays under 5% relative RMS",
              lin[Precision.FP8].rel_rms < 0.05),
        Check("full-layer FP8 error stays under 5% (high-precision "
              "norms/attention dampen it)",
              layer[Precision.FP8].rel_rms < 0.05),
    ]
    return table, checks


def ext_tma_pipeline(ctx: RunContext) -> Tuple[Table, List[Check]]:
    from repro.asynccopy import AsyncCopyConfig, CopyVariant, \
        TiledMatmulModel
    m = TiledMatmulModel(get_device(ctx.pin("H800")))
    table = Table(
        "globalToShmemAsyncCopy with a TMA pipeline (GFLOP/s, H800)",
        ["block", "variant", "1", "4", "16", "32"],
    )
    grid = {}
    for b in (8, 16, 32):
        for variant in (CopyVariant.TMA, CopyVariant.ASYNC,
                        CopyVariant.SYNC):
            row = [m.throughput_gflops(AsyncCopyConfig(b, nb, variant))
                   for nb in (1, 4, 16, 32)]
            grid[(b, variant)] = row
            table.add_row(f"{b}x{b}", variant.value,
                          *(round(v) for v in row))
    checks = [
        Check("TMA never loses to cp.async at any point",
              all(t >= a * 0.999
                  for b in (8, 16, 32)
                  for t, a in zip(grid[(b, CopyVariant.TMA)],
                                  grid[(b, CopyVariant.ASYNC)]))),
        Check("TMA's relative gain is largest at small blocks "
              "(issue-stream relief matters most there)",
              grid[(8, CopyVariant.TMA)][0]
              / grid[(8, CopyVariant.ASYNC)][0]
              > grid[(32, CopyVariant.TMA)][0]
              / grid[(32, CopyVariant.ASYNC)][0]),
        Check("at 32×32 TMA recovers the ground cp.async loses to "
              "SyncShare",
              grid[(32, CopyVariant.TMA)][3]
              >= grid[(32, CopyVariant.SYNC)][3] * 0.999),
    ]
    return table, checks


def ext_mma_full(ctx: RunContext) -> Tuple[Table, List[Check]]:
    from repro.isa.dtypes import DType
    from repro.isa.lowering import UnsupportedInstruction
    from repro.isa.mma import MmaInstruction, mma_shapes
    from repro.tensorcore import TensorCoreTimingModel
    pairs = [
        (DType.BF16, DType.FP32),
        (DType.FP64, DType.FP64),
        (DType.INT4, DType.INT32),
        (DType.BIN1, DType.INT32),
    ]
    devices = ctx.device_order("A100", "RTX4090", "H800")
    table = Table(
        "Extended mma matrix: dense throughput (TFLOPS/TOPS)",
        ["A/B", "C/D", "Shape", *devices],
    )
    data = {}
    for ab, cd in pairs:
        shape = mma_shapes(ab)[-1]
        cells = []
        for d in devices:
            dev = get_device(d)
            try:
                t = TensorCoreTimingModel(dev).mma(
                    MmaInstruction(ab, cd, shape))
            except UnsupportedInstruction:
                # no such unit on this device (FP64 TC on Ada) or the
                # instruction predates the architecture (Volta)
                cells.append("×")
                continue
            data[(ab, d)] = t
            cells.append(round(t.throughput_tflops(), 1))
        table.add_row(ab.paper_label, cd.paper_label,
                      shape.modifier, *cells)
    fp16_rates = {
        d: TensorCoreTimingModel(get_device(d)).mma(
            MmaInstruction(DType.FP16, DType.FP32,
                           mma_shapes(DType.FP16)[-1])
        ).throughput_tflops()
        for d in devices if d != "RTX4090"  # Ada halves FP32-acc
    }
    checks: List[Check] = []
    if ctx.has("A100", "H800"):
        checks.append(Check(
            "BF16 matches the FP16 (fp32-acc) rate on A100/H800",
            all(abs(data[(DType.BF16, d)].throughput_tflops()
                    / fp16_rates[d] - 1) < 1e-6
                for d in ("A100", "H800"))))
    if ctx.has("A100"):
        checks.append(Check(
            "binary runs at 8× the INT8 rate class (A100)",
            data[(DType.BIN1, "A100")].throughput_tflops() > 4000))
    if ctx.has("A100", "RTX4090"):
        checks.append(Check(
            "INT4 stays on tensor cores on Ampere/Ada",
            data[(DType.INT4, "A100")].on_tensor_core
            and data[(DType.INT4, "RTX4090")].on_tensor_core))
    if ctx.has("H800", "A100"):
        checks.append(Check(
            "INT4 collapses onto CUDA cores on Hopper "
            "(orders of magnitude slower)",
            not data[(DType.INT4, "H800")].on_tensor_core
            and data[(DType.INT4, "H800")].throughput_tflops()
            < 0.05 * data[(DType.INT4, "A100")].throughput_tflops()))
    if ctx.has("A100", "RTX4090", "H800"):
        checks.append(Check(
            "FP64 tensor cores: A100 healthy, H800 fused down, "
            "Ada absent",
            (DType.FP64, "RTX4090") not in data
            and data[(DType.FP64, "A100")].throughput_tflops() > 15
            and data[(DType.FP64, "H800")].throughput_tflops() < 2))
    return table, checks


def ext_coalescing(ctx: RunContext) -> Tuple[Table, List[Check]]:
    from repro.memory.coalescing import efficiency_vs_stride, \
        strided_access
    strides = [4, 8, 16, 32, 64, 128]
    curve = efficiency_vs_stride(strides)
    table = Table(
        "Global-load efficiency vs stride (FP32 lanes)",
        ["stride B", "efficiency", "sectors/warp"],
    )
    for s in strides:
        table.add_row(s, round(curve[s], 3),
                      strided_access(s).sectors)
    mis = strided_access(4, base=2)
    checks = [
        Check("unit stride is perfectly coalesced", curve[4] == 1.0),
        Check("efficiency floors at 4/32 once each lane owns a sector",
              curve[32] == curve[128] == 4 / 32),
        Check("misalignment costs one extra sector",
              mis.sectors == 5 and mis.efficiency < 1.0),
    ]
    return table, checks


def ext_trace_sim(ctx: RunContext) -> Tuple[Table, List[Check]]:
    from repro.isa import MatrixShape, MmaInstruction
    from repro.isa.dtypes import DType
    from repro.tensorcore import TensorCoreTimingModel
    from repro.trace import SmSimulator, TraceBuilder
    h800 = get_device(ctx.pin("H800"))
    instr = MmaInstruction(DType.FP16, DType.FP32,
                           MatrixShape(16, 8, 16))
    timing = TensorCoreTimingModel(h800).mma(instr)
    sim = SmSimulator()
    n = 96
    chain = sim.run([TraceBuilder.mma_accumulate_loop(h800, instr, n)])
    streams = sim.run([
        TraceBuilder.mma_independent(h800, instr, n, accumulators=8)
        for _ in range(4)
    ])
    sim_lat = chain.cycles / n
    sim_tflops = (4 * n * instr.flops / streams.cycles
                  * h800.num_sms * h800.clocks.observed_hz / 1e12)

    table = Table(
        "Cycle simulator vs analytical model (H800, mma.m16n8k16)",
        ["quantity", "simulator", "analytical model"],
    )
    table.add_row("dependent-chain latency (clk)", round(sim_lat, 2),
                  round(timing.latency_clk, 2))
    table.add_row("4-warp throughput (TFLOPS)", round(sim_tflops, 1),
                  round(timing.throughput_tflops(), 1))
    checks = [
        approx("simulated chain latency matches the calibrated "
               "latency", sim_lat, timing.latency_clk, rel_tol=0.05),
        approx("simulated saturated throughput matches Table VII",
               sim_tflops, timing.throughput_tflops(), rel_tol=0.10),
    ]
    return table, checks


def ext_llm_batch(ctx: RunContext) -> Tuple[Table, List[Check]]:
    from repro.te import LLAMA_MODELS, LlmInferenceModel, Precision
    m = LlmInferenceModel(get_device(ctx.pin("H800")))
    spec = LLAMA_MODELS["llama-2-7B"]
    batches = (1, 2, 4, 8, 16, 32, 64)
    table = Table(
        "llama-2-7B on H800: tokens/s vs batch",
        ["batch", "BF16", "FP8", "FP8/BF16"],
    )
    series = {}
    for p in (Precision.BF16, Precision.FP8):
        series[p] = [
            m.estimate(spec, p, batch=b).tokens_per_second
            for b in batches
        ]
    for i, b in enumerate(batches):
        bf, f8 = series[Precision.BF16][i], series[Precision.FP8][i]
        table.add_row(b, round(bf, 1), round(f8, 1),
                      round(f8 / bf, 3))
    checks = [
        Check("throughput grows with batch (decode streams weights "
              "once per step regardless of batch)",
              all(a < b for a, b in zip(series[Precision.BF16],
                                        series[Precision.BF16][1:]))),
        Check("FP8 gains relative ground as batch grows "
              "(prefill becomes compute-bound)",
              series[Precision.FP8][-1] / series[Precision.BF16][-1]
              > series[Precision.FP8][0]
              / series[Precision.BF16][0]),
        Check("at the paper's batch 8, FP8 still does not win",
              series[Precision.FP8][3]
              <= series[Precision.BF16][3] * 1.1),
    ]
    return table, checks


def ext_attention(ctx: RunContext) -> Tuple[Table, List[Check]]:
    from repro.te import CostModel, DotProductAttention, Precision
    cm = CostModel(get_device(ctx.pin("H800")))
    att = DotProductAttention(num_heads=32, head_dim=128)
    seqs = (512, 1024, 2048, 4096, 8192)
    table = Table(
        "DotProductAttention (32 heads × 128) latency vs sequence",
        ["seq", "ms", "ms per token"],
    )
    secs = att.seconds_grid(cm, [4 * s for s in seqs], Precision.FP16,
                            batch=4).tolist()
    times = dict(zip(seqs, secs))
    for s, sec in times.items():
        table.add_row(s, round(1e3 * sec, 3),
                      round(1e6 * sec / (4 * s), 3))
    checks = [
        Check("long-sequence attention scales ~quadratically "
              "(compute-bound regime)",
              3.0 < times[8192] / times[4096] < 4.5),
        Check("short sequences scale sub-quadratically "
              "(IO + launch overhead dilute the s² term)",
              times[1024] / times[512] < 3.5),
    ]
    return table, checks


def ext_roofline(ctx: RunContext) -> Tuple[Table, List[Check]]:
    from repro.sm import BlockConfig, KernelSpec, Roofline
    devices = ctx.device_order("A100", "RTX4090", "H800")
    workloads = {
        "LLM decode (7B bf16, b=8)": KernelSpec(
            name="decode", block=BlockConfig(threads=256),
            num_blocks=1024, tc_flops_per_thread=1000.0,
            dram_bytes_per_thread=1000.0),
        "GEMM 8192^3 fp16": KernelSpec(
            name="gemm", block=BlockConfig(threads=256),
            num_blocks=1024, tc_flops_per_thread=2.7e6,
            dram_bytes_per_thread=2000.0),
        "histogram": KernelSpec(
            name="hist", block=BlockConfig(threads=128),
            num_blocks=1024, flops_per_thread=4.0,
            dram_bytes_per_thread=4.0),
    }
    table = Table(
        "Roofline placement (FP16 tensor roof)",
        ["workload", "FLOP/B"] + [f"{d} bound" for d in devices],
    )
    bounds = {}
    ridge = {}
    for d in devices:
        ridge[d] = Roofline(get_device(d), "fp16").ridge_point
    for name, spec in workloads.items():
        cells = []
        for d in devices:
            p = Roofline(get_device(d), "fp16").place(spec)
            bounds[(name, d)] = p.bound
            cells.append(p.bound)
        table.add_row(name, round(spec.arithmetic_intensity, 1),
                      *cells)
    checks = [
        Check("LLM decode is memory-bound everywhere "
              "(the Table XII story)",
              all(bounds[("LLM decode (7B bf16, b=8)", d)] == "memory"
                  for d in devices)),
        Check("the big GEMM is compute-bound everywhere "
              "(the Table VIII story)",
              all(bounds[("GEMM 8192^3 fp16", d)] == "compute"
                  for d in devices)),
    ]
    if ctx.has("A100", "RTX4090", "H800"):
        checks.append(Check(
            "H800 has the highest FP16 ridge point "
            "(most bandwidth-hungry balance)",
            ridge["H800"] > max(ridge["A100"], ridge["RTX4090"])))
    return table, checks


def ext_numeric_probes(ctx: RunContext) -> Tuple[Table, List[Check]]:
    from repro.tensorcore.numerics_study import run_all_probes
    table = Table("Numeric behaviour of the modelled tensor cores",
                  ["probe", "behaviour", "detail"])
    checks = []
    for r in run_all_probes():
        table.add_row(r.name, r.behaviour, r.detail)
        checks.append(Check(f"probe: {r.name}", r.passed,
                            detail=r.detail))
    return table, checks
