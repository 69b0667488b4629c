"""Tables VI–XI — SASS lowering, mma/wgmma latency, throughput, energy."""

from __future__ import annotations

from typing import List, Tuple

from repro.arch import get_device
from repro.core.checks import Check, approx, ordered, ratio_between
from repro.core.context import RunContext
from repro.core.tables import Table
from repro.isa.dtypes import DType
from repro.isa.lowering import sass_table
from repro.isa.mma import (
    MatrixShape,
    MmaInstruction,
    OperandSource,
    WgmmaInstruction,
)
from repro.power import PowerModel
from repro.tensorcore import TensorCoreTimingModel

#: the paper's column order for Table VII
_PAPER_ORDER = ("A100", "RTX4090", "H800")

#: the Table VII grid: (A/B, C/D, shapes)
_MMA_GRID = [
    (DType.FP16, DType.FP16, [(16, 8, 8), (16, 8, 16)]),
    (DType.FP16, DType.FP32, [(16, 8, 8), (16, 8, 16)]),
    (DType.TF32, DType.FP32, [(16, 8, 4), (16, 8, 8)]),
    (DType.INT8, DType.INT32, [(16, 8, 16), (16, 8, 32)]),
]

#: the Tables VIII/IX dtype pairs
_WGMMA_PAIRS = [
    (DType.FP16, DType.FP16),
    (DType.FP16, DType.FP32),
    (DType.TF32, DType.FP32),
    (DType.E4M3, DType.FP16),
    (DType.E4M3, DType.FP32),
    (DType.INT8, DType.INT32),
]


def table06(ctx: RunContext) -> Tuple[Table, List[Check]]:
    # The paper lowers on the H800; any other context sweeps its own
    # lead device's architecture through the same Table VI grid.
    pack = get_device(ctx.device_order("H800")[0]).pack
    rows = sass_table(pack)
    table = Table(f"Table VI: {pack.display_name} SASS for "
                  "tensor-core PTX",
                  ["A/B", "C/D", "mma", "wgmma"])
    for r in rows:
        table.add_dict_row(r)
    by_ab = {(r["A/B"], r["C/D"]): r for r in rows}
    checks = [
        Check("INT4 has no wgmma",
              by_ab[("INT4", "INT32")]["wgmma"] == "×"),
        Check("FP8 has no mma on any architecture",
              all(r["mma"] == "×" for r in rows if "FP8" in r["A/B"])),
    ]
    if pack.int4_mma_emulated:
        checks.insert(0, Check(
            "INT4 mma lowers to CUDA-core IMAD on Hopper",
            by_ab[("INT4", "INT32")]["mma"].startswith("IMAD")))
    if pack.has_wgmma:
        checks += [
            Check("FP8 wgmma lowers to QGMMA (both E4M3 and E5M2)",
                  all(r["wgmma"].startswith("QGMMA")
                      for r in rows if "FP8" in r["A/B"])),
            Check("FP16 wgmma lowers to HGMMA.64x256x16",
                  by_ab[("FP16", "FP32")]["wgmma"]
                  == "HGMMA.64x256x16.F32"),
        ]
    else:
        checks.append(Check(
            f"{pack.display_name} has no wgmma lowering",
            all(r["wgmma"] == "×" for r in rows)))
    if pack.supports_mma_input(DType.BIN1.peak_key):
        checks.append(Check(
            "binary mma lowers to BMMA.168256.AND.POPC",
            by_ab[("Binary", "INT32")]["mma"]
            == "BMMA.168256.AND.POPC"))
    return table, checks


def _mma_instr(ab, cd, shape, sparse):
    return MmaInstruction(ab, cd, MatrixShape(*shape), sparse=sparse)


def _lat_thpt_cell(entry) -> str:
    """One Table VII cell — "×" where the instruction doesn't exist on
    the device's architecture (e.g. TF32/sparse mma on Volta)."""
    if not entry.supported:
        return "×"
    return (f"{entry.latency_clk:.1f}"
            f"/{entry.throughput_tflops():.1f}")


def table07(ctx: RunContext) -> Tuple[Table, List[Check]]:
    devices = ctx.device_order(*_PAPER_ORDER)
    table = Table(
        "Table VII: mma latency (clk) / throughput (TFLOPS or TOPS)",
        ["A/B", "C/D", "Shape"] + [
            f"{d} {k}" for d in devices for k in ("Dense", "Sparse")
        ],
    )
    # one vectorized sweep per device prices the whole grid
    combos = [(ab, cd, shape)
              for ab, cd, shapes in _MMA_GRID for shape in shapes]
    sweeps = {
        d: TensorCoreTimingModel(get_device(d)).mma_sweep(
            [_mma_instr(ab, cd, shape, sparse)
             for ab, cd, shape in combos for sparse in (False, True)])
        for d in devices
    }
    data = {}
    for j, (ab, cd, shape) in enumerate(combos):
        cells = []
        for d in devices:
            dd = sweeps[d][2 * j]
            sp = sweeps[d][2 * j + 1]
            data[(ab, cd, shape, d)] = (dd, sp)
            cells += [_lat_thpt_cell(dd), _lat_thpt_cell(sp)]
        table.add_row(ab.paper_label, cd.paper_label,
                      f"m{shape[0]}n{shape[1]}k{shape[2]}", *cells)

    checks: List[Check] = []
    # larger shapes achieve higher throughput on A100/H800, not Ada
    for d in ctx.select("A100", "H800"):
        small = data[(DType.FP16, DType.FP16, (16, 8, 8), d)][0]
        large = data[(DType.FP16, DType.FP16, (16, 8, 16), d)][0]
        checks.append(Check(
            f"{d}: larger mma shape throughput ≥ smaller",
            large.throughput_tflops() >= small.throughput_tflops(),
        ))
    # sparse speedups
    if ctx.has("RTX4090"):
        d16 = data[(DType.FP16, DType.FP16, (16, 8, 16), "RTX4090")]
        checks.append(ratio_between(
            "RTX4090: sparse mma ≈ 2× dense (vendor claim holds)",
            d16[1].throughput_tflops(), d16[0].throughput_tflops(),
            1.9, 2.1,
        ))
    if ctx.has("A100"):
        a16 = data[(DType.FP16, DType.FP16, (16, 8, 16), "A100")]
        checks.append(ratio_between(
            "A100: large-shape sparse mma reaches the 2× speedup",
            a16[1].throughput_tflops(), a16[0].throughput_tflops(),
            1.9, 2.1,
        ))
    if ctx.has("H800"):
        # H800 sparse average speedup ≈ 1.42
        ratios = []
        for ab, cd, shapes in _MMA_GRID:
            for shape in shapes:
                dd, sp = data[(ab, cd, shape, "H800")]
                ratios.append(sp.throughput_tflops()
                              / dd.throughput_tflops())
        checks.append(approx(
            "H800: sparse mma averages ≈1.42× dense (paper §IV-C)",
            sum(ratios) / len(ratios), 1.42, rel_tol=0.08,
        ))
        # fraction of peak
        fracs = []
        for ab, cd, shapes in _MMA_GRID:
            for shape in shapes:
                fracs.append(data[(ab, cd, shape, "H800")][0]
                             .fraction_of_peak())
        checks.append(approx(
            "H800: dense mma averages ≈62.9% of peak (paper §IV-C)",
            100 * sum(fracs) / len(fracs), 62.9, rel_tol=0.10,
        ))
    if ctx.has("A100"):
        a_fracs = [data[(ab, cd, shapes[-1], "A100")][0]
                   .fraction_of_peak()
                   for ab, cd, shapes in _MMA_GRID]
        checks.append(Check(
            "A100: large-shape dense mma exceeds 95% of peak",
            min(a_fracs) > 0.95,
            detail=f"min {min(a_fracs):.3f}",
        ))
    if ctx.has("RTX4090"):
        checks.append(Check(
            "RTX4090 exceeds its official peak (runs above boost "
            "clock)",
            data[(DType.FP16, DType.FP16, (16, 8, 16), "RTX4090")][0]
            .throughput_tflops() > 330.3,
        ))
    # dense and sparse latency are equal (where sparse mma exists)
    for d in devices:
        dd, sp = data[(DType.FP16, DType.FP16, (16, 8, 16), d)]
        if not (dd.supported and sp.supported):
            continue
        checks.append(Check(
            f"{d}: sparse and dense mma latencies match",
            abs(dd.latency_clk - sp.latency_clk) < 1.0,
        ))
    return table, checks


def _wgmma_rows(device: str, sparse: bool):
    tm = TensorCoreTimingModel(get_device(device))
    sweep = tm.wgmma_sweep([
        WgmmaInstruction(ab, cd, 256, sparse=sparse, a_source=src)
        for ab, cd in _WGMMA_PAIRS
        for src in (OperandSource.SHARED, OperandSource.REGISTER)
    ])
    return {pair: (sweep[2 * i], sweep[2 * i + 1])
            for i, pair in enumerate(_WGMMA_PAIRS)}


def table08(ctx: RunContext) -> Tuple[Table, List[Check]]:
    rows = _wgmma_rows(ctx.pin("H800"), sparse=False)
    table = Table(
        "Table VIII: dense wgmma m64n256kK on H800",
        ["A/B", "C/D", "LAT/Thpt (SS,Zero)", "LAT/Thpt (RS,Zero)",
         "Thpt (SS,Rand)", "Thpt (RS,Rand)"],
    )
    for (ab, cd), (ss, rs) in rows.items():
        table.add_row(
            ab.paper_label, cd.paper_label,
            f"{ss.latency_clk:.1f}/{ss.throughput_tflops():.1f}",
            f"{rs.latency_clk:.1f}/{rs.throughput_tflops():.1f}",
            f"{ss.throughput_tflops('rand'):.1f}",
            f"{rs.throughput_tflops('rand'):.1f}",
        )
    checks: List[Check] = []
    for (ab, cd), (ss, rs) in rows.items():
        checks.append(Check(
            f"{ab.paper_label}/{cd.paper_label}: dense SS and RS tie "
            "(latency 128, same throughput)",
            ss.latency_clk == 128.0 and rs.latency_clk == 128.0
            and abs(ss.throughput_tflops() - rs.throughput_tflops())
            / rs.throughput_tflops() < 0.02,
        ))
        checks.append(Check(
            f"{ab.paper_label}/{cd.paper_label}: zero-init reaches "
            ">95% of peak",
            ss.fraction_of_peak() > 0.95,
            detail=f"{100 * ss.fraction_of_peak():.1f}%",
        ))
    ss16_32, _ = rows[(DType.FP16, DType.FP32)]
    ss16_16, _ = rows[(DType.FP16, DType.FP16)]
    drop_f32 = (ss16_32.throughput_tflops("rand")
                / ss16_32.throughput_tflops("zero"))
    drop_f16 = (ss16_16.throughput_tflops("rand")
                / ss16_16.throughput_tflops("zero"))
    checks.append(Check(
        "random data throttles FP16+FP32-acc hardest (350 W cap, "
        "paper §IV-C)",
        drop_f32 < drop_f16 < 1.0,
        detail=f"f32acc {drop_f32:.3f}, f16acc {drop_f16:.3f}",
    ))
    return table, checks


def table09(ctx: RunContext) -> Tuple[Table, List[Check]]:
    rows = _wgmma_rows(ctx.pin("H800"), sparse=True)
    table = Table(
        "Table IX: sparse wgmma sp.m64n256kK on H800",
        ["A/B", "C/D", "LAT/Thpt (SS,Zero)", "LAT/Thpt (RS,Zero)",
         "Thpt (SS,Rand)", "Thpt (RS,Rand)"],
    )
    for (ab, cd), (ss, rs) in rows.items():
        table.add_row(
            ab.paper_label, cd.paper_label,
            f"{ss.latency_clk:.1f}/{ss.throughput_tflops():.1f}",
            f"{rs.latency_clk:.1f}/{rs.throughput_tflops():.1f}",
            f"{ss.throughput_tflops('rand'):.1f}",
            f"{rs.throughput_tflops('rand'):.1f}",
        )
    checks: List[Check] = []
    for (ab, cd), (ss, rs) in rows.items():
        checks.append(Check(
            f"{ab.paper_label}/{cd.paper_label}: sparse SS latency 144 "
            "vs RS 128 (unpruned-A traffic, paper §IV-C)",
            ss.latency_clk == 144.0 and rs.latency_clk == 128.0,
        ))
        checks.append(Check(
            f"{ab.paper_label}/{cd.paper_label}: sparse SS throughput "
            "< RS",
            ss.throughput_tflops() < rs.throughput_tflops(),
        ))
    _, rs = rows[(DType.FP16, DType.FP32)]
    checks.append(Check(
        "sparse RS zero-init reaches >95% of sparse peak",
        rs.fraction_of_peak() > 0.95,
    ))
    return table, checks


def table10(ctx: RunContext) -> Tuple[Table, List[Check]]:
    dev = get_device(ctx.pin("H800"))
    tm = TensorCoreTimingModel(dev)
    ns = (256, 128, 64, 32, 16, 8)
    table = Table(
        "Table X: wgmma m64nNk16 f32.f16 on H800 vs N",
        ["N", "Dense SS (LAT/Thpt)", "Dense RS (LAT/Thpt)",
         "Sparse SS (LAT/Thpt)", "Sparse RS (LAT/Thpt)"],
    )
    combos = [(n, sparse, src)
              for n in ns for sparse in (False, True)
              for src in (OperandSource.SHARED, OperandSource.REGISTER)]
    sweep = tm.wgmma_sweep([
        WgmmaInstruction(DType.FP16, DType.FP32, n, sparse=sparse,
                         a_source=src)
        for n, sparse, src in combos
    ])
    grid = {c: sweep[i] for i, c in enumerate(combos)}
    for n in ns:
        cells = [
            f"{t.latency_clk:.1f}/{t.throughput_tflops():.1f}"
            for sparse in (False, True)
            for src in (OperandSource.SHARED, OperandSource.REGISTER)
            for t in (grid[(n, sparse, src)],)
        ]
        table.add_row(n, cells[0], cells[1], cells[2], cells[3])

    peak = dev.tc_peak_tflops("fp16")
    checks: List[Check] = []
    for n in (64, 128, 256):
        t = grid[(n, False, OperandSource.SHARED)]
        checks.append(Check(
            f"N={n}: dense throughput ≥ 90% of peak (paper: N ≥ 64 "
            "approaches peak)",
            t.throughput_tflops() >= 0.90 * peak,
        ))
    for n in (8, 16, 32):
        ss = grid[(n, False, OperandSource.SHARED)]
        rs = grid[(n, False, OperandSource.REGISTER)]
        checks.append(Check(
            f"N={n}: SS latency > RS latency and SS throughput < RS "
            "(small N exposes the shared-memory fetch)",
            ss.latency_clk > rs.latency_clk
            and ss.throughput_tflops() < rs.throughput_tflops(),
        ))
    dense_ss = [grid[(n, False, OperandSource.SHARED)]
                .throughput_tflops() for n in ns]
    checks.append(ordered(
        "dense SS throughput decreases monotonically as N shrinks",
        dense_ss, descending=True,
    ))
    checks.append(Check(
        "sparse SS latency is N/2 + 16 at every N",
        all(grid[(n, True, OperandSource.SHARED)].latency_clk
            == n / 2 + 16 for n in ns),
    ))
    return table, checks


def table11(ctx: RunContext) -> Tuple[Table, List[Check]]:
    devices = ctx.device_order("A100", "H800", "RTX4090")
    grid = [
        (DType.FP16, DType.FP16, (16, 8, 16)),
        (DType.FP16, DType.FP32, (16, 8, 16)),
        (DType.TF32, DType.FP32, (16, 8, 8)),
        (DType.INT8, DType.INT32, (16, 8, 32)),
    ]
    table = Table(
        "Table XI: mma power (W) and efficiency (TFLOPS/W)",
        ["A/B", "C/D", "T"] + [f"{d} {m}" for d in devices
                               for m in ("P", "E")],
    )
    sweeps = {
        d: TensorCoreTimingModel(get_device(d)).mma_sweep(
            [_mma_instr(ab, cd, shape, sparse)
             for ab, cd, shape in grid for sparse in (False, True)])
        for d in devices
    }
    eff = {}
    for gi, (ab, cd, shape) in enumerate(grid):
        for sparse in (False, True):
            cells = []
            for d in devices:
                dev = get_device(d)
                t = sweeps[d][2 * gi + (1 if sparse else 0)]
                if not t.supported:
                    cells += ["×", "×"]
                    continue
                rep = PowerModel(dev).report(
                    op="mma", ab=ab, cd=cd,
                    tflops=t.throughput_tflops("rand"), sparse=sparse,
                )
                eff[(ab, cd, sparse, d)] = \
                    rep.efficiency_tflops_per_watt
                cells += [round(rep.power_watts, 1),
                          round(rep.efficiency_tflops_per_watt, 2)]
            table.add_row(ab.paper_label, cd.paper_label,
                          "S" if sparse else "D", *cells)

    def avg_ratio(d_num, d_den, sparse):
        rs = [eff[(ab, cd, sparse, d_num)] / eff[(ab, cd, sparse, d_den)]
              for ab, cd, _ in grid]
        return sum(rs) / len(rs)

    checks: List[Check] = []
    if ctx.has("H800", "A100"):
        checks.append(approx(
            "dense: H800 efficiency ≈ 1.60× A100 (paper §IV-C)",
            avg_ratio("H800", "A100", False), 1.60, rel_tol=0.12))
    if ctx.has("H800", "RTX4090"):
        checks.append(approx(
            "dense: H800 efficiency ≈ 1.69× RTX4090",
            avg_ratio("H800", "RTX4090", False), 1.69, rel_tol=0.12))
    if ctx.has("H800", "A100"):
        checks.append(approx(
            "sparse: H800 efficiency ≈ 1.33× A100",
            avg_ratio("H800", "A100", True), 1.33, rel_tol=0.12))
    if ctx.has("H800", "RTX4090"):
        checks.append(approx(
            "sparse: H800 efficiency ≈ 1.39× RTX4090",
            avg_ratio("H800", "RTX4090", True), 1.39, rel_tol=0.12))
    checks.append(Check(
        "sparse always beats dense on energy efficiency",
        all(eff[(ab, cd, True, d)] > eff[(ab, cd, False, d)]
            for ab, cd, _ in grid
            for d in devices
            if (ab, cd, True, d) in eff and (ab, cd, False, d) in eff),
    ))
    return table, checks
