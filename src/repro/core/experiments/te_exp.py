"""Figures 3–5 and Table XII — Transformer Engine and LLM inference."""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.arch import get_device
from repro.core.checks import Check, ratio_between
from repro.core.context import RunContext
from repro.core.tables import Table
from repro.te import (
    CostModel,
    LlmInferenceModel,
    Precision,
    TransformerLayer,
    TransformerLayerConfig,
)

_NS = (1024, 2048, 4096, 8192, 16384)


def fig03(ctx: RunContext) -> Tuple[Table, List[Check]]:
    cm = CostModel(get_device(ctx.pin("H800")))
    table = Table(
        "Fig 3: FP8 te.Linear operator time shares (H800)",
        ["N", "quantize_input %", "gemm %", "scale_out %"],
    )
    # one vectorized pass prices the whole N sweep
    ns = np.asarray(_NS)
    parts = cm.linear_breakdown_batch(ns, ns, ns, Precision.FP8)
    total = parts[0][1]
    for _, s in parts[1:]:
        total = total + s
    shares = {}
    for i, n in enumerate(_NS):
        share = {name: float(100 * s[i] / total[i]) for name, s in parts}
        shares[n] = share
        table.add_row(n, round(share.get("quantize_input", 0), 1),
                      round(share.get("gemm", 0), 1),
                      round(share.get("scale_out", 0), 1))
    checks = [
        Check(
            "at small N the conversion overhead dominates the GEMM "
            "(paper Fig 3)",
            shares[1024]["quantize_input"] + shares[1024]["scale_out"]
            > shares[1024]["gemm"],
        ),
        Check(
            "at N=16384 the GEMM dominates (>80%)",
            shares[16384]["gemm"] > 80.0,
        ),
        Check(
            "GEMM share grows monotonically with N",
            all(shares[a]["gemm"] <= shares[b]["gemm"]
                for a, b in zip(_NS, _NS[1:])),
        ),
    ]
    return table, checks


def fig04(ctx: RunContext) -> Tuple[Table, List[Check]]:
    devices = ctx.device_order("H800", "RTX4090", "A100")
    table = Table(
        "Fig 4: te.Linear N×N×N throughput (TFLOPS)",
        ["Device", "dtype"] + [str(n) for n in _NS],
    )
    data = {}
    for d in devices:
        cm = CostModel(get_device(d))
        for prec in (Precision.FP8, Precision.FP16, Precision.FP32):
            if not cm.supports(prec):
                continue
            row = [float(v) for v in
                   cm.linear_tflops_batch(np.asarray(_NS), prec)]
            data[(d, prec)] = dict(zip(_NS, row))
            table.add_row(d, prec.name, *(round(v, 1) for v in row))

    checks: List[Check] = []
    for d in ctx.select("H800", "RTX4090"):
        checks.append(Check(
            f"{d}: FP8 slower than FP16 at N=1024 (conversion overhead)",
            data[(d, Precision.FP8)][1024]
            < data[(d, Precision.FP16)][1024],
        ))
        checks.append(ratio_between(
            f"{d}: FP8 ≈ 2× FP16 at N=16384 (paper Fig 4)",
            data[(d, Precision.FP8)][16384],
            data[(d, Precision.FP16)][16384], 1.6, 2.2,
        ))
    checks.append(Check(
        "throughput grows with matrix size for every device/dtype",
        all(vals[a] <= vals[b] * 1.001
            for vals in data.values() for a, b in zip(_NS, _NS[1:])),
    ))
    if ctx.has("A100"):
        checks.append(Check(
            "A100 offers no FP8 path",
            (("A100", Precision.FP8) not in data),
        ))
    return table, checks


def fig05(ctx: RunContext) -> Tuple[Table, List[Check]]:
    devices = ctx.device_order("H800", "RTX4090", "A100")
    hiddens = sorted(TransformerLayerConfig.PAPER_CONFIGS)
    table = Table(
        "Fig 5: te.TransformerLayer latency (ms), batch 4 × seq 512",
        ["Device", "dtype"] + [str(h) for h in hiddens],
    )
    data = {}
    for d in devices:
        dev = get_device(d)
        cm = CostModel(dev)
        for prec in (Precision.FP8, Precision.FP16, Precision.FP32):
            if not cm.supports(prec):
                continue
            row = []
            for h in hiddens:
                layer = TransformerLayer(
                    TransformerLayerConfig.PAPER_CONFIGS[h])
                row.append(float(layer.latency_ms_grid(
                    cm, precision=prec)))
            data[(d, prec)] = dict(zip(hiddens, row))
            table.add_row(d, prec.name, *(round(v, 3) for v in row))

    checks: List[Check] = []
    if ctx.has("H800"):
        checks.append(ratio_between(
            "H800: FP16 ≈ 2× faster than FP32 at hidden 8192 "
            "(paper Fig 5)",
            data[("H800", Precision.FP32)][8192],
            data[("H800", Precision.FP16)][8192], 1.6, 2.2,
        ))
        checks.append(Check(
            "H800: FP8 beats FP16 for hidden > 4096",
            all(data[("H800", Precision.FP8)][h]
                < data[("H800", Precision.FP16)][h]
                for h in (5120, 8192)),
        ))
        checks.append(Check(
            "FP8 gain stays below 2× (unquantised operators remain, "
            "paper §IV-D)",
            data[("H800", Precision.FP16)][8192]
            / data[("H800", Precision.FP8)][8192] < 2.0,
        ))
    if ctx.has("H800", "RTX4090", "A100"):
        checks.append(Check(
            "H800 is the fastest device at hidden 8192 FP16 "
            "(computational density favours Hopper)",
            data[("H800", Precision.FP16)][8192]
            < min(data[("RTX4090", Precision.FP16)][8192],
                  data[("A100", Precision.FP16)][8192]),
        ))
    return table, checks


def table12(ctx: RunContext) -> Tuple[Table, List[Check]]:
    devices = ctx.device_order("RTX4090", "A100", "H800")
    table = Table(
        "Table XII: inference throughput (tokens/s), batch 8, "
        "in/out ≤ 128",
        ["GPU", "Model", "FP32", "BF16", "FP8"],
    )
    cells = {}
    for d in devices:
        m = LlmInferenceModel(get_device(d))
        models = (("llama-3B", "llama-2-7B")
                  if d == "RTX4090"
                  else ("llama-3B", "llama-2-7B", "llama-2-13B"))
        for row in m.table12_rows(models=models):
            table.add_dict_row(row)
            cells[(d, row["Model"])] = row

    checks: List[Check] = []
    if ctx.has("RTX4090"):
        checks.append(Check(
            "RTX4090 (24 GB): llama-2-7B FP32 and FP8 OOM, BF16 fits",
            cells[("RTX4090", "llama-2-7B")]["FP32"] == "OOM"
            and cells[("RTX4090", "llama-2-7B")]["FP8"] == "OOM"
            and cells[("RTX4090", "llama-2-7B")]["BF16"] != "OOM"))
    if ctx.has("A100"):
        checks.append(Check(
            "A100 (40 GB): llama-2-13B FP32 OOM, BF16 fits",
            cells[("A100", "llama-2-13B")]["FP32"] == "OOM"
            and cells[("A100", "llama-2-13B")]["BF16"] != "OOM"))
        checks.append(Check(
            "A100 has no FP8 column",
            all(cells[("A100", m)]["FP8"] == "-"
                for m in ("llama-3B", "llama-2-7B", "llama-2-13B"))))
    if ctx.has("H800"):
        checks.append(Check(
            "H800 (80 GB) runs every model at every precision",
            all(cells[("H800", m)][p] not in ("OOM", "-")
                for m in ("llama-3B", "llama-2-7B", "llama-2-13B")
                for p in ("FP32", "BF16", "FP8"))))
        # the headline finding: FP8 gives no significant decode
        # advantage
        for m in ("llama-3B", "llama-2-7B"):
            row = cells[("H800", m)]
            fp8 = float(row["FP8"])
            bf16 = float(row["BF16"])
            checks.append(Check(
                f"H800 {m}: FP8 decode ≤ ~BF16 (memory-bound, paper "
                "§IV-D)",
                fp8 <= bf16 * 1.1,
                detail=f"FP8 {fp8:.0f} vs BF16 {bf16:.0f}",
            ))
        checks.append(Check(
            "throughput decreases with model size (H800 BF16)",
            float(cells[("H800", "llama-3B")]["BF16"])
            > float(cells[("H800", "llama-2-7B")]["BF16"])
            > float(cells[("H800", "llama-2-13B")]["BF16"]),
        ))
    return table, checks
