"""Model-fidelity scoring: simulator vs the paper's absolute numbers.

The reproduction's contract is *shape* (orderings, ratios, crossovers —
checked by the experiments), but because the models are mechanistic and
calibrated from primitive measurements, the absolute agreement is also
strong.  This module quantifies it: for every table with published
numbers it computes the per-cell relative error and a per-table MAPE
(mean absolute percentage error), and renders a fidelity report.

``hopperdissect fidelity`` prints it; tests pin per-table MAPE bounds
so a regression in any model shows up as a number, not a vibe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.arch import get_device
from repro.core import paperdata as P
from repro.core.tables import Table

__all__ = ["FidelityEntry", "TableFidelity", "fidelity_report",
           "compute_all"]


@dataclass(frozen=True)
class FidelityEntry:
    """One compared cell."""

    label: str
    paper: float
    model: float

    @property
    def rel_error(self) -> float:
        if self.paper == 0:
            return abs(self.model)
        return abs(self.model - self.paper) / abs(self.paper)


@dataclass(frozen=True)
class TableFidelity:
    """Fidelity of one paper table."""

    name: str
    entries: Tuple[FidelityEntry, ...]

    @property
    def mape(self) -> float:
        if not self.entries:
            return 0.0
        return sum(e.rel_error for e in self.entries) / len(self.entries)

    @property
    def worst(self) -> FidelityEntry:
        return max(self.entries, key=lambda e: e.rel_error)


# -- per-table comparators ----------------------------------------------------


def _table4() -> TableFidelity:
    from repro.memory import measure_latencies
    entries = []
    for dev, levels in P.TABLE4_LATENCY.items():
        got = measure_latencies(get_device(dev))
        for level, paper in levels.items():
            entries.append(FidelityEntry(f"{dev}/{level}", paper,
                                         got[level]))
    return TableFidelity("Table IV (latency)", tuple(entries))


def _table5() -> TableFidelity:
    from repro.memory import measure_throughputs
    entries = []
    for dev, metrics in P.TABLE5_THROUGHPUT.items():
        got = measure_throughputs(get_device(dev))
        for metric, paper in metrics.items():
            if metric in got:
                entries.append(FidelityEntry(f"{dev}/{metric}", paper,
                                             got[metric]))
    return TableFidelity("Table V (throughput)", tuple(entries))


def _mma_types(ab_label: str, cd_label: str):
    from repro.isa.dtypes import DType
    ab = {"FP16": DType.FP16, "TF32": DType.TF32, "INT8": DType.INT8,
          "FP8": DType.E4M3}[ab_label]
    cd = {"FP16": DType.FP16, "FP32": DType.FP32,
          "INT32": DType.INT32}[cd_label]
    return ab, cd


def _table7() -> TableFidelity:
    from repro.isa import MatrixShape, MmaInstruction
    from repro.tensorcore import TensorCoreTimingModel
    entries = []
    for (dev, ab_l, cd_l, shape_s), (lat, dense, sparse) in \
            P.TABLE7_MMA.items():
        ab, cd = _mma_types(ab_l, cd_l)
        m, n, k = (int(x) for x in
                   shape_s[1:].replace("n", " ").replace("k", " ")
                   .split())
        tm = TensorCoreTimingModel(get_device(dev))
        d = tm.mma(MmaInstruction(ab, cd, MatrixShape(m, n, k)))
        s = tm.mma(MmaInstruction(ab, cd, MatrixShape(m, n, k),
                                  sparse=True))
        tag = f"{dev}/{ab_l}.{cd_l}/{shape_s}"
        entries.append(FidelityEntry(f"{tag}/lat", lat, d.latency_clk))
        entries.append(FidelityEntry(f"{tag}/dense", dense,
                                     d.throughput_tflops()))
        entries.append(FidelityEntry(f"{tag}/sparse", sparse,
                                     s.throughput_tflops()))
    return TableFidelity("Table VII (mma)", tuple(entries))


def _wgmma_fidelity(sparse: bool) -> TableFidelity:
    from repro.isa import OperandSource, WgmmaInstruction
    from repro.tensorcore import TensorCoreTimingModel
    data = P.TABLE9_WGMMA_SPARSE if sparse else P.TABLE8_WGMMA_DENSE
    tm = TensorCoreTimingModel(get_device("H800"))
    entries = []
    for (ab_l, cd_l), vals in data.items():
        ab, cd = _mma_types(ab_l, cd_l)
        ss = tm.wgmma(WgmmaInstruction(ab, cd, 256, sparse=sparse,
                                       a_source=OperandSource.SHARED))
        rs = tm.wgmma(WgmmaInstruction(ab, cd, 256, sparse=sparse,
                                       a_source=OperandSource.REGISTER))
        tag = f"{ab_l}.{cd_l}"
        ss_lat, ss_zero, rs_lat, rs_zero, ss_rand, rs_rand = vals
        entries += [
            FidelityEntry(f"{tag}/ss_lat", ss_lat, ss.latency_clk),
            FidelityEntry(f"{tag}/ss_zero", ss_zero,
                          ss.throughput_tflops("zero")),
            FidelityEntry(f"{tag}/rs_lat", rs_lat, rs.latency_clk),
            FidelityEntry(f"{tag}/rs_zero", rs_zero,
                          rs.throughput_tflops("zero")),
            FidelityEntry(f"{tag}/ss_rand", ss_rand,
                          ss.throughput_tflops("rand")),
            FidelityEntry(f"{tag}/rs_rand", rs_rand,
                          rs.throughput_tflops("rand")),
        ]
    name = "Table IX (sparse wgmma)" if sparse else \
        "Table VIII (dense wgmma)"
    return TableFidelity(name, tuple(entries))


def _table10() -> TableFidelity:
    from repro.isa import OperandSource, WgmmaInstruction
    from repro.isa.dtypes import DType
    from repro.tensorcore import TensorCoreTimingModel
    tm = TensorCoreTimingModel(get_device("H800"))
    entries = []
    for n, vals in P.TABLE10_NSWEEP.items():
        combos = [(False, OperandSource.SHARED),
                  (False, OperandSource.REGISTER),
                  (True, OperandSource.SHARED),
                  (True, OperandSource.REGISTER)]
        for i, (sparse, src) in enumerate(combos):
            lat_p, thpt_p = vals[2 * i], vals[2 * i + 1]
            t = tm.wgmma(WgmmaInstruction(DType.FP16, DType.FP32, n,
                                          sparse=sparse, a_source=src))
            tag = f"N{n}/{'sp' if sparse else 'd'}{src.value}"
            entries.append(FidelityEntry(f"{tag}/lat", lat_p,
                                         t.latency_clk))
            entries.append(FidelityEntry(f"{tag}/thpt", thpt_p,
                                         t.throughput_tflops()))
    return TableFidelity("Table X (wgmma N sweep)", tuple(entries))


def _table11() -> TableFidelity:
    from repro.isa import MatrixShape, MmaInstruction
    from repro.power import PowerModel
    from repro.tensorcore import TensorCoreTimingModel
    shape_for = {"FP16": (16, 8, 16), "TF32": (16, 8, 8),
                 "INT8": (16, 8, 32)}
    entries = []
    for (dev, ab_l, cd_l, ds), (watts, eff) in P.TABLE11_ENERGY.items():
        ab, cd = _mma_types(ab_l, cd_l)
        sparse = ds == "S"
        device = get_device(dev)
        t = TensorCoreTimingModel(device).mma(
            MmaInstruction(ab, cd, MatrixShape(*shape_for[ab_l]),
                           sparse=sparse))
        rep = PowerModel(device).report(
            op="mma", ab=ab, cd=cd,
            tflops=t.throughput_tflops("rand"), sparse=sparse)
        tag = f"{dev}/{ab_l}.{cd_l}/{ds}"
        entries.append(FidelityEntry(f"{tag}/W", watts,
                                     rep.power_watts))
        entries.append(FidelityEntry(f"{tag}/eff", eff,
                                     rep.efficiency_tflops_per_watt))
    return TableFidelity("Table XI (energy)", tuple(entries))


def _table12() -> TableFidelity:
    from repro.te import LLAMA_MODELS, LlmInferenceModel, Precision
    prec = {"FP32": Precision.FP32, "BF16": Precision.BF16,
            "FP8": Precision.FP8}
    entries = []
    for (dev, model), cells in P.TABLE12_LLM.items():
        m = LlmInferenceModel(get_device(dev))
        for p_name, paper in cells.items():
            if paper is None:
                continue
            est = m.estimate(LLAMA_MODELS[model], prec[p_name])
            if est.status == "ok":
                entries.append(FidelityEntry(
                    f"{dev}/{model}/{p_name}", paper,
                    est.tokens_per_second))
    return TableFidelity("Table XII (LLM)", tuple(entries))


def _async_fidelity() -> TableFidelity:
    from repro.asynccopy import benchmark_table
    entries = []
    for dev, blocks in P.TABLE13_14_ASYNC.items():
        rows = {r["block"]: r for r in benchmark_table(get_device(dev))}
        for block, variants in blocks.items():
            for variant, papers in variants.items():
                models = rows[block][variant]
                for nb, (paper, model) in enumerate(zip(papers,
                                                        models)):
                    entries.append(FidelityEntry(
                        f"{dev}/{block}/{variant}/{2 ** nb}",
                        paper, model))
    return TableFidelity("Tables XIII/XIV (async copy)",
                         tuple(entries))


def _dsm_fidelity() -> TableFidelity:
    from repro.dsm import RingCopyBenchmark, SmToSmNetwork
    h800 = get_device("H800")
    net = SmToSmNetwork(h800)
    rbc = RingCopyBenchmark(h800)
    best = {cs: rbc.measure(cluster_size=cs, block_threads=1024,
                            ilp=8).aggregate_tbps for cs in (2, 4)}
    return TableFidelity("§IV-E DSM scalars", (
        FidelityEntry("latency_clk", P.DSM_LATENCY_CLK,
                      net.latency_clk),
        FidelityEntry("latency_vs_l2", P.DSM_LATENCY_VS_L2,
                      net.latency_vs_l2),
        FidelityEntry("peak_cs2_tbps", P.DSM_PEAK_TBPS_CS2, best[2]),
        FidelityEntry("peak_cs4_tbps", P.DSM_PEAK_TBPS_CS4, best[4]),
    ))


_COMPARATORS: Dict[str, Callable[[], TableFidelity]] = {
    "table4": _table4,
    "table5": _table5,
    "table7": _table7,
    "table8": lambda: _wgmma_fidelity(False),
    "table9": lambda: _wgmma_fidelity(True),
    "table10": _table10,
    "table11": _table11,
    "table12": _table12,
    "async": _async_fidelity,
    "dsm": _dsm_fidelity,
}


def compute_all() -> List[TableFidelity]:
    return [fn() for fn in _COMPARATORS.values()]


def fidelity_report() -> Table:
    """Summary table: per-artefact MAPE + worst cell."""
    t = Table("Model fidelity vs the paper's absolute numbers",
              ["Artefact", "cells", "MAPE %", "worst cell",
               "worst err %"])
    for tf in compute_all():
        w = tf.worst
        t.add_row(tf.name, len(tf.entries), round(100 * tf.mape, 2),
                  w.label, round(100 * w.rel_error, 1))
    return t
