"""The experiment table: one row per paper artefact.

A row gives the experiment's name, the paper reference, a one-line
description, the builder as ``"module:function"`` and the device pins
(see :class:`~repro.core.registry.Experiment`).  The registry reads this
table as data: listing experiments, checking pins and deriving cache
keys import no builder module, and a builder's module is imported on
the experiment's first run.

Adding an experiment takes a builder function that accepts a
:class:`~repro.core.context.RunContext` and returns ``(Table,
[Check, ...])``, plus one row here.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

__all__ = ["Row", "EXPERIMENTS"]


class Row(NamedTuple):
    """One declared experiment, in :class:`Experiment` field order."""

    name: str
    paper_ref: str
    description: str
    builder: str                     # "module:function"
    devices: Optional[Tuple[str, ...]] = None
    devices_any: Optional[Tuple[str, ...]] = None


_M = "repro.core.experiments."
_H800 = ("H800",)

EXPERIMENTS: Tuple[Row, ...] = (
    Row("table03_devices", "Table III",
        "Properties of the Ampere, Ada Lovelace and Hopper devices",
        _M + "devices:table03"),
    Row("table04_mem_latency", "Table IV",
        "P-chase latency (clock cycles) of L1, shared, L2 and global "
        "memory",
        _M + "memory:table04"),
    Row("table05_mem_throughput", "Table V",
        "Sustained throughput at each memory level per access pattern",
        _M + "memory:table05"),
    Row("table05x_shared_parity", "Table V (shared row)",
        "Shared-memory throughput parity across the three devices",
        _M + "memory:table05_shared"),
    Row("table06_sass", "Table VI",
        "SASS lowering of Hopper tensor-core PTX instructions",
        _M + "tensorcore_exp:table06"),
    Row("table07_mma", "Table VII",
        "Dense/sparse mma latency and throughput on A100, RTX4090, H800",
        _M + "tensorcore_exp:table07"),
    Row("table08_wgmma_dense", "Table VIII",
        "Dense wgmma variants on H800: SS/RS × zero/random operands",
        _M + "tensorcore_exp:table08", devices=_H800),
    Row("table09_wgmma_sparse", "Table IX",
        "Sparse wgmma variants on H800: the SS-mode penalty",
        _M + "tensorcore_exp:table09", devices=_H800),
    Row("table10_wgmma_nsweep", "Table X",
        "wgmma throughput vs N: compute density hides operand latency",
        _M + "tensorcore_exp:table10", devices=_H800),
    Row("table11_energy", "Table XI",
        "Power and energy efficiency of max-shape mma instructions",
        _M + "tensorcore_exp:table11"),
    Row("fig03_te_breakdown", "Fig. 3",
        "Operator time shares of an FP8 te.Linear matmul",
        _M + "te_exp:fig03", devices=_H800),
    Row("fig04_te_linear", "Fig. 4",
        "te.Linear throughput (TFLOPS) vs matrix size, dtype and device",
        _M + "te_exp:fig04"),
    Row("fig05_te_layer", "Fig. 5",
        "te.TransformerLayer single-layer latency vs hidden size",
        _M + "te_exp:fig05"),
    Row("table12_llm", "Table XII",
        "Decode-only LLM generation throughput (tokens/s)",
        _M + "te_exp:table12"),
    Row("fig06_dpx_latency", "Fig. 6",
        "DPX intrinsic latency: hardware (H800) vs emulation "
        "(A100, 4090)",
        _M + "features:fig06"),
    Row("fig07_dpx_throughput", "Fig. 7",
        "DPX throughput per device + the SM-multiple block sawtooth",
        _M + "features:fig07"),
    Row("table13_async_h800", "Table XIII",
        "Async vs sync tile copies in tiled matmul, H800",
        _M + "features:table13", devices=_H800),
    Row("table14_async_a100", "Table XIV",
        "Async vs sync tile copies in tiled matmul, A100",
        _M + "features:table14", devices=("A100",)),
    Row("fig08_dsm_rbc", "Fig. 8",
        "SM-to-SM ring-based copy throughput on H800",
        _M + "features:fig08", devices=_H800),
    Row("fig09_dsm_histogram", "Fig. 9",
        "DSM histogram throughput: occupancy vs SM-to-SM traffic",
        _M + "features:fig09", devices=_H800),
    Row("ext_tma_vs_cpasync", "§III-D2 (extension)",
        "TMA bulk copies vs cp.async: issue-slot savings by tile size",
        _M + "extensions:ext_tma", devices=_H800),
    # the capacity sweep mixes pow2 and 1.5×pow2 sizes, so A100's
    # 192 KiB L1 resolves too; any present device with a registered
    # cache geometry will do (the lineage/Blackwell packs included)
    Row("ext_cache_detection", "§III-A (extension)",
        "P-chase sweeps recover the cache geometry (methodology check)",
        _M + "extensions:ext_cache_detection",
        devices_any=("RTX4090", "A100", "H800", "B200", "V100")),
    Row("ext_dpx_applications", "§III-D1 (extension)",
        "DPX at application level: alignment + Floyd-Warshall speedups",
        _M + "extensions:ext_dpx_apps"),
    Row("ext_fp8_accuracy", "§III-C (extension)",
        "What FP8 costs in accuracy through real layers",
        _M + "extensions:ext_fp8_accuracy"),
    Row("ext_tma_pipeline", "§III-D2 (extension)",
        "Predicted TmaPipe variant of the async-copy study (H800)",
        _M + "extensions:ext_tma_pipeline", devices=_H800),
    Row("ext_mma_full_matrix", "Table VII (extension)",
        "The complete mma type matrix: BF16, INT4, binary, FP64 "
        "included",
        _M + "extensions:ext_mma_full"),
    Row("ext_coalescing", "§III-A (extension)",
        "Warp coalescing: efficiency vs stride and alignment",
        _M + "extensions:ext_coalescing"),
    Row("ext_trace_simulator", "§II (extension)",
        "Trace-driven SM simulator validated against the pipe models",
        _M + "extensions:ext_trace_sim", devices=_H800),
    Row("ext_llm_batch_sweep", "§III-C3 (extension)",
        "LLM throughput vs batch size: when does FP8 start paying?",
        _M + "extensions:ext_llm_batch", devices=_H800),
    Row("ext_attention_scaling", "§III-C2 (extension)",
        "Flash-attention cost scaling: quadratic compute vs linear IO",
        _M + "extensions:ext_attention", devices=_H800),
    Row("ext_roofline", "§I/§II (extension)",
        "Roofline summary: where the paper's workloads sit per device",
        _M + "extensions:ext_roofline"),
    Row("ext_numeric_probes", "Fasi et al. (extension)",
        "Tensor-core numeric behaviour probes",
        _M + "extensions:ext_numeric_probes"),
)
