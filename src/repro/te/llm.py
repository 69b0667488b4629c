"""Decode-only LLM inference model (paper §III-C3, Table XII).

The paper swaps ``nn.Linear``/``RMSNorm`` for their TE counterparts in
Llama-family checkpoints and measures generation throughput
``(input_len + output_len) / time`` on ShareGPT-shaped requests with
batch 8 and both lengths capped at 128.

At those lengths decode is **memory-bound with a host-overhead
floor**: every generated token streams the full weight set once, and
every layer pays framework dispatch cost (the unfused HF/TE hybrid the
paper describes).  FP8 reduces neither — weights stay in
half-precision master copies and each layer adds quantise kernels — so
FP8 shows *no* advantage at this scale, the paper's headline Table XII
finding.  The OOM entries come from the device memory-capacity model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional

from repro.arch import DeviceSpec
from repro.te.cost import CostModel, Precision
from repro.te.workload import Request, ShareGptWorkload

__all__ = ["LlamaSpec", "LLAMA_MODELS", "GenerationEstimate",
           "LlmInferenceModel"]

#: relative host-side dispatch overhead per precision, scaling the
#: device's ``llm_host_overhead_s_per_layer``: the per-dtype casting
#: traffic of the paper's harness (FP32 = native torch path, BF16 =
#: autocast, FP8 = TE wrappers with quantise bookkeeping)
_HOST_FACTOR = {
    Precision.FP32: 0.80,
    Precision.BF16: 1.00,
    Precision.FP16: 1.00,
    Precision.FP8: 1.15,
}
#: CUDA context + framework baseline allocation
_BASELINE_MEM_BYTES = 2.0 * 2 ** 30
#: activation workspace
_ACTIVATION_MEM_BYTES = 1.5 * 2 ** 30
#: TE FP8 keeps half-precision master weights + FP8 shadow buffers +
#: transposed copies + amax/scale state — the overhead that makes
#: llama-2-7B FP8 OOM on the 24 GB RTX 4090 (Table XII) even though
#: its BF16 version fits.
_FP8_WEIGHT_FACTOR = 1.6


@dataclass(frozen=True)
class LlamaSpec:
    """A decode-only Llama-family model."""

    name: str
    params: float            # total parameter count
    hidden: int
    layers: int
    heads: int

    @property
    def head_dim(self) -> int:
        return self.hidden // self.heads

    def weight_bytes(self, precision: Precision) -> float:
        per_param = {
            Precision.FP32: 4.0,
            Precision.BF16: 2.0,
            Precision.FP16: 2.0,
            # master half-precision copy + FP8 shadow + amax history
            Precision.FP8: 2.0 * _FP8_WEIGHT_FACTOR,
        }[precision]
        return self.params * per_param

    def kv_cache_bytes(self, batch: int, seq: int) -> float:
        """K and V, FP16, for every layer."""
        return 2.0 * batch * seq * self.layers * self.hidden * 2.0


LLAMA_MODELS: Dict[str, LlamaSpec] = {
    "llama-3B": LlamaSpec("llama-3B", 3.43e9, 3200, 26, 32),
    "llama-2-7B": LlamaSpec("llama-2-7B", 6.74e9, 4096, 32, 32),
    "llama-2-13B": LlamaSpec("llama-2-13B", 13.0e9, 5120, 40, 40),
}


@dataclass(frozen=True)
class GenerationEstimate:
    """Outcome of one (device, model, precision) Table XII cell."""

    tokens_per_second: Optional[float]   # None ⇒ OOM or unsupported
    status: str                          # "ok" | "OOM" | "-"
    decode_step_s: float = 0.0
    prefill_s: float = 0.0

    @property
    def cell(self) -> str:
        if self.status != "ok":
            return self.status
        return f"{self.tokens_per_second:.2f}"


class LlmInferenceModel:
    """Table XII generator for one device."""

    def __init__(self, device: DeviceSpec) -> None:
        self.device = device
        self.cost = CostModel(device)

    # -- memory ------------------------------------------------------------

    def memory_required_bytes(self, model: LlamaSpec,
                              precision: Precision, *, batch: int,
                              max_seq: int) -> float:
        return (model.weight_bytes(precision)
                + model.kv_cache_bytes(batch, max_seq)
                + _BASELINE_MEM_BYTES + _ACTIVATION_MEM_BYTES)

    def fits(self, model: LlamaSpec, precision: Precision, *,
             batch: int = 8, max_seq: int = 256) -> bool:
        from repro.memory.dram import DramChannel
        need = self.memory_required_bytes(model, precision,
                                          batch=batch, max_seq=max_seq)
        return DramChannel.for_device(self.device).fits(need)

    # -- timing ------------------------------------------------------------------

    def decode_step_seconds(self, model: LlamaSpec,
                            precision: Precision, *,
                            batch: int = 8) -> float:
        """One generated-token step: stream the weights + host floor."""
        stream_bytes = model.weight_bytes(precision)
        if precision is Precision.FP8:
            # the FP8 shadow copies are what the GEMMs read
            stream_bytes = model.params * 1.0 + model.params * 2.0 * 0.15
        bw = self.cost.membw_bytes_per_s
        host = self.device.llm_host_overhead_s_per_layer
        host *= _HOST_FACTOR[precision] * model.layers
        return stream_bytes / bw + host

    def prefill_seconds(self, model: LlamaSpec, precision: Precision, *,
                        batch: int = 8, input_len: int = 128) -> float:
        """Prompt processing: compute-bound GEMMs over all layers."""
        flops = 2.0 * model.params * batch * input_len
        try:
            rate = self.cost.gemm_tflops(precision) * 1e12 * 0.5
        except ValueError:
            raise
        return flops / rate + model.layers * 9 \
            * self.cost.launch_overhead_s

    # -- Table XII ------------------------------------------------------------------

    def estimate(self, model: LlamaSpec, precision: Precision, *,
                 batch: int = 8, input_len: int = 128,
                 output_len: int = 128) -> GenerationEstimate:
        if not self.cost.supports(precision):
            return GenerationEstimate(None, "-")
        if not self.fits(model, precision, batch=batch,
                         max_seq=input_len + output_len):
            return GenerationEstimate(None, "OOM")
        step = self.decode_step_seconds(model, precision, batch=batch)
        prefill = self.prefill_seconds(model, precision, batch=batch,
                                       input_len=input_len)
        total = prefill + output_len * step
        text = batch * (input_len + output_len)
        return GenerationEstimate(
            tokens_per_second=text / total,
            status="ok",
            decode_step_s=step,
            prefill_s=prefill,
        )

    def estimate_workload(self, model: LlamaSpec, precision: Precision,
                          *, n_requests: int = 64, batch: int = 8,
                          seed: int = 0) -> GenerationEstimate:
        """Throughput over a synthetic ShareGPT batch stream (variable
        lengths; a batch runs until its longest response finishes):
        one :meth:`estimate` per batch group."""
        wl = ShareGptWorkload(seed=seed)
        total_text = 0
        total_time = 0.0
        for group in wl.batches(n_requests, batch):
            max_in = max(r.input_len for r in group)
            max_out = max(r.output_len for r in group)
            est = self.estimate(model, precision, batch=len(group),
                                input_len=max_in, output_len=max_out)
            if est.status != "ok":
                return est
            total_text += sum(r.total_len for r in group)
            total_time += est.prefill_s + max_out * est.decode_step_s
        return GenerationEstimate(
            tokens_per_second=total_text / total_time,
            status="ok",
        )

    def table12_rows(self, *, models=("llama-3B", "llama-2-7B",
                                      "llama-2-13B")) -> list[dict]:
        rows = []
        for name in models:
            model = LLAMA_MODELS[name]
            row = {"GPU": self.device.name, "Model": name}
            for prec in (Precision.FP32, Precision.BF16, Precision.FP8):
                row[prec.name] = self.estimate(model, prec).cell
            rows.append(row)
        return rows
