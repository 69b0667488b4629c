"""Transformer-Engine analogue (paper §III-C, Figs 3–5, Table XII).

A NumPy re-implementation of the Transformer Engine's module zoo with
*real* FP8 numerics (amax scaling, E4M3 quantisation, scale-back — via
:mod:`repro.numerics`) and an operator-level cost model driven by the
device's tensor-core and memory models:

* :mod:`repro.te.cost` — per-operator time: GEMMs run at the device's
  best tensor-core rate for the precision, elementwise/cast/reduction
  kernels run at DRAM bandwidth, every kernel pays a launch overhead.
  The FP8 story of Figs 3–4 (conversion overhead dominating small
  matrices, ~2× at N = 16384) is entirely emergent from this.
* :mod:`repro.te.modules` — ``Linear``, ``LayerNorm``, ``RMSNorm``,
  ``LayerNormMLP``, ``DotProductAttention`` (flash-style, not FP8 —
  matching TE), ``TransformerLayer`` and the ``fp8_autocast`` context.
* :mod:`repro.te.llm` — decode-only Llama cost model: memory-bound
  generation, host-overhead floor, and the OOM matrix of Table XII.
* :mod:`repro.te.workload` — the synthetic ShareGPT-style request
  generator (log-normal prompt/response length mixture).
"""

from __future__ import annotations

from repro.te.cost import CostModel, Precision
from repro.te.modules import (
    DotProductAttention,
    LayerNorm,
    LayerNormMLP,
    Linear,
    Module,
    RMSNorm,
    TransformerLayer,
    TransformerLayerConfig,
    fp8_autocast,
    fp8_is_enabled,
)
from repro.te.llm import (
    LlamaSpec,
    LLAMA_MODELS,
    GenerationEstimate,
    LlmInferenceModel,
)
from repro.te.workload import ShareGptWorkload, Request
from repro.te.recipe import DelayedScaling
from repro.te.accuracy import AccuracyReport, layer_accuracy, \
    linear_accuracy

__all__ = [
    "DelayedScaling",
    "AccuracyReport",
    "linear_accuracy",
    "layer_accuracy",
    "CostModel",
    "Precision",
    "Module",
    "Linear",
    "LayerNorm",
    "RMSNorm",
    "LayerNormMLP",
    "DotProductAttention",
    "TransformerLayer",
    "TransformerLayerConfig",
    "fp8_autocast",
    "fp8_is_enabled",
    "LlamaSpec",
    "LLAMA_MODELS",
    "LlmInferenceModel",
    "GenerationEstimate",
    "ShareGptWorkload",
    "Request",
]
