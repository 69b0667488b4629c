"""Transformer-Engine module zoo (NumPy, functionally real).

Mirrors the TE modules the paper benchmarks: ``Linear`` (with genuine
FP8 amax-scale quantisation under ``fp8_autocast``), ``LayerNorm``,
``RMSNorm``, the fused ``LayerNormMLP``, a flash-style
``DotProductAttention`` (which TE keeps in FP16 — one reason FP8
doesn't double TransformerLayer speed), and ``TransformerLayer``
assembling the Llama-style block (RMSNorm + SwiGLU) of §III-C2.

Each module both *computes* (NumPy forward with the modelled numerics)
and *prices itself*: ``op_seconds_grid`` lists its operators in
launch order, each priced over a whole array of token counts against a
device's :class:`~repro.te.cost.CostModel`, and ``seconds_grid`` sums
them.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.numerics import E4M3, FP16, BF16, quantize_fp8
from repro.te.cost import (
    CostModel,
    OpSecondsGrid,
    Precision,
    _record_te_op,
)

__all__ = [
    "fp8_autocast",
    "fp8_is_enabled",
    "Module",
    "Linear",
    "LayerNorm",
    "RMSNorm",
    "LayerNormMLP",
    "DotProductAttention",
    "TransformerLayerConfig",
    "TransformerLayer",
]

_FP8_ENABLED = [False]


@contextlib.contextmanager
def fp8_autocast(enabled: bool = True):
    """TE's ``fp8_autocast`` context: Linear layers inside run FP8."""
    prev = _FP8_ENABLED[0]
    _FP8_ENABLED[0] = enabled
    try:
        yield
    finally:
        _FP8_ENABLED[0] = prev


def fp8_is_enabled() -> bool:
    return _FP8_ENABLED[0]


class Module:
    """Minimal module base: callable forward + cost interface."""

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    # -- pricing --------------------------------------------------------------
    #
    # ``op_seconds_grid`` names the module's operators in launch order,
    # each priced over a whole array of token counts in one NumPy pass.

    def op_seconds_grid(self, cost_model: CostModel, tokens,
                        precision: Precision, **kw) -> OpSecondsGrid:
        raise NotImplementedError

    def seconds_grid(self, cost_model: CostModel, tokens,
                     precision: Precision, **kw) -> np.ndarray:
        parts = self.op_seconds_grid(cost_model, tokens, precision,
                                     **kw)
        total = parts[0][1]
        for _, s in parts[1:]:
            # sequential accumulation in operator order
            total = total + s
        return total


def _working_quantize(x: np.ndarray, precision: Precision) -> np.ndarray:
    if precision in (Precision.FP16,):
        return FP16.quantize(x)
    if precision is Precision.BF16:
        return BF16.quantize(x)
    return np.asarray(x, dtype=np.float64)


class Linear(Module):
    """te.Linear: ``y = x @ W.T + b``.

    Under ``fp8_autocast`` the forward follows the TE recipe exactly:
    amax-scale x and W into E4M3, multiply on the FP8 grid, scale the
    product back (§III-C1).  Otherwise operands are rounded to the
    working precision.
    """

    def __init__(self, in_features: int, out_features: int,
                 *, bias: bool = True, rng: Optional[np.random.Generator]
                 = None) -> None:
        if in_features <= 0 or out_features <= 0:
            raise ValueError("features must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self._has_bias = bias
        self._rng = rng or np.random.default_rng(0)
        # Weights materialise lazily: pricing a layer with
        # op_seconds_grid must not allocate multi-GB parameter arrays.
        self._weight: Optional[np.ndarray] = None
        self._bias: Optional[np.ndarray] = None

    @property
    def weight(self) -> np.ndarray:
        if self._weight is None:
            bound = 1.0 / math.sqrt(self.in_features)
            self._weight = self._rng.uniform(
                -bound, bound, (self.out_features, self.in_features)
            )
        return self._weight

    @weight.setter
    def weight(self, value: np.ndarray) -> None:
        value = np.asarray(value, dtype=np.float64)
        if value.shape != (self.out_features, self.in_features):
            raise ValueError(
                f"weight must be {(self.out_features, self.in_features)}"
            )
        self._weight = value

    @property
    def bias(self) -> Optional[np.ndarray]:
        if self._has_bias and self._bias is None:
            bound = 1.0 / math.sqrt(self.in_features)
            self._bias = self._rng.uniform(-bound, bound,
                                           self.out_features)
        return self._bias

    def forward(self, x: np.ndarray,
                precision: Optional[Precision] = None) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"expected last dim {self.in_features}, got {x.shape[-1]}"
            )
        if precision is None:
            precision = (Precision.FP8 if fp8_is_enabled()
                         else Precision.FP16)
        if precision is Precision.FP8:
            qx = quantize_fp8(x, E4M3)
            qw = quantize_fp8(self.weight, E4M3)
            y = (qx.data @ qw.data.T) * (qx.scale * qw.scale)
        else:
            xq = _working_quantize(x, precision)
            wq = _working_quantize(self.weight, precision)
            y = xq @ wq.T
        if self.bias is not None:
            y = y + self.bias
        return y

    def op_seconds_grid(self, cost_model: CostModel, tokens,
                        precision: Precision) -> OpSecondsGrid:
        return cost_model.linear_breakdown_batch(
            tokens, self.out_features, self.in_features, precision)


class LayerNorm(Module):
    """Standard layer normalisation (never FP8 in TE)."""

    def __init__(self, features: int, eps: float = 1e-5) -> None:
        self.features = features
        self.eps = eps
        self.gamma = np.ones(features)
        self.beta = np.zeros(features)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        mu = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        return (x - mu) / np.sqrt(var + self.eps) * self.gamma + self.beta

    def op_seconds_grid(self, cost_model: CostModel, tokens,
                        precision: Precision) -> OpSecondsGrid:
        tokens = np.asarray(tokens, dtype=np.float64)
        nbytes = tokens * self.features * 2 * precision.bytes
        return [("layernorm", cost_model.elementwise_seconds_batch(
            nbytes, name="layernorm"))]


class RMSNorm(Module):
    """Root-mean-square normalisation (Llama's choice, §III-C2)."""

    def __init__(self, features: int, eps: float = 1e-6) -> None:
        self.features = features
        self.eps = eps
        self.gamma = np.ones(features)

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        rms = np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + self.eps)
        return x / rms * self.gamma

    def op_seconds_grid(self, cost_model: CostModel, tokens,
                        precision: Precision) -> OpSecondsGrid:
        tokens = np.asarray(tokens, dtype=np.float64)
        nbytes = tokens * self.features * 2 * precision.bytes
        return [("rmsnorm", cost_model.elementwise_seconds_batch(
            nbytes, name="rmsnorm"))]


def swiglu(gate: np.ndarray, up: np.ndarray) -> np.ndarray:
    """SwiGLU activation: ``silu(gate) * up``."""
    return gate / (1.0 + np.exp(-gate)) * up


def gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + np.tanh(
        math.sqrt(2.0 / math.pi) * (x + 0.044715 * x ** 3)
    ))


class LayerNormMLP(Module):
    """TE's fused norm + MLP.

    The fusion lets the norm output flow to fc1 already in FP8,
    removing one quantise kernel versus separate modules — the
    operator-fusion benefit §III-C2 describes.
    """

    def __init__(self, hidden: int, ffn_hidden: int, *,
                 activation: str = "swiglu",
                 normalization: str = "rmsnorm",
                 rng: Optional[np.random.Generator] = None) -> None:
        if activation not in ("swiglu", "gelu"):
            raise ValueError("activation must be 'swiglu' or 'gelu'")
        rng = rng or np.random.default_rng(1)
        self.hidden = hidden
        self.ffn_hidden = ffn_hidden
        self.activation = activation
        self.norm: Module = (RMSNorm(hidden) if normalization == "rmsnorm"
                             else LayerNorm(hidden))
        fc1_out = 2 * ffn_hidden if activation == "swiglu" else ffn_hidden
        self.fc1 = Linear(hidden, fc1_out, bias=False, rng=rng)
        self.fc2 = Linear(ffn_hidden, hidden, bias=False, rng=rng)

    def forward(self, x: np.ndarray) -> np.ndarray:
        h = self.norm(x)
        z = self.fc1(h)
        if self.activation == "swiglu":
            gate, up = np.split(z, 2, axis=-1)
            a = swiglu(gate, up)
        else:
            a = gelu(z)
        return self.fc2(a)

    def op_seconds_grid(self, cost_model: CostModel, tokens,
                        precision: Precision) -> OpSecondsGrid:
        tokens = np.asarray(tokens, dtype=np.float64)
        parts = self.norm.op_seconds_grid(cost_model, tokens, precision)
        fc1 = cost_model.linear_breakdown_batch(
            tokens, self.fc1.out_features, self.hidden, precision)
        if precision is Precision.FP8:
            # fusion: the norm emits FP8 directly → drop fc1's input
            # quantise kernel.
            fc1 = [p for p in fc1 if p[0] != "quantize_input"]
        parts += fc1
        act_bytes = tokens * (self.fc1.out_features + self.ffn_hidden) \
            * precision.bytes
        parts.append((self.activation, cost_model.elementwise_seconds_batch(
            act_bytes, name=self.activation)))
        parts += cost_model.linear_breakdown_batch(
            tokens, self.hidden, self.ffn_hidden, precision)
        return parts


class DotProductAttention(Module):
    """Flash-attention-style scaled dot-product attention.

    TE keeps this operator in FP16 regardless of ``fp8_autocast`` —
    one of the reasons FP8 TransformerLayer speedups stay below 2×.
    """

    def __init__(self, num_heads: int, head_dim: int) -> None:
        if num_heads <= 0 or head_dim <= 0:
            raise ValueError("heads and head_dim must be positive")
        self.num_heads = num_heads
        self.head_dim = head_dim

    def forward(self, q: np.ndarray, k: np.ndarray,
                v: np.ndarray,
                mask: Optional[np.ndarray] = None) -> np.ndarray:
        # shapes: (batch, seq, heads, head_dim)
        q, k, v = (np.asarray(t, dtype=np.float64) for t in (q, k, v))
        scale = 1.0 / math.sqrt(self.head_dim)
        scores = np.einsum("bshd,bthd->bhst", q, k) * scale
        if mask is not None:
            scores = np.where(mask, scores, -np.inf)
        scores -= scores.max(axis=-1, keepdims=True)
        p = np.exp(scores)
        p /= p.sum(axis=-1, keepdims=True)
        return np.einsum("bhst,bthd->bshd", p, v)

    def op_seconds_grid(self, cost_model: CostModel, tokens,
                        precision: Precision, *, batch=1) -> OpSecondsGrid:
        tokens = np.asarray(tokens, dtype=np.int64)
        batch = np.asarray(batch, dtype=np.int64)
        seq = np.maximum(tokens // np.maximum(batch, 1), 1
                         ).astype(np.float64)
        b = batch.astype(np.float64)
        h = self.num_heads * self.head_dim
        flops = 4.0 * b * seq * seq * h
        # flash attention: IO is O(b·s·h), compute at FP16 TC rate
        gemm_rate = cost_model.gemm_tflops(Precision.FP16) * 1e12 * 0.6
        io = 4.0 * b * seq * h * 2.0 / cost_model.membw_bytes_per_s
        secs = (np.maximum(flops / gemm_rate, io)
                + 2 * cost_model.launch_overhead_s)
        _record_te_op("attention", secs.size)
        return [("attention", secs)]


@dataclass(frozen=True)
class TransformerLayerConfig:
    """te.TransformerLayer hyper-parameters (Table II rows)."""

    hidden_size: int
    ffn_hidden_size: int
    num_attention_heads: int
    activation: str = "swiglu"
    normalization: str = "rmsnorm"

    def __post_init__(self) -> None:
        if self.hidden_size % self.num_attention_heads:
            raise ValueError("hidden_size must divide by heads")

    @property
    def head_dim(self) -> int:
        return self.hidden_size // self.num_attention_heads

    #: the paper's Table II parameterisation
    PAPER_CONFIGS = None  # populated below


TransformerLayerConfig.PAPER_CONFIGS = {
    1024: TransformerLayerConfig(1024, 2816, 8),
    2048: TransformerLayerConfig(2048, 5632, 16),
    4096: TransformerLayerConfig(4096, 11008, 32),
    5120: TransformerLayerConfig(5120, 13824, 40),
    8192: TransformerLayerConfig(8192, 22016, 64),
}


class TransformerLayer(Module):
    """One full (decoder-style) transformer layer, TE-fused."""

    def __init__(self, config: TransformerLayerConfig,
                 rng: Optional[np.random.Generator] = None) -> None:
        rng = rng or np.random.default_rng(2)
        self.config = config
        h = config.hidden_size
        self.input_norm: Module = (
            RMSNorm(h) if config.normalization == "rmsnorm"
            else LayerNorm(h)
        )
        self.qkv = Linear(h, 3 * h, bias=False, rng=rng)
        self.attention = DotProductAttention(
            config.num_attention_heads, config.head_dim
        )
        self.proj = Linear(h, h, bias=False, rng=rng)
        self.mlp = LayerNormMLP(
            h, config.ffn_hidden_size,
            activation=config.activation,
            normalization=config.normalization, rng=rng,
        )

    def forward(self, x: np.ndarray,
                mask: Optional[np.ndarray] = None) -> np.ndarray:
        # x: (batch, seq, hidden)
        x = np.asarray(x, dtype=np.float64)
        b, s, h = x.shape
        cfg = self.config
        qkv = self.qkv(self.input_norm(x))
        q, k, v = np.split(qkv, 3, axis=-1)
        shape = (b, s, cfg.num_attention_heads, cfg.head_dim)
        attn = self.attention(q.reshape(shape), k.reshape(shape),
                              v.reshape(shape), mask)
        x = x + self.proj(attn.reshape(b, s, h))
        return x + self.mlp(x)

    def op_seconds_grid(self, cost_model: CostModel, tokens,
                        precision: Precision, *, batch=4) -> OpSecondsGrid:
        tokens = np.asarray(tokens)
        parts = self.input_norm.op_seconds_grid(cost_model, tokens,
                                                precision)
        parts += self.qkv.op_seconds_grid(cost_model, tokens, precision)
        parts += self.attention.op_seconds_grid(cost_model, tokens,
                                                precision, batch=batch)
        parts += self.proj.op_seconds_grid(cost_model, tokens, precision)
        parts += self.mlp.op_seconds_grid(cost_model, tokens, precision)
        # two residual adds
        res_bytes = 2 * tokens.astype(np.float64) \
            * self.config.hidden_size * 2 * precision.bytes
        parts.append(("residual", cost_model.elementwise_seconds_batch(
            res_bytes, name="residual")))
        return parts

    def latency_ms_grid(self, cost_model: CostModel, *, batch=4,
                        seq=512,
                        precision: Precision = Precision.FP16
                        ) -> np.ndarray:
        """Fig 5's metric: one-layer encode latency (ms) over a
        (batch, seq) grid — ``batch`` and ``seq`` broadcast against
        each other."""
        batch = np.asarray(batch, dtype=np.int64)
        seq = np.asarray(seq, dtype=np.int64)
        tokens = batch * seq
        return 1e3 * self.seconds_grid(cost_model, tokens, precision,
                                       batch=batch)
