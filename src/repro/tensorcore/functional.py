"""Functional (value-level) tensor-core execution.

Models what the silicon computes, independent of how fast:

* A and B are quantised to the instruction's input format (this is a
  no-op if the caller already provides representable values — e.g.
  data loaded from an FP16 buffer),
* each product ``a·b`` is formed *exactly* (tensor cores compute
  full-precision products; Fasi et al. 2021 verify this),
* accumulation happens stepwise in the accumulator precision with
  round-to-nearest-even after every addition — the behaviour that
  separates ``f16``-accumulate from ``f32``-accumulate numerically,
* integer variants accumulate exactly in INT32 with wrap-around,
* binary (b1) variants compute AND + population count.

Everything operates on float64/int64 NumPy carriers; the *values* are
exactly those of the modelled precisions.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.isa.dtypes import DType
from repro.isa.mma import WgmmaInstruction
from repro.numerics.integers import INT32, IntFormat, INT4, INT8

__all__ = ["wgmma_functional", "matmul_quantized"]


def _quantize_input(x: np.ndarray, dt: DType) -> np.ndarray:
    """Round an operand tensor onto its format's grid."""
    arr = np.asarray(x, dtype=np.float64)
    if dt.is_float:
        return dt.float_format.quantize(arr)
    if dt in (DType.INT8, DType.INT4):
        fmt: IntFormat = INT8 if dt is DType.INT8 else INT4
        q = np.round(arr)
        if np.any(q < fmt.min_value) or np.any(q > fmt.max_value):
            raise ValueError(
                f"operand values exceed the {dt.name} range "
                f"[{fmt.min_value}, {fmt.max_value}]"
            )
        return q
    if dt is DType.BIN1:
        if not np.all((arr == 0) | (arr == 1)):
            raise ValueError("binary operands must contain only 0/1")
        return arr
    raise ValueError(f"unsupported input type {dt}")


def matmul_quantized(
    a: np.ndarray,
    b: np.ndarray,
    *,
    ab_type: DType,
    cd_type: DType,
    c: Optional[np.ndarray] = None,
) -> np.ndarray:
    """``D = A × B + C`` with tensor-core numerics.

    ``a`` is (m, k) and ``b`` is (k, n).  Works for any sizes — the
    instruction wrappers below add shape validation.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"inner dimensions differ: {a.shape} × {b.shape}")

    aq = _quantize_input(a, ab_type)
    bq = _quantize_input(b, ab_type)

    if ab_type is DType.BIN1:
        # AND + POPC accumulate: with 0/1 operands AND is the product.
        d = (aq.astype(np.int64) @ bq.astype(np.int64))
        if c is not None:
            d = d + np.asarray(c, dtype=np.int64)
        return INT32.wrap(d).astype(np.float64)

    if not ab_type.is_float:
        d = aq.astype(np.int64) @ bq.astype(np.int64)
        if c is not None:
            d = d + np.round(np.asarray(c, dtype=np.float64)).astype(np.int64)
        return INT32.wrap(d).astype(np.float64)

    acc_fmt = cd_type.float_format
    k = a.shape[1]
    if cd_type in (DType.FP32, DType.FP64):
        # FP32 accumulators hold every intermediate of our modelled
        # input formats exactly enough that stepwise rounding matters
        # only at the last bit; accumulate exactly and round once.
        d = aq @ bq
        if c is not None:
            d = d + acc_fmt.quantize(np.asarray(c, dtype=np.float64))
        return acc_fmt.quantize(d)

    # Narrow accumulators (FP16): round after every k-step addition —
    # the numeric behaviour that distinguishes f16-accumulate mode.
    d = (acc_fmt.quantize(np.asarray(c, dtype=np.float64))
         if c is not None else np.zeros((a.shape[0], b.shape[1])))
    for i in range(k):
        d = acc_fmt.quantize(d + np.outer(aq[:, i], bq[i, :]))
    return d


def wgmma_functional(
    instr: WgmmaInstruction,
    a: np.ndarray,
    b: np.ndarray,
    d: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Execute one warp-group ``wgmma`` tile: ``D = A×B + D``.

    Note the asymmetry with ``mma``: the accumulator is D itself (the
    paper highlights this difference in Fig 2).  Shapes must match the
    instruction's *effective* shape (sparse callers pass the
    decompressed A — see :func:`repro.tensorcore.sparse.decompress_2_4`).
    """
    eff = instr.effective_shape
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != (eff.m, eff.k):
        raise ValueError(f"A must be {(eff.m, eff.k)}, got {a.shape}")
    if b.shape != (eff.k, eff.n):
        raise ValueError(f"B must be {(eff.k, eff.n)}, got {b.shape}")
    if d is not None and np.shape(d) != (eff.m, eff.n):
        raise ValueError(f"D must be {(eff.m, eff.n)}, got {np.shape(d)}")
    return matmul_quantized(
        a, b, ab_type=instr.ab_type, cd_type=instr.cd_type, c=d
    )
