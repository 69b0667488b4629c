"""Shared Hypothesis strategies for the property-test suites.

Factored out of ``tests/test_vectorized_equivalence.py`` and
``tests/test_memory_chase.py`` so every suite (and any future
property test) draws from one definition of "a random mma
instruction" / "a random chase".  The strategies are *structurally
identical* to the inline originals, so the derandomized ``ci``
profile replays the exact example sequences the suites were pinned
under.

This module imports :mod:`hypothesis` and therefore lives outside the
runtime fuzzer's import graph — ``repro.fuzz`` proper (generator,
oracle, shrinking, driver) is plain ``random`` and never loads it.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.isa.dtypes import DType, accumulator_types
from repro.isa.memory_ops import CacheOp
from repro.isa.mma import (
    MmaInstruction,
    OperandSource,
    WgmmaInstruction,
    mma_shapes,
    valid_wgmma_n,
)

__all__ = [
    "CHASE_STRIDES",
    "MMA_AB_DTYPES",
    "WGMMA_AB_DTYPES",
    "cache_ops",
    "chain_lengths",
    "chase_iters",
    "chase_seeds",
    "chase_strides",
    "mma_instructions",
    "query_payloads",
    "token_arrays",
    "wgmma_instructions",
]

#: input types with a PTX mma shape table
MMA_AB_DTYPES = tuple(d for d in DType if d in
                      (DType.FP16, DType.BF16, DType.TF32, DType.FP64,
                       DType.INT8, DType.INT4, DType.BIN1))

#: input types wgmma accepts (FP8 variants included)
WGMMA_AB_DTYPES = (DType.FP16, DType.BF16, DType.TF32, DType.E4M3,
                   DType.E5M2, DType.INT8, DType.BIN1)


@st.composite
def mma_instructions(draw) -> MmaInstruction:
    ab = draw(st.sampled_from(MMA_AB_DTYPES))
    cd = draw(st.sampled_from(sorted(accumulator_types(ab),
                                     key=lambda d: d.name)))
    shape = draw(st.sampled_from(mma_shapes(ab)))
    sparse = (draw(st.booleans())
              and ab not in (DType.BIN1, DType.FP64))
    return MmaInstruction(ab, cd, shape, sparse=sparse)


@st.composite
def wgmma_instructions(draw) -> WgmmaInstruction:
    ab = draw(st.sampled_from(WGMMA_AB_DTYPES))
    cd = draw(st.sampled_from(sorted(accumulator_types(ab),
                                     key=lambda d: d.name)))
    n = draw(st.sampled_from(valid_wgmma_n()))
    sparse = draw(st.booleans()) and ab is not DType.BIN1
    src = draw(st.sampled_from((OperandSource.SHARED,
                                OperandSource.REGISTER)))
    return WgmmaInstruction(ab, cd, n, sparse=sparse, a_source=src)


#: random token-count arrays for the TE module grid walks
token_arrays = st.lists(st.integers(min_value=1, max_value=1 << 20),
                        min_size=1, max_size=6).map(np.asarray)


# -- pointer-chase shapes ----------------------------------------------------

#: strides giving line-grained, page-straddling and page-per-entry walks
CHASE_STRIDES = (128, 4096, 2 * 1024 * 1024)


def chain_lengths(max_n: int) -> st.SearchStrategy:
    """Chase-chain period lengths (at least two distinct entries)."""
    return st.integers(min_value=2, max_value=max_n)


def chase_iters(max_iters: int) -> st.SearchStrategy:
    """Chase iteration budgets, zero included."""
    return st.integers(min_value=0, max_value=max_iters)


#: seeded and sequential chain orders alike
chase_seeds = st.sampled_from((None, 0, 7))

chase_strides = st.sampled_from(CHASE_STRIDES)

cache_ops = st.sampled_from((CacheOp.CACHE_ALL, CacheOp.CACHE_GLOBAL))


# -- serve-schema payloads ---------------------------------------------------


@st.composite
def query_payloads(draw, kind=None) -> dict:
    """A well-formed wire payload for one serve query, params drawn
    in random key order and defaults sometimes spelled explicitly —
    the raw material of the canonicalization properties."""
    from repro.serve.schema import KIND_PARAMS, KINDS

    if kind is None:
        kind = draw(st.sampled_from(KINDS))
    spec = KIND_PARAMS[kind]
    params = {}
    for name, (required, default, _check) in spec.items():
        include = required or (default is not None
                               and draw(st.booleans()))
        if not include:
            continue
        if name in ("m", "n", "k") and kind == "mma":
            params[name] = draw(st.integers(1, 256))
        elif name == "n" and kind == "wgmma":
            params[name] = draw(st.sampled_from(valid_wgmma_n()))
        elif name in ("m", "n", "k"):
            params[name] = draw(st.integers(1, 20000))
        elif name in ("ab", "cd"):
            params[name] = draw(st.sampled_from(
                ("fp16", "bf16", "fp32", "int8")))
        elif name == "sparse":
            params[name] = draw(st.booleans())
        elif name == "a_source":
            params[name] = draw(st.sampled_from(("ss", "rs", "SS")))
        elif name == "model":
            params[name] = draw(st.sampled_from(
                ("llama-3B", "llama-2-7B", "llama-2-13B")))
        elif name in ("batch", "input_len", "output_len"):
            params[name] = draw(st.integers(1, 4096))
        elif name == "footprint_kib":
            params[name] = draw(st.integers(1, 4096))
        elif name == "stride_bytes":
            params[name] = draw(st.sampled_from((4, 128, 4096)))
        elif name == "cluster_size":
            params[name] = draw(st.integers(1, 16))
        elif name == "name":
            params[name] = draw(st.sampled_from(
                ("table07_mma", "fig04_te_linear")))
        elif name == "seed":
            params[name] = draw(st.integers(0, 31))
        else:  # pragma: no cover - future params default to ints
            params[name] = draw(st.integers(1, 64))
    payload = {"kind": kind, "params": params}
    if kind != "experiment":
        payload["device"] = draw(st.sampled_from(
            ("A100", "a100", "H800", "RTX4090")))
    if kind in ("te.linear", "llm.generate"):
        payload["precision"] = draw(st.sampled_from(
            ("fp32", "fp16", "bf16", "fp8", "FP16")))
    if draw(st.booleans()):
        payload["id"] = draw(st.sampled_from(("q1", "tag-2")))
    return payload
