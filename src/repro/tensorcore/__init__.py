"""Tensor-core functional and timing models.

* :mod:`repro.tensorcore.functional` — bit-accurate execution of
  ``wgmma`` tiles and of any tensor-core matmul: operands quantised with
  :mod:`repro.numerics`, products formed exactly, accumulation rounded
  in the accumulator precision.
* :mod:`repro.tensorcore.sparse` — 2:4 structured sparsity: pruning,
  compression to values + metadata, and on-the-fly decompression.
* :mod:`repro.tensorcore.timing` — latency and sustained-throughput
  models for every instruction of Tables VII–X, built from three
  mechanisms: per-architecture issue intervals (calibrated the way
  validated GPU simulators calibrate pipe tables), the dependent-
  accumulator chain that makes wgmma throughput track its completion
  latency, and shared-memory port pressure (which penalises sparse
  "SS" mode by exactly the unpruned-A traffic).
* :mod:`repro.tensorcore.numerics_study` — numeric-behaviour probes
  (rounding, subnormals, accumulation precision) run against the
  functional engine.
"""

from __future__ import annotations

from repro.tensorcore.functional import (
    matmul_quantized,
    wgmma_functional,
)
from repro.tensorcore.sparse import (
    SparseOperand,
    compress_2_4,
    decompress_2_4,
    prune_2_4,
    sparsity_pattern_valid,
)
from repro.tensorcore.timing import (
    MmaSweep,
    SweepEntry,
    TensorCoreTimingModel,
    WgmmaSweep,
)

__all__ = [
    "wgmma_functional",
    "matmul_quantized",
    "prune_2_4",
    "compress_2_4",
    "decompress_2_4",
    "SparseOperand",
    "sparsity_pattern_valid",
    "TensorCoreTimingModel",
    "SweepEntry",
    "MmaSweep",
    "WgmmaSweep",
]
