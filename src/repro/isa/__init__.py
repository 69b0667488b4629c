"""PTX instruction-set model and SASS lowering.

The paper benchmarks at the PTX level and disassembles to SASS to see
what the hardware actually executes (Table VI).  This subpackage models
both layers:

* :mod:`repro.isa.dtypes` — the PTX element types tensor cores accept.
* :mod:`repro.isa.mma` — ``mma``/``mma.sp``/``wgmma``/``wgmma.sp``
  instruction descriptors with shape validation against the PTX ISA.
* :mod:`repro.isa.memory_ops` — the ``.ca``/``.cg`` cache operators
  the P-chase probes load with, and TMA bulk copies.
* :mod:`repro.isa.lowering` — the per-architecture PTX → SASS lowering
  pass, including the Hopper INT4 fallback onto CUDA-core ``IMAD`` and
  the DPX hardware-vs-emulation split.
"""

from __future__ import annotations

from repro.isa.dtypes import DType, accumulator_types, input_types
from repro.isa.mma import (
    MatrixShape,
    MmaInstruction,
    OperandSource,
    WgmmaInstruction,
    mma_shapes,
    valid_wgmma_n,
    wgmma_k,
)
from repro.isa.memory_ops import CacheOp, TmaCopy
from repro.isa.lowering import (
    FunctionalUnit,
    LoweredOp,
    SassInstruction,
    lower,
    sass_table,
)

__all__ = [
    "DType",
    "accumulator_types",
    "input_types",
    "MatrixShape",
    "MmaInstruction",
    "WgmmaInstruction",
    "OperandSource",
    "mma_shapes",
    "valid_wgmma_n",
    "wgmma_k",
    "CacheOp",
    "TmaCopy",
    "FunctionalUnit",
    "LoweredOp",
    "SassInstruction",
    "lower",
    "sass_table",
]
