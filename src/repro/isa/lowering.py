"""PTX → SASS lowering, per architecture.

This pass answers the question the paper answers with ``cuobjdump``:
*what does the machine actually execute for a given PTX instruction?*
(Table VI).  Beyond the SASS mnemonics, the lowering decides which
functional unit runs the op — which is where two of the paper's
headline findings live:

* On Hopper, INT4 ``mma`` no longer maps to the tensor core at all: it
  lowers to a long sequence of CUDA-core ``IMAD`` instructions, so its
  performance falls far short of tensor-core levels.

(DPX intrinsics, single hardware instructions on Hopper but CUDA-core
emulation sequences on Ampere/Ada, are priced by :mod:`repro.dpx` from
each function's two SASS sequences.)

Every per-generation decision is data-driven: the rules gate on
capability flags and lowering deltas of the target's
:class:`~repro.arch.packs.ArchPack` (``int4_mma_emulated``,
``mma_peak_keys``, ``has_wgmma``, …); every entry point takes that
pack (``device.pack``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import singledispatch
from typing import List, Tuple

from repro.arch import ArchPack
from repro.isa.dtypes import DType
from repro.isa.mma import MmaInstruction, WgmmaInstruction

__all__ = [
    "FunctionalUnit",
    "SassInstruction",
    "LoweredOp",
    "UnsupportedInstruction",
    "lower",
    "sass_table",
]


class UnsupportedInstruction(ValueError):
    """The instruction does not exist on the target architecture."""


class FunctionalUnit(enum.Enum):
    """The SM datapath a SASS instruction executes on."""

    TENSOR_CORE = "tensor core"
    CUDA_CORE_INT = "cuda core (INT32)"
    CUDA_CORE_FP32 = "cuda core (FP32)"
    CUDA_CORE_FP64 = "fp64 unit"
    DPX = "dpx unit"
    LSU = "load/store unit"


@dataclass(frozen=True)
class SassInstruction:
    """One SASS mnemonic plus the unit it occupies."""

    mnemonic: str
    unit: FunctionalUnit
    count: int = 1

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError("count must be >= 1")


@dataclass(frozen=True)
class LoweredOp:
    """The SASS sequence one PTX instruction lowers to."""

    ptx: str
    arch: ArchPack
    sass: Tuple[SassInstruction, ...]

    @property
    def primary(self) -> SassInstruction:
        return self.sass[0]

    @property
    def instruction_count(self) -> int:
        return sum(s.count for s in self.sass)

    @property
    def uses_tensor_core(self) -> bool:
        return any(s.unit is FunctionalUnit.TENSOR_CORE for s in self.sass)


# -- SASS mnemonic helpers -----------------------------------------------------

_MMA_FAMILY = {
    DType.FP16: "HMMA",
    DType.BF16: "HMMA",
    DType.TF32: "HMMA",
    DType.FP64: "DMMA",
    DType.INT8: "IMMA",
    DType.INT4: "IMMA",
    DType.BIN1: "BMMA",
}

_GMMA_FAMILY = {
    DType.FP16: "HGMMA",
    DType.BF16: "HGMMA",
    DType.TF32: "HGMMA",
    DType.E4M3: "QGMMA",
    DType.E5M2: "QGMMA",
    DType.INT8: "IGMMA",
    DType.BIN1: "BGMMA",
}


def _mma_suffix(ab: DType, cd: DType) -> str:
    """Type suffix of an (H|I|B)MMA mnemonic."""
    if ab is DType.BIN1:
        return "AND.POPC"
    if ab in (DType.INT8, DType.INT4):
        t = "S8" if ab is DType.INT8 else "S4"
        return f"{t}.{t}"
    suffix = cd.paper_label  # F16 / F32 style
    suffix = {"FP16": "F16", "FP32": "F32", "FP64": "F64"}[suffix]
    if ab is DType.TF32:
        suffix += ".TF32"
    elif ab is DType.BF16:
        suffix += ".BF16"
    return suffix


def _gmma_suffix(ab: DType, cd: DType) -> str:
    if ab is DType.BIN1:
        return "AND.POPC"
    if ab is DType.INT8:
        return "S8.S8"
    suffix = {"FP16": "F16", "FP32": "F32"}[cd.paper_label]
    if ab is DType.TF32:
        suffix += ".TF32"
    elif ab is DType.BF16:
        suffix += ".BF16"
    elif ab in (DType.E4M3, DType.E5M2):
        v = ab.name  # E4M3 / E5M2
        suffix += f".{v}.{v}"
    return suffix


# -- lowering rules ------------------------------------------------------------


@singledispatch
def lower(instr, arch: ArchPack) -> LoweredOp:
    """Lower a PTX instruction descriptor to SASS for ``arch``."""
    raise TypeError(f"no lowering rule for {type(instr).__name__}")


@lower.register
def _lower_mma(instr: MmaInstruction, arch: ArchPack) -> LoweredOp:
    ab, cd = instr.ab_type, instr.cd_type
    if ab.is_fp8:
        # There are no FP8 mma instructions on any architecture — the
        # "×" cells of Table VI.  FP8 is reachable only through wgmma.
        raise UnsupportedInstruction(
            f"no mma instruction exists for FP8 inputs on "
            f"{arch.name} (FP8 requires Hopper wgmma)"
        )
    if not arch.supports_mma_input(ab.peak_key):
        # Older generations predate the dtype entirely (e.g. Volta has
        # only FP16 tensor-core inputs).
        raise UnsupportedInstruction(
            f"{arch.name} tensor cores do not accept {ab.paper_label} "
            "mma inputs"
        )
    if instr.sparse and not arch.has_sparse_mma:
        raise UnsupportedInstruction(
            f"sparse mma requires sm_80+; {arch.name} has no sparsity "
            "selector hardware"
        )
    if ab is DType.INT4 and arch.int4_mma_emulated:
        # Hopper dropped INT4 tensor-core support: the PTX still
        # compiles, but to CUDA-core integer MACs (one 32-lane IMAD per
        # 32 scalar MACs) plus register moves.
        imads = max(instr.effective_shape.macs // 32, 1)
        return LoweredOp(
            ptx=instr.opcode,
            arch=arch,
            sass=(
                SassInstruction("IMAD.MOV.U32", FunctionalUnit.CUDA_CORE_INT,
                                count=imads),
            ),
        )
    eff = instr.effective_shape
    shape_tag = f"{eff.m}{eff.n}{eff.k}"
    sp = "SP." if instr.sparse else ""
    mnemonic = f"{_MMA_FAMILY[ab]}.{sp}{shape_tag}.{_mma_suffix(ab, cd)}"
    return LoweredOp(
        ptx=instr.opcode,
        arch=arch,
        sass=(SassInstruction(mnemonic, FunctionalUnit.TENSOR_CORE),),
    )


@lower.register
def _lower_wgmma(instr: WgmmaInstruction, arch: ArchPack) -> LoweredOp:
    if not arch.has_wgmma:
        raise UnsupportedInstruction(
            f"wgmma requires Hopper (sm_90); {arch.name} has no GMMA "
            "SASS instructions"
        )
    eff = instr.effective_shape
    sp = "SP." if instr.sparse else ""
    mnemonic = (
        f"{_GMMA_FAMILY[instr.ab_type]}.{sp}"
        f"{eff.m}x{eff.n}x{eff.k}."
        f"{_gmma_suffix(instr.ab_type, instr.cd_type)}"
    )
    return LoweredOp(
        ptx=instr.opcode,
        arch=arch,
        sass=(SassInstruction(mnemonic, FunctionalUnit.TENSOR_CORE),),
    )


# -- Table VI ------------------------------------------------------------------


def sass_table(arch: ArchPack) -> List[dict]:
    """Regenerate Table VI: SASS for each A/B–C/D tensor-core pairing.

    Returns one row per (A/B, C/D) pair with the ``mma`` and ``wgmma``
    lowering (or ``×`` where the instruction does not exist) for the
    given architecture pack.
    """
    from repro.isa.mma import mma_shapes, wgmma_k  # local to avoid cycle

    pairs = [
        (DType.FP16, DType.FP16),
        (DType.FP16, DType.FP32),
        (DType.TF32, DType.FP32),
        (DType.E4M3, DType.FP16),
        (DType.E5M2, DType.FP16),
        (DType.E4M3, DType.FP32),
        (DType.E5M2, DType.FP32),
        (DType.INT8, DType.INT32),
        (DType.INT4, DType.INT32),
        (DType.BIN1, DType.INT32),
    ]
    rows = []
    for ab, cd in pairs:
        # mma column — largest legal shape, matching the paper.
        try:
            shape = mma_shapes(ab)[-1]
            m = lower(MmaInstruction(ab, cd, shape), arch)
            mma_cell = m.primary.mnemonic
        except (ValueError, UnsupportedInstruction):
            mma_cell = "×"
        # wgmma column — N=256, matching the paper.
        try:
            wgmma_k(ab)  # raises for INT4
            w = lower(WgmmaInstruction(ab, cd, n=256), arch)
            wgmma_cell = w.primary.mnemonic
        except (ValueError, UnsupportedInstruction):
            wgmma_cell = "×"
        rows.append({
            "A/B": ab.paper_label + (f" ({ab.name})" if ab.is_fp8 else ""),
            "C/D": cd.paper_label,
            "mma": mma_cell,
            "wgmma": wgmma_cell,
        })
    return rows
