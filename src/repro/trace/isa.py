"""Trace instructions and builders.

A :class:`TraceInstr` is one warp-level instruction with explicit
register dependencies and a timing signature (completion latency +
pipe initiation interval).  Builders produce the traces the paper's
microbenchmarks correspond to: dependent chains (latency probes),
independent streams (throughput probes), and mma accumulation loops.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.arch import DeviceSpec
from repro.isa.lowering import FunctionalUnit
from repro.isa.mma import MmaInstruction
from repro.tensorcore.timing import TensorCoreTimingModel

__all__ = ["TraceInstr", "WarpTrace", "TraceBuilder"]


@dataclass(frozen=True)
class TraceInstr:
    """One warp instruction in a trace."""

    opcode: str
    unit: FunctionalUnit
    latency_clk: float
    ii_clk: float
    srcs: Tuple[int, ...] = ()
    dst: int = -1            # -1: no register written

    def __post_init__(self) -> None:
        if self.latency_clk <= 0 or self.ii_clk <= 0:
            raise ValueError("latency and II must be positive")
        if self.ii_clk > self.latency_clk:
            raise ValueError("II cannot exceed latency")


@dataclass
class WarpTrace:
    """One warp's instruction stream."""

    instrs: List[TraceInstr] = field(default_factory=list)

    def append(self, instr: TraceInstr) -> None:
        self.instrs.append(instr)

    def __len__(self) -> int:
        return len(self.instrs)


class TraceBuilder:
    """Builders for microbenchmark-shaped traces."""

    #: default integer-ALU signature (IMNMX/IADD3 class)
    ALU_LATENCY = 4.5
    ALU_II = 1.0

    @staticmethod
    def dependent_chain(n: int, *, latency: float = ALU_LATENCY,
                        ii: float = ALU_II,
                        unit: FunctionalUnit =
                        FunctionalUnit.CUDA_CORE_INT) -> WarpTrace:
        """``r1 = f(r1)`` repeated — the latency microbenchmark."""
        t = WarpTrace()
        for _ in range(n):
            t.append(TraceInstr("op", unit, latency, ii,
                                srcs=(1,), dst=1))
        return t

    @staticmethod
    def independent_stream(n: int, *, latency: float = ALU_LATENCY,
                           ii: float = ALU_II,
                           unit: FunctionalUnit =
                           FunctionalUnit.CUDA_CORE_INT,
                           regs: int = 8) -> WarpTrace:
        """``r_i = f(r_i)`` round-robin over ``regs`` registers —
        the throughput microbenchmark (ILP = regs)."""
        t = WarpTrace()
        for i in range(n):
            r = 1 + (i % regs)
            t.append(TraceInstr("op", unit, latency, ii,
                                srcs=(r,), dst=r))
        return t

    @staticmethod
    def mma_accumulate_loop(device: DeviceSpec, instr: MmaInstruction,
                            n: int) -> WarpTrace:
        """``D += A×B`` n times — the tensor-core benchmark loop, with
        the timing signature taken from the calibrated model."""
        timing = TensorCoreTimingModel(device).mma(instr)
        t = WarpTrace()
        for _ in range(n):
            t.append(TraceInstr(
                instr.opcode, FunctionalUnit.TENSOR_CORE,
                timing.latency_clk,
                min(timing.issue_interval_clk, timing.latency_clk),
                srcs=(1,), dst=1,     # accumulator dependency
            ))
        return t

    @staticmethod
    def mma_independent(device: DeviceSpec, instr: MmaInstruction,
                        n: int, *, accumulators: int = 4) -> WarpTrace:
        """mma over several accumulators (ILP across D registers)."""
        timing = TensorCoreTimingModel(device).mma(instr)
        t = WarpTrace()
        for i in range(n):
            r = 1 + (i % accumulators)
            t.append(TraceInstr(
                instr.opcode, FunctionalUnit.TENSOR_CORE,
                timing.latency_clk,
                min(timing.issue_interval_clk, timing.latency_clk),
                srcs=(r,), dst=r,
            ))
        return t

    @staticmethod
    def load_compute(n_pairs: int, *, load_latency: float,
                     compute_latency: float = ALU_LATENCY) -> WarpTrace:
        """ld → dependent FMA pairs — a memory-latency-exposed loop."""
        t = WarpTrace()
        for _ in range(n_pairs):
            t.append(TraceInstr("ld", FunctionalUnit.LSU,
                                load_latency, 1.0, srcs=(), dst=2))
            t.append(TraceInstr("fma", FunctionalUnit.CUDA_CORE_FP32,
                                compute_latency, 1.0, srcs=(2,),
                                dst=3))
        return t
