"""Tensor Memory Accelerator cost model (Hopper).

TMA replaces per-thread ``cp.async`` address generation with a single
descriptor-driven bulk copy: one thread issues the instruction, the TMA
engine computes every address, and *zero* threads are occupied during
the transfer.  The model captures the two first-order effects:

* fixed descriptor/issue cost per transfer (amortised by tile size),
* freed instruction-issue slots (a ``cp.async`` tile copy costs one
  warp instruction per 16 B per thread; TMA costs one instruction per
  tile).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch import DeviceSpec
from repro.isa.lowering import UnsupportedInstruction
from repro.isa.memory_ops import TmaCopy
from repro.obs.session import counters_or_null

__all__ = ["TmaTransfer", "TmaModel"]

#: one-off per-transfer TMA engine issue + descriptor decode, cycles
_TMA_ISSUE_CLK = 40.0
#: bytes one cp.async warp instruction moves (32 threads × 16 B)
_CP_ASYNC_BYTES_PER_INSTR = 512.0


@dataclass(frozen=True)
class TmaTransfer:
    """Cost estimate of one bulk tile copy."""

    tile_bytes: int
    cycles: float
    issuing_instructions: int
    pipelined_cycles: float = 0.0

    @property
    def bytes_per_clk(self) -> float:
        """One-shot rate: the DRAM round trip is exposed."""
        return self.tile_bytes / self.cycles if self.cycles else 0.0

    @property
    def sustained_bytes_per_clk(self) -> float:
        """Back-to-back rate: the TMA engine pipelines transfers, so
        only issue + streaming remain on the critical path."""
        if not self.pipelined_cycles:
            return self.bytes_per_clk
        return self.tile_bytes / self.pipelined_cycles


class TmaModel:
    """Per-device TMA cost estimates (Hopper only)."""

    def __init__(self, device: DeviceSpec) -> None:
        if not device.pack.has_tma:
            raise UnsupportedInstruction(
                f"{device.name} has no TMA engine (requires Hopper)"
            )
        self.device = device

    def transfer(self, copy: TmaCopy) -> TmaTransfer:
        """Global→shared bulk copy cost.

        Streaming happens at the SM's L1/global interface width; the
        issue overhead is a constant independent of size.
        """
        stream = (copy.tile_bytes
                  / self.device.mem_widths.l1_bytes_per_clk_sm)
        latency = self.device.mem_latencies.global_clk
        transfer = TmaTransfer(
            tile_bytes=copy.tile_bytes,
            cycles=_TMA_ISSUE_CLK + latency + stream,
            issuing_instructions=1,
            pipelined_cycles=_TMA_ISSUE_CLK + stream,
        )
        obs = counters_or_null()
        if obs.enabled:
            obs.add("async.tma.transfers")
            obs.add("async.bytes.tma", copy.tile_bytes)
            obs.observe("async.latency.tma", transfer.cycles)
        return transfer

    def cp_async_equivalent_instructions(self, tile_bytes: int) -> int:
        """Warp instructions a cp.async version of the copy would issue
        — the occupancy the TMA engine hands back to the program."""
        instrs = max(1, round(tile_bytes / _CP_ASYNC_BYTES_PER_INSTR))
        obs = counters_or_null()
        if obs.enabled:
            obs.add("async.cp_async.equiv_instructions", instrs)
        return instrs
