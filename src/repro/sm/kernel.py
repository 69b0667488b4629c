"""Per-thread work description of a regular kernel.

A :class:`KernelSpec` states a kernel's launch shape and per-thread
work (FLOPs, tensor-core FLOPs, DRAM traffic); its totals give the
arithmetic intensity that :class:`~repro.sm.roofline.Roofline` places
against a device's compute and bandwidth roofs (the ``ext_roofline``
experiment).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sm.occupancy import BlockConfig

__all__ = ["KernelSpec"]


@dataclass(frozen=True)
class KernelSpec:
    """Per-thread work description of a regular kernel."""

    name: str
    block: BlockConfig
    num_blocks: int
    flops_per_thread: float = 0.0          # CUDA-core FP32 FLOPs
    tc_flops_per_thread: float = 0.0       # tensor-core FLOPs
    dram_bytes_per_thread: float = 0.0

    def __post_init__(self) -> None:
        if self.num_blocks < 1:
            raise ValueError("num_blocks must be >= 1")
        for f in ("flops_per_thread", "tc_flops_per_thread",
                  "dram_bytes_per_thread"):
            if getattr(self, f) < 0:
                raise ValueError(f"{f} must be non-negative")

    @property
    def total_threads(self) -> int:
        return self.num_blocks * self.block.threads

    @property
    def total_flops(self) -> float:
        return (self.flops_per_thread + self.tc_flops_per_thread) \
            * self.total_threads

    @property
    def total_dram_bytes(self) -> float:
        return self.dram_bytes_per_thread * self.total_threads

    @property
    def arithmetic_intensity(self) -> float:
        """FLOPs per DRAM byte — the roofline x-coordinate."""
        if self.total_dram_bytes == 0:
            return float("inf")
        return self.total_flops / self.total_dram_bytes
