"""Sustained memory throughput per level (paper §III-A, Table V).

Each level's sustained rate is the minimum over the mechanisms that can
bottleneck it:

* **data-path width** (``l1_bytes_per_clk_sm``, ``l2_bytes_per_clk``,
  shared-memory banks × bank width),
* **LSU instruction issue** — a warp-level scalar ``ld.f32`` moves only
  128 B, so when the LSU cannot issue one load per clock the achieved
  width drops below the data path's (the FP32 column; vectorised
  ``float4`` loads move 512 B per instruction and saturate the width),
* **the FP64 execution unit** — the benchmark must *consume* loaded
  FP64 values with adds to defeat dead-code elimination, so on parts
  with fused-down FP64 (RTX 4090 at 1:64, H800) the FP64 row measures
  the ALU, not the cache — the paper calls this out explicitly,
* **DRAM sustained bandwidth** for global memory (refresh + read/write
  turnaround mechanics in :class:`repro.arch.DramSpec`), with the
  paper's 5-reads-1-write vectorised stream.

Each device's ``mem_widths.access_efficiency`` holds small
per-(level, pattern) calibration factors (0.83–0.99) capturing
crossbar/ECC effects the structural model does not resolve; they are
calibration constants in the same sense a validated simulator (e.g.
Accel-Sim) carries per-SKU efficiency tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.arch import DeviceSpec

__all__ = ["ThroughputResult", "MemoryThroughputModel", "measure_throughputs"]

#: access patterns of Table V
PATTERNS = ("FP32", "FP64", "FP32.v4")

#: bytes one warp-level load instruction moves, per pattern
_BYTES_PER_INSTR = {"FP32": 128, "FP64": 256, "FP32.v4": 512}

def _eff(device: DeviceSpec, level: str, pattern: str) -> float:
    return device.mem_widths.access_efficiency.get((level, pattern), 1.0)


@dataclass(frozen=True)
class ThroughputResult:
    """One cell of Table V, with the limiting mechanism identified."""

    level: str
    pattern: str
    value: float
    unit: str
    limiter: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.level}[{self.pattern}] = {self.value:.1f} {self.unit} "
            f"(limited by {self.limiter})"
        )


class MemoryThroughputModel:
    """Per-device sustained-throughput calculator."""

    def __init__(self, device: DeviceSpec) -> None:
        self.device = device

    # -- L1 ------------------------------------------------------------------

    def l1(self, pattern: str = "FP32.v4") -> ThroughputResult:
        """L1 throughput in bytes/clk/SM for one access pattern.

        A single 1024-thread block hammers an L1-resident buffer (the
        paper's method); the achieved rate is the min of path width,
        LSU issue and — for FP64 — the consuming ALU.
        """
        self._check_pattern(pattern)
        w = self.device.mem_widths
        candidates = {
            "L1 width": w.l1_bytes_per_clk_sm,
            "LSU issue": w.lsu_issue_per_clk * _BYTES_PER_INSTR[pattern],
        }
        if pattern == "FP64":
            candidates["FP64 unit"] = w.fp64_add_bytes_per_clk_sm
        limiter = min(candidates, key=candidates.get)
        value = candidates[limiter] * _eff(self.device, "l1", pattern)
        return ThroughputResult("L1 Cache", pattern, value,
                                "byte/clk/SM", limiter)

    # -- shared ----------------------------------------------------------------

    def shared(self) -> ThroughputResult:
        """Shared-memory throughput: 32 banks × 4 B, conflict-free."""
        w = self.device.mem_widths
        value = min(
            w.smem_bytes_per_clk_sm,
            w.smem_banks * w.smem_bank_bytes,
        )
        return ThroughputResult("Shared Memory", "FP32", float(value),
                                "byte/clk/SM", "bank width")

    # -- L2 --------------------------------------------------------------------

    def l2(self, pattern: str = "FP32.v4") -> ThroughputResult:
        """Chip-wide L2 throughput in bytes/clk.

        Many blocks across all SMs stream an L2-resident buffer; the
        rate is the L2 crossbar width unless the per-SM FP64 ALUs (the
        consuming adds) saturate first: ``fp64_add_bytes_per_clk_sm ×
        num_sms`` — which is exactly why the H800's FP64 L2 number in
        Table V collapses to ~1.8 kB/clk.
        """
        self._check_pattern(pattern)
        w = self.device.mem_widths
        candidates = {"L2 width": w.l2_bytes_per_clk}
        if pattern == "FP64":
            candidates["FP64 units"] = (
                w.fp64_add_bytes_per_clk_sm * self.device.num_sms
            )
        limiter = min(candidates, key=candidates.get)
        value = candidates[limiter] * _eff(self.device, "l2", pattern)
        return ThroughputResult("L2 Cache", pattern, value,
                                "byte/clk", limiter)

    # -- global -------------------------------------------------------------------

    def global_memory(self, *, reads_per_write: int = 5) -> ThroughputResult:
        """Global-memory streaming bandwidth in GB/s.

        The paper's kernel reads five ``float4`` values and writes one
        per thread; the read share sets the bus-turnaround overhead in
        the DRAM model.
        """
        rf = reads_per_write / (reads_per_write + 1)
        bw = self.device.dram.effective_bandwidth_gbps(rf)
        return ThroughputResult("Global Memory", "FP32.v4", bw, "GB/s",
                                "DRAM sustained")

    # -- composite ------------------------------------------------------------------

    def l2_vs_global_ratio(self) -> float:
        """The "L2 vs. Global" row: best-pattern L2 bytes/s over DRAM.

        L2 bytes/clk are converted with the boost clock, matching how
        the paper compares the two quantities.
        """
        best_l2 = max(self.l2(p).value for p in PATTERNS)
        l2_gbps = best_l2 * self.device.clocks.boost_hz / 1e9
        return l2_gbps / self.global_memory().value

    def theoretical_fraction(self) -> float:
        """Achieved global bandwidth over the spec-sheet peak."""
        return self.global_memory().value / self.device.dram.peak_bandwidth_gbps

    @staticmethod
    def _check_pattern(pattern: str) -> None:
        if pattern not in PATTERNS:
            raise ValueError(
                f"unknown access pattern {pattern!r}; choose from {PATTERNS}"
            )


def measure_throughputs(device: DeviceSpec) -> Dict[str, float]:
    """One device's column of Table V as a flat dict."""
    m = MemoryThroughputModel(device)
    out: Dict[str, float] = {}
    for p in PATTERNS:
        out[f"L1 {p} (byte/clk/SM)"] = m.l1(p).value
    for p in PATTERNS:
        out[f"L2 {p} (byte/clk)"] = m.l2(p).value
    out["Shared (byte/clk/SM)"] = m.shared().value
    out["Global (GB/s)"] = m.global_memory().value
    out["L2 vs. Global"] = m.l2_vs_global_ratio()
    out["% of peak"] = 100.0 * m.theoretical_fraction()
    return out
