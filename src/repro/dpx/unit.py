"""DPX latency/throughput model and the SM-level sawtooth (Figs 6, 7).

Two execution paths:

* **Hopper hardware** — each intrinsic is one DPX-unit instruction.
  The unit sits *inside the SM* (the paper infers this from the block
  sweep) and issues like the other ALU pipes.
* **Emulation (Ampere/Ada)** — the intrinsic expands to its CUDA-core
  sequence; latency follows the critical path, throughput divides the
  integer-pipe issue rate by the instruction count.

The VIMNMX-vs-IMNMX parity the paper notes falls out naturally: a
2-input ``__vimax_s32`` is one instruction on both paths, so only the
clocks differ.  The big Hopper wins appear where emulation sequences
are long — packed 16-bit lanes and fused ReLU.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.arch import DeviceSpec
from repro.dpx.functions import DpxFunction
from repro.sm.occupancy import BlockConfig
from repro.sm.scheduler import KernelLaunch, schedule_blocks

__all__ = ["DpxTimingModel", "DpxMeasurement", "block_sweep"]

#: integer-ALU completion latency (cycles) — IMNMX/IADD3 class
_INT_ALU_LATENCY = 4.5
#: Hopper DPX-unit completion latency (cycles) — VIMNMX class; the
#: paper notes VIMNMX shows no latency edge over IMNMX.
_DPX_HW_LATENCY = 4.5
#: integer-pipe issue rate: warp instructions per clk per SM
_INT_ISSUE_PER_CLK = 2.0
#: DPX-pipe issue rate on Hopper: warp instructions per clk per SM
_DPX_ISSUE_PER_CLK = 2.0


@dataclass(frozen=True)
class DpxMeasurement:
    """Latency/throughput of one DPX intrinsic on one device."""

    function: str
    device: str
    hardware: bool
    latency_clk: float
    #: intrinsic results per clk per SM (32 threads × issue / instrs)
    throughput_per_clk_sm: float
    measurable: bool = True

    @property
    def throughput_gops(self) -> float:
        """Device-wide intrinsic throughput (G results/s) — needs the
        caller to scale by SM count and clock; see DpxTimingModel."""
        return self.throughput_per_clk_sm  # per-SM·clk; scaled by model


class DpxTimingModel:
    """Per-device DPX timing."""

    def __init__(self, device: DeviceSpec) -> None:
        self.device = device

    @property
    def hardware(self) -> bool:
        return self.device.pack.has_dpx_hardware

    # -- latency -----------------------------------------------------------

    def latency_clk(self, fn: DpxFunction) -> float:
        """Dependent-chain per-intrinsic latency (Fig 6's metric)."""
        if self.hardware:
            return _DPX_HW_LATENCY * fn.hw_instruction_count
        return _INT_ALU_LATENCY * fn.emu_critical_path

    def latency_ns(self, fn: DpxFunction) -> float:
        return self.latency_clk(fn) / self.device.clocks.observed_hz * 1e9

    # -- throughput ----------------------------------------------------------

    def throughput_per_clk_sm(self, fn: DpxFunction) -> float:
        """Intrinsic results per clock per SM with a full block issuing."""
        if self.hardware:
            return 32 * _DPX_ISSUE_PER_CLK / fn.hw_instruction_count
        return 32 * _INT_ISSUE_PER_CLK / fn.emu_instruction_count

    def throughput_gops(self, fn: DpxFunction, *,
                        num_blocks: int | None = None) -> float:
        """Device-wide intrinsic throughput in G results/s.

        ``num_blocks`` applies the wave-scheduling utilisation (the
        sawtooth); default fills the machine exactly.
        """
        per_sm_clk = self.throughput_per_clk_sm(fn)
        peak = (per_sm_clk * self.device.num_sms
                * self.device.clocks.observed_hz / 1e9)
        if num_blocks is None:
            return peak
        launch = KernelLaunch(num_blocks, BlockConfig(threads=1024))
        sched = schedule_blocks(self.device, launch,
                                blocks_per_sm_override=1)
        return peak * sched.utilization

    def measure(self, fn: DpxFunction) -> DpxMeasurement:
        measurable = self.hardware or not fn.emu_optimized_away
        return DpxMeasurement(
            function=fn.name,
            device=self.device.name,
            hardware=self.hardware,
            latency_clk=self.latency_clk(fn),
            throughput_per_clk_sm=self.throughput_per_clk_sm(fn),
            measurable=measurable,
        )

    def speedup_vs(self, fn: DpxFunction, other: "DpxTimingModel") -> float:
        """Device-seconds speedup of this device over ``other``."""
        mine = (self.throughput_per_clk_sm(fn)
                * self.device.clocks.observed_hz)
        theirs = (other.throughput_per_clk_sm(fn)
                  * other.device.clocks.observed_hz)
        return mine / theirs


def block_sweep(device: DeviceSpec, fn: DpxFunction,
                max_multiple: int = 3) -> List[Dict[str, float]]:
    """Throughput vs launched blocks — the experiment that locates the
    DPX unit at SM level (throughput ∝ blocks below the SM count,
    plummets just past each multiple, peaks exactly at multiples)."""
    model = DpxTimingModel(device)
    sms = device.num_sms
    points = sorted(
        {1, sms // 4, sms // 2}
        | {m * sms + d for m in range(1, max_multiple + 1)
           for d in (-1, 0, 1)}
    )
    out = []
    for nb in points:
        if nb < 1:
            continue
        out.append({
            "blocks": nb,
            "gops": model.throughput_gops(fn, num_blocks=nb),
        })
    return out
