"""Device specification dataclasses.

A :class:`DeviceSpec` aggregates everything the simulator needs to know
about one GPU.  Fields are grouped into nested frozen dataclasses so a
subsystem can depend on exactly the slice it uses (e.g. the memory
simulator takes ``spec.cache_geometry`` and ``spec.mem_latencies``).

Units are spelled out in field names wherever ambiguity is possible:
``*_mhz``, ``*_bytes``, ``*_kib``, ``*_gib``, ``*_gbps`` (GB/s),
``*_clk`` (clock cycles of the SM domain).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Tuple

from repro.arch.packs import ArchPack


@dataclass(frozen=True)
class ClockDomain:
    """SM and memory clock frequencies.

    ``observed_sm_mhz`` captures the frequency the paper actually saw
    during the benchmarks; the RTX 4090 runs above its official boost
    clock, which is why its measured tensor-core throughput exceeds the
    official peak (paper §IV-C).
    """

    boost_sm_mhz: float
    observed_sm_mhz: float
    memory_mhz: float

    def __post_init__(self) -> None:
        if self.boost_sm_mhz <= 0:
            raise ValueError("boost clock must be positive")

    @property
    def observed_hz(self) -> float:
        return self.observed_sm_mhz * 1e6

    @property
    def boost_hz(self) -> float:
        return self.boost_sm_mhz * 1e6


@dataclass(frozen=True)
class CacheGeometry:
    """Capacities and organisation of the on-chip memories."""

    l1_size_kib: int            # unified L1/shared per SM
    shared_max_kib: int         # max shared memory carve-out per block
    l2_size_kib: int
    line_bytes: int = 128
    sector_bytes: int = 32
    l1_associativity: int = 4
    l2_associativity: int = 16

    def __post_init__(self) -> None:
        if self.line_bytes % self.sector_bytes:
            raise ValueError("line size must be a multiple of sector size")
        for name in ("l1_size_kib", "shared_max_kib", "l2_size_kib"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def l1_size_bytes(self) -> int:
        return self.l1_size_kib * 1024

    @property
    def l2_size_bytes(self) -> int:
        return self.l2_size_kib * 1024


@dataclass(frozen=True)
class MemoryLatencies:
    """Hit latencies of each level, in SM clock cycles.

    These are primitive calibration numbers (the kind a P-chase
    microbenchmark measures directly, cf. Table IV); everything
    composite — e.g. the global-memory latency including a TLB miss —
    is derived by :mod:`repro.memory`.
    """

    shared_clk: float
    l1_hit_clk: float
    l2_hit_clk: float
    dram_clk: float             # additional cycles past an L2 miss
    tlb_hit_clk: float = 0.0
    tlb_miss_clk: float = 350.0
    dsm_remote_clk: float = 180.0   # SM-to-SM network (Hopper only)

    def __post_init__(self) -> None:
        if not (self.shared_clk <= self.l1_hit_clk <= self.l2_hit_clk):
            raise ValueError("expected shared <= L1 <= L2 latency")
        if self.dram_clk <= 0:
            raise ValueError("dram_clk must be positive")

    @property
    def global_clk(self) -> float:
        """Latency of a TLB-warm global load that misses both caches."""
        return self.l2_hit_clk + self.dram_clk + self.tlb_hit_clk


@dataclass(frozen=True)
class MemoryWidths:
    """Sustained data-path widths of each memory level.

    ``l1_bytes_per_clk_sm`` / ``smem_bytes_per_clk_sm`` are per-SM;
    ``l2_bytes_per_clk`` is chip-wide.  ``lsu_issue_per_clk`` models the
    load-store-unit instruction issue rate that caps *non-vectorised*
    L1 throughput (the FP32 column of Table V): one warp-level ``ld.f32``
    moves 128 B, so the achieved width is
    ``min(l1_bytes_per_clk_sm, 128 * lsu_issue_per_clk)``.
    ``fp64_add_bytes_per_clk_sm`` is the FP64 *execution unit* width that
    bottlenecks the FP64 row on consumer/nerfed parts (RTX 4090, H800).
    ``access_efficiency`` maps ``(level, pattern)`` — ``"l1"``/``"l2"``
    by ``"FP32"``/``"FP64"``/``"FP32.v4"`` — to a residual factor on
    that Table V cell (crossbar/ECC effects the structural model does
    not resolve); a cell the mapping omits has factor 1.0.
    """

    l1_bytes_per_clk_sm: float
    smem_bytes_per_clk_sm: float
    l2_bytes_per_clk: float
    lsu_issue_per_clk: float
    fp64_add_bytes_per_clk_sm: float
    smem_banks: int = 32
    smem_bank_bytes: int = 4
    access_efficiency: Mapping[Tuple[str, str], float] = \
        field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in (
            "l1_bytes_per_clk_sm",
            "smem_bytes_per_clk_sm",
            "l2_bytes_per_clk",
            "lsu_issue_per_clk",
            "fp64_add_bytes_per_clk_sm",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for cell, factor in self.access_efficiency.items():
            if factor <= 0:
                raise ValueError(f"access efficiency {cell} must be positive")


@dataclass(frozen=True)
class DramSpec:
    """Off-chip memory subsystem (Table III rows)."""

    size_gib: int
    mem_type: str               # "HBM2e" | "GDDR6X"
    bus_width_bits: int
    peak_bandwidth_gbps: float
    # Efficiency mechanics: refresh steals cycles; switching the bus
    # between reads and writes costs turnaround bubbles.  The achieved
    # ~90 % of peak in Table V is *derived* from these.
    refresh_overhead: float = 0.03
    rw_turnaround_penalty: float = 0.05

    def __post_init__(self) -> None:
        if self.peak_bandwidth_gbps <= 0:
            raise ValueError("peak bandwidth must be positive")
        if not 0 <= self.refresh_overhead < 0.5:
            raise ValueError("refresh_overhead out of range")

    def effective_bandwidth_gbps(self, read_fraction: float = 1.0) -> float:
        """Sustained bandwidth for a mixed read/write stream.

        ``read_fraction`` is the fraction of traffic that is reads; a
        mixed stream pays turnaround bubbles proportional to how often
        the bus direction flips (maximised at 50/50).
        """
        if not 0.0 <= read_fraction <= 1.0:
            raise ValueError("read_fraction must be in [0, 1]")
        flip_rate = 2.0 * read_fraction * (1.0 - read_fraction)
        eff = (1.0 - self.refresh_overhead) * (
            1.0 - self.rw_turnaround_penalty * 2.0 * flip_rate
        )
        return self.peak_bandwidth_gbps * eff


@dataclass(frozen=True)
class TensorCoreSpec:
    """Tensor-core complement and official dense peak rates.

    ``dense_peak_tflops`` maps precision name → official dense peak at
    boost clock (TFLOPS, or TOPS for integer precisions).  Sparse peaks
    are architecturally 2× dense.  Per-clock MAC widths are derived
    (``flops_per_clk_sm``) so the timing model scales with the actual
    simulated clock.
    """

    count: int
    dense_peak_tflops: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError("tensor core count must be positive")
        for k, v in self.dense_peak_tflops.items():
            if v <= 0:
                raise ValueError(f"peak for {k} must be positive")

    def sparse_peak_tflops(self, precision: str) -> float:
        return 2.0 * self.dense_peak(precision)

    def dense_peak(self, precision: str) -> float:
        try:
            return self.dense_peak_tflops[precision]
        except KeyError:
            raise KeyError(
                f"precision {precision!r} is not supported by this "
                f"tensor core generation (have: "
                f"{sorted(self.dense_peak_tflops)})"
            ) from None

    def supports(self, precision: str) -> bool:
        return precision in self.dense_peak_tflops


@dataclass(frozen=True)
class DeviceSpec:
    """Complete description of one GPU (one column of Table III)."""

    name: str
    marketing_name: str
    #: the generation's capabilities and calibration tables; derive a
    #: variant with ``with_overrides(pack=replace(spec.pack, ...))``
    pack: ArchPack
    num_sms: int
    cuda_cores_per_sm: int
    max_threads_per_sm: int
    max_blocks_per_sm: int
    registers_per_sm: int
    clocks: ClockDomain
    cache: CacheGeometry
    mem_latencies: MemoryLatencies
    mem_widths: MemoryWidths
    dram: DramSpec
    tensor_core: TensorCoreSpec
    power_cap_watts: float
    max_cluster_size: int = 1   # >1 only where DSM exists
    #: host-side framework dispatch cost per layer per LLM decode step
    #: (s), calibrated on the paper's HF-transformers + TE harness
    #: from Table XII; the default is the uncalibrated value a device
    #: without a Table XII measurement runs on
    llm_host_overhead_s_per_layer: float = 0.9e-3

    def __post_init__(self) -> None:
        if self.num_sms <= 0:
            raise ValueError("num_sms must be positive")
        if (self.max_cluster_size > 1
                and not self.pack.has_distributed_shared_memory):
            raise ValueError(
                f"{self.name}: clusters require distributed shared memory"
            )

    # -- convenience -----------------------------------------------------

    @property
    def compute_capability(self) -> str:
        return self.pack.compute_capability

    @property
    def total_cuda_cores(self) -> int:
        return self.num_sms * self.cuda_cores_per_sm

    @property
    def sm_clock_hz(self) -> float:
        return self.clocks.observed_hz

    def tc_flops_per_clk_sm(self, precision: str, *, sparse: bool = False,
                            use_boost: bool = True) -> float:
        """Per-SM tensor-core FLOPs (or int OPs) per cycle.

        Derived from the official peak, which is quoted at boost clock:
        ``peak = flops_per_clk_sm * num_sms * boost_hz``.
        """
        peak = self.tensor_core.dense_peak(precision)
        if sparse:
            peak *= 2.0
        clock = self.clocks.boost_hz if use_boost else self.clocks.observed_hz
        return peak * 1e12 / (self.num_sms * clock)

    def tc_peak_tflops(self, precision: str, *, sparse: bool = False,
                       at_observed_clock: bool = True) -> float:
        """Peak throughput at the clock the device actually runs at."""
        per_clk = self.tc_flops_per_clk_sm(precision, sparse=sparse)
        clock = (self.clocks.observed_hz if at_observed_clock
                 else self.clocks.boost_hz)
        return per_clk * self.num_sms * clock / 1e12

    def with_overrides(self, **kwargs) -> "DeviceSpec":
        """Return a copy with some top-level fields replaced.

        Used by ablation benchmarks (e.g. lifting the power cap) and to
        derive a device whose pack deviates from its generation's
        (``pack=replace(spec.pack, ...)``)."""
        return replace(self, **kwargs)

    def table3_row(self) -> dict:
        """The fields Table III reports, as a flat dict."""
        return {
            "Device": self.marketing_name,
            "Comp. Capability": (
                f"{self.compute_capability} "
                f"({self.pack.display_name})"
            ),
            "SMs * cores/SM": f"{self.num_sms} * {self.cuda_cores_per_sm}",
            "Max Clock rate": f"{self.clocks.boost_sm_mhz:.0f} MHz",
            "Mem. Size": f"{self.dram.size_gib}GB",
            "Mem. Type": self.dram.mem_type,
            "Mem. Clock rate": f"{self.clocks.memory_mhz:.0f} MHz",
            "Mem. Bus": f"{self.dram.bus_width_bits}-bit",
            "Mem. Bandwidth": f"{self.dram.peak_bandwidth_gbps:.0f} GB/s",
            "Tensor Core": (
                f"{self.tensor_core.count} "
                f"({self.pack.tensor_core_generation}th Gen.)"
            ),
            "DPX hardware": (
                "Yes" if self.pack.has_dpx_hardware else "No"
            ),
            "Distributed shared memory": (
                "Yes" if self.pack.has_distributed_shared_memory
                else "No"
            ),
        }
