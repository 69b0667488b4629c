"""Built-in device presets and the device registry.

The first three presets mirror the paper's testbed (Table III):

* ``A100``  — Nvidia A100 PCIe 40 GB (Ampere, sm_80)
* ``RTX4090`` — Nvidia GeForce RTX 4090 (Ada Lovelace, sm_89)
* ``H800``  — Nvidia H800 PCIe 80 GB (Hopper, sm_90)

Two lineage presets ride on the architecture packs and stress that
nothing Hopper-specific is hard-coded in the engines:

* ``V100``  — Tesla V100 PCIe 32 GB (Volta, sm_70), grounded in the
  GPU-lineage study (arXiv 2106.04979): pre-``cp.async``, 1st-gen
  FP16-only tensor cores, no wgmma/TMA/DSM/DPX/FP8.
* ``B200``  — B200 SXM 192 GB (Blackwell, sm_100), grounded in the
  Blackwell microbenchmark study (arXiv 2507.10789): 5th-gen tensor
  cores driven through tcgen05 + tensor memory, no wgmma ISA.

Primitive calibration values (hit latencies, unit widths) come from the
papers' own single-number measurements and public spec sheets; see
DESIGN.md §6 and docs/architecture-packs.md for the
parameter-vs-derived contract.
"""

from __future__ import annotations

from typing import Dict, List

from repro.arch.packs import (
    ADA,
    AMPERE,
    BLACKWELL,
    HOPPER,
    VOLTA,
    validate_pack,
)
from repro.arch.specs import (
    CacheGeometry,
    ClockDomain,
    DeviceSpec,
    DramSpec,
    MemoryLatencies,
    MemoryWidths,
    TensorCoreSpec,
)

DEVICES: Dict[str, DeviceSpec] = {}


def register_device(spec: DeviceSpec, *, overwrite: bool = False) -> None:
    """Add a device to the registry.

    Third-party code can register additional GPUs (e.g. an H100 SXM
    variant) and run every experiment against them.  The device's pack
    must pass :func:`~repro.arch.packs.validate_pack` (a
    :class:`~repro.arch.packs.PackValidationError` otherwise); a
    rejected device stays unregistered.
    """
    key = spec.name.upper()
    if key in DEVICES and not overwrite:
        raise ValueError(f"device {spec.name!r} is already registered")
    validate_pack(spec.pack)
    DEVICES[key] = spec


def get_device(name: str) -> DeviceSpec:
    """Look up a device by (case-insensitive) name.

    Unknown names raise a ``KeyError`` with close-match suggestions —
    the same did-you-mean convention
    :func:`~repro.core.registry.get_experiment` uses, so typos in CLI
    queries fail helpfully instead of with a bare list.
    """
    try:
        return DEVICES[name.upper()]
    except KeyError:
        import difflib

        close = difflib.get_close_matches(name.upper(),
                                          list_devices(), n=3,
                                          cutoff=0.4)
        hint = (f"; did you mean "
                f"{' or '.join(repr(c) for c in close)}?"
                if close else "")
        raise KeyError(
            f"unknown device {name!r}; known devices: "
            f"{list_devices()}{hint}"
        ) from None


def list_devices() -> List[str]:
    return sorted(DEVICES)


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

_A100 = DeviceSpec(
    name="A100",
    marketing_name="A100 PCIe",
    pack=AMPERE,
    num_sms=108,
    cuda_cores_per_sm=64,
    max_threads_per_sm=2048,
    max_blocks_per_sm=32,
    registers_per_sm=65536,
    clocks=ClockDomain(
        boost_sm_mhz=1410.0,
        observed_sm_mhz=1410.0,
        memory_mhz=1215.0,
    ),
    cache=CacheGeometry(
        l1_size_kib=192,
        shared_max_kib=164,
        l2_size_kib=40 * 1024,
    ),
    mem_latencies=MemoryLatencies(
        shared_clk=29.0,
        l1_hit_clk=37.9,
        l2_hit_clk=261.5,
        dram_clk=204.8,
    ),
    mem_widths=MemoryWidths(
        l1_bytes_per_clk_sm=128.0,
        smem_bytes_per_clk_sm=128.0,
        l2_bytes_per_clk=2050.0,
        lsu_issue_per_clk=0.78,
        # A100 keeps full-rate FP64 ALUs (1:2 of FP32) so the FP64
        # dependent-add chain never bottlenecks the cache probe.
        fp64_add_bytes_per_clk_sm=256.0,
        access_efficiency={
            ("l1", "FP32.v4"): 0.835,
            ("l1", "FP64"): 0.94,
            ("l2", "FP32"): 0.904,
            ("l2", "FP64"): 0.971,
            ("l2", "FP32.v4"): 0.979,
        },
    ),
    dram=DramSpec(
        size_gib=40,
        mem_type="HBM2e",
        bus_width_bits=5120,
        peak_bandwidth_gbps=1555.0,
        refresh_overhead=0.035,
        rw_turnaround_penalty=0.112,
    ),
    tensor_core=TensorCoreSpec(
        count=432,
        dense_peak_tflops={
            "fp16": 312.0,
            "bf16": 312.0,
            "tf32": 156.0,
            "fp64": 19.5,
            "int8": 624.0,
            "int4": 1248.0,
            "binary": 4992.0,
        },
    ),
    power_cap_watts=250.0,
    max_cluster_size=1,
    llm_host_overhead_s_per_layer=0.75e-3,
)

_RTX4090 = DeviceSpec(
    name="RTX4090",
    marketing_name="RTX4090",
    pack=ADA,
    num_sms=128,
    cuda_cores_per_sm=128,
    max_threads_per_sm=1536,
    max_blocks_per_sm=24,
    registers_per_sm=65536,
    clocks=ClockDomain(
        boost_sm_mhz=2520.0,
        # The paper observed the card clocking above its official boost,
        # which is why measured TC throughput exceeds the official peak.
        observed_sm_mhz=2730.0,
        memory_mhz=10501.0,
    ),
    cache=CacheGeometry(
        l1_size_kib=128,
        shared_max_kib=100,
        l2_size_kib=72 * 1024,
    ),
    mem_latencies=MemoryLatencies(
        shared_clk=30.1,
        l1_hit_clk=43.4,
        l2_hit_clk=273.0,
        # GDDR6X round-trip adds more cycles than HBM2e.
        dram_clk=268.5,
    ),
    mem_widths=MemoryWidths(
        l1_bytes_per_clk_sm=128.0,
        smem_bytes_per_clk_sm=128.0,
        l2_bytes_per_clk=1750.0,
        lsu_issue_per_clk=0.50,
        # Consumer Ada runs FP64 at 1:64 rate → 2 FMA/clk/SM; the
        # dependent add chain moves 16 B of loaded data per clock.
        fp64_add_bytes_per_clk_sm=16.0,
        access_efficiency={
            ("l1", "FP32.v4"): 0.947,
            ("l1", "FP64"): 0.83,
            ("l2", "FP32"): 0.927,
            ("l2", "FP64"): 0.858,
            ("l2", "FP32.v4"): 0.976,
        },
    ),
    dram=DramSpec(
        size_gib=24,
        mem_type="GDDR6X",
        bus_width_bits=384,
        peak_bandwidth_gbps=1008.0,
        refresh_overhead=0.025,
        rw_turnaround_penalty=0.097,
    ),
    tensor_core=TensorCoreSpec(
        count=512,
        dense_peak_tflops={
            "fp16": 330.3,
            "bf16": 330.3,
            "tf32": 82.6,
            "fp8": 660.6,
            "int8": 660.6,
            "int4": 1321.2,
            "binary": 5284.8,
        },
    ),
    power_cap_watts=450.0,
    max_cluster_size=1,
    llm_host_overhead_s_per_layer=1.22e-3,
)

_H800 = DeviceSpec(
    name="H800",
    marketing_name="H800 PCIe",
    pack=HOPPER,
    num_sms=114,
    cuda_cores_per_sm=128,
    max_threads_per_sm=2048,
    max_blocks_per_sm=32,
    registers_per_sm=65536,
    clocks=ClockDomain(
        boost_sm_mhz=1755.0,
        observed_sm_mhz=1755.0,
        memory_mhz=1593.0,
    ),
    cache=CacheGeometry(
        l1_size_kib=256,
        shared_max_kib=228,
        l2_size_kib=50 * 1024,
    ),
    mem_latencies=MemoryLatencies(
        shared_clk=29.0,
        l1_hit_clk=40.7,
        l2_hit_clk=263.0,
        dram_clk=215.8,
        dsm_remote_clk=180.0,
    ),
    mem_widths=MemoryWidths(
        l1_bytes_per_clk_sm=128.0,
        smem_bytes_per_clk_sm=128.0,
        l2_bytes_per_clk=4520.0,
        lsu_issue_per_clk=0.98,
        # The H800 ships with FP64 throughput fused down to ~1 TFLOPS;
        # like Ada, the FP64 add chain caps the FP64 cache probe.
        fp64_add_bytes_per_clk_sm=16.0,
        access_efficiency={
            ("l1", "FP32.v4"): 0.97,
            ("l2", "FP32"): 0.99,
            ("l2", "FP32.v4"): 0.872,
        },
    ),
    dram=DramSpec(
        size_gib=80,
        mem_type="HBM2e",
        bus_width_bits=5120,
        peak_bandwidth_gbps=2039.0,
        refresh_overhead=0.03,
        rw_turnaround_penalty=0.106,
    ),
    tensor_core=TensorCoreSpec(
        count=456,
        dense_peak_tflops={
            "fp16": 756.5,
            "bf16": 756.5,
            "tf32": 378.0,
            "fp8": 1513.0,
            "int8": 1513.0,
            "fp64": 1.0,
            "binary": 12104.0,
        },
    ),
    power_cap_watts=350.0,
    max_cluster_size=16,
    llm_host_overhead_s_per_layer=0.86e-3,
)

_V100 = DeviceSpec(
    name="V100",
    marketing_name="Tesla V100 PCIe",
    pack=VOLTA,
    num_sms=80,
    cuda_cores_per_sm=64,
    max_threads_per_sm=2048,
    max_blocks_per_sm=32,
    registers_per_sm=65536,
    clocks=ClockDomain(
        boost_sm_mhz=1380.0,
        observed_sm_mhz=1312.0,
        memory_mhz=877.0,
    ),
    cache=CacheGeometry(
        l1_size_kib=128,
        shared_max_kib=96,
        l2_size_kib=6 * 1024,
    ),
    mem_latencies=MemoryLatencies(
        shared_clk=19.0,
        l1_hit_clk=28.0,
        l2_hit_clk=193.0,
        dram_clk=161.0,
    ),
    mem_widths=MemoryWidths(
        l1_bytes_per_clk_sm=128.0,
        smem_bytes_per_clk_sm=128.0,
        l2_bytes_per_clk=1600.0,
        lsu_issue_per_clk=0.45,
        # Volta keeps 1:2-rate FP64 (strong HPC part): the FP64 add
        # chain never bottlenecks the cache probe.
        fp64_add_bytes_per_clk_sm=128.0,
    ),
    dram=DramSpec(
        size_gib=32,
        mem_type="HBM2",
        bus_width_bits=4096,
        peak_bandwidth_gbps=900.0,
        refresh_overhead=0.035,
        rw_turnaround_penalty=0.112,
    ),
    tensor_core=TensorCoreSpec(
        count=640,
        # 1st-gen tensor cores: FP16 inputs only — 8 TC/SM × 128
        # FLOP/clk at boost clock.
        dense_peak_tflops={
            "fp16": 113.0,
        },
    ),
    power_cap_watts=250.0,
    max_cluster_size=1,
)

_B200 = DeviceSpec(
    name="B200",
    marketing_name="B200 SXM",
    pack=BLACKWELL,
    num_sms=148,
    cuda_cores_per_sm=128,
    max_threads_per_sm=2048,
    max_blocks_per_sm=32,
    registers_per_sm=65536,
    clocks=ClockDomain(
        boost_sm_mhz=1965.0,
        observed_sm_mhz=1830.0,
        memory_mhz=3200.0,
    ),
    cache=CacheGeometry(
        l1_size_kib=256,
        shared_max_kib=228,
        l2_size_kib=126 * 1024,
    ),
    mem_latencies=MemoryLatencies(
        shared_clk=29.0,
        l1_hit_clk=38.9,
        l2_hit_clk=273.0,
        dram_clk=211.0,
        dsm_remote_clk=170.0,
    ),
    mem_widths=MemoryWidths(
        l1_bytes_per_clk_sm=128.0,
        smem_bytes_per_clk_sm=128.0,
        l2_bytes_per_clk=7168.0,
        lsu_issue_per_clk=0.98,
        # Datacenter Blackwell keeps FP64 de-emphasised like the H800.
        fp64_add_bytes_per_clk_sm=16.0,
    ),
    dram=DramSpec(
        size_gib=192,
        mem_type="HBM3e",
        bus_width_bits=8192,
        peak_bandwidth_gbps=8000.0,
        refresh_overhead=0.03,
        rw_turnaround_penalty=0.106,
    ),
    tensor_core=TensorCoreSpec(
        count=592,
        # 5th-gen peaks (dense, per arXiv 2507.10789); binary tensor
        # ops are gone, so BMMA pairings price as unsupported.
        dense_peak_tflops={
            "fp16": 2250.0,
            "bf16": 2250.0,
            "tf32": 1120.0,
            "fp8": 4500.0,
            "fp64": 40.0,
            "int8": 4500.0,
        },
    ),
    power_cap_watts=1000.0,
    max_cluster_size=16,
)

for _spec in (_A100, _RTX4090, _H800, _V100, _B200):
    register_device(_spec)

#: The three devices the paper benchmarks, in its presentation order.
PAPER_DEVICES = ("RTX4090", "A100", "H800")
