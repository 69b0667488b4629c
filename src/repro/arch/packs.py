"""Architecture packs — per-generation capability and calibration data.

An :class:`ArchPack` is the *data plane* of the device models: every
piece of per-generation knowledge the engines need — capability flags,
PTX→SASS lowering deltas, tensor-core latency/efficiency tables, power
idle/unit-energy tables, async-copy cycle calibrations, SM-to-SM
fabric parameters — lives here as declarative data.  Engines
(:mod:`repro.tensorcore.timing`, :mod:`repro.power.model`,
:mod:`repro.isa.lowering`, :mod:`repro.asynccopy`, :mod:`repro.dsm`,
…) read ``device.pack`` and stay generation-agnostic; adding a GPU
generation means writing a pack and registering a device that carries
it, not editing engine code.

Two kinds of fields, by contract:

* **Parameters** are primitive calibrations a microbenchmark measures
  directly (an issue efficiency, a pJ/MAC, a step-overhead cycle
  count).  They carry units in their names and are never computed from
  other fields.
* **Derived** quantities (peak TFLOPS at a clock, effective bandwidth,
  issue intervals) are *never* stored in a pack — engines derive them
  so they stay consistent under ``with_overrides`` ablations.

The three paper generations (Ampere, Ada, Hopper) carry the exact
calibration constants the golden tables were pinned against.  The
Volta pack is grounded in the GPU-lineage study (arXiv 2106.04979);
the Blackwell pack in the B200 microbenchmark study (arXiv
2507.10789).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Mapping, Optional, Tuple

__all__ = [
    "MmaCalibration",
    "WgmmaCalibration",
    "PowerCalibration",
    "AsyncCopyCalibration",
    "DsmCalibration",
    "ArchPack",
    "validate_pack",
    "PackValidationError",
]

#: (peak_key, accumulator ptx name, sparse) -> pJ per physical MAC
EnergyKey = Tuple[str, str, bool]


class PackValidationError(ValueError):
    """An ArchPack fails the schema-completeness contract."""


@dataclass(frozen=True)
class MmaCalibration:
    """Legacy warp-level ``mma`` pipe table for one generation.

    ``steps`` is the instruction depth (k / min-k ∈ {1, 2}); see
    :mod:`repro.tensorcore.timing` for the mechanism.
    """

    #: completion latency in cycles: {steps: clk}
    latency_clk: Mapping[int, float]
    #: issue efficiency (achieved / peak issue rate): {sparse: {steps: eff}}
    efficiency: Mapping[bool, Mapping[int, float]]
    #: deeper-pipe latency table for FP32 accumulation, where the
    #: generation pays one (Ada's consumer tensor cores); None = same pipe
    f32acc_latency_clk: Optional[Mapping[int, float]] = None
    #: fraction of peak retained by FP16/BF16 → FP32 accumulation
    #: (1.0 = full rate; Ada double-pumps at 0.5)
    f32acc_rate: float = 1.0
    #: tensor-core pipes per SM (one per scheduler sub-partition)
    pipes_per_sm: int = 4


@dataclass(frozen=True)
class WgmmaCalibration:
    """Warp-group MMA (asynchronous tensor-core path) calibration."""

    #: minimum wgmma completion latency (pipe depth floor), cycles
    min_latency_clk: float
    #: sparse RS floor is slightly deeper (metadata select stage)
    sparse_rs_floor_clk: float
    #: pipeline-bubble stretch of the dependent-accumulator chain
    chain_stretch: float
    #: compute-bound efficiency (scoreboard overhead at full tilt)
    compute_eff: float


@dataclass(frozen=True)
class PowerCalibration:
    """Idle power and per-MAC energy tables for one generation."""

    #: board idle power (W)
    idle_watts: float
    #: legacy mma path: (peak_key, cd ptx name, sparse) -> pJ per MAC
    mma_energy_pj: Mapping[EnergyKey, float] = field(default_factory=dict)
    #: warp-group path energies (empty where wgmma does not exist)
    wgmma_energy_pj: Mapping[EnergyKey, float] = field(default_factory=dict)


@dataclass(frozen=True)
class AsyncCopyCalibration:
    """Tiled-matmul pipeline step-overhead calibration.

    Keys are :class:`repro.asynccopy.CopyVariant` *values* (strings)
    so the pack layer stays import-free of the engine; empty tables
    fall back to the structural model in
    :mod:`repro.asynccopy.matmul_pipeline`.
    """

    #: per-step exposed-latency + software overhead, cycles:
    #: {variant value: {block_dim: clk}}
    step_overhead_clk: Mapping[str, Mapping[int, float]] = \
        field(default_factory=dict)


@dataclass(frozen=True)
class DsmCalibration:
    """SM-to-SM fabric parameters (generations with clusters only)."""

    #: per-SM fabric injection width, bytes per SM clock
    link_bytes_per_clk: float
    #: fabric-sharing contention coefficient
    contention_alpha: float


@dataclass(frozen=True)
class ArchPack:
    """Everything per-generation, as data.  See the module docstring
    for the parameter-vs-derived contract."""

    name: str                      # lowercase identifier, e.g. "hopper"
    display_name: str              # e.g. "Hopper"
    compute_capability: str        # e.g. "9.0"
    tensor_core_generation: int

    # -- capability flags -------------------------------------------------
    has_dpx_hardware: bool = False
    has_distributed_shared_memory: bool = False
    has_wgmma: bool = False
    has_tma: bool = False
    has_cp_async: bool = True
    has_fp8: bool = False
    has_sparse_mma: bool = True    # 2:4 structured sparsity (Ampere+)

    # -- PTX → SASS lowering deltas ---------------------------------------
    #: INT4 mma compiles but lowers to CUDA-core IMAD sequences
    #: (Hopper dropped INT4 tensor-core support; Blackwell keeps it out)
    int4_mma_emulated: bool = False
    #: restrict which input precisions have *any* mma lowering
    #: (None = every PTX-defined pairing; Volta is FP16-only)
    mma_peak_keys: Optional[FrozenSet[str]] = None

    # -- calibration tables ------------------------------------------------
    mma: MmaCalibration = field(
        default_factory=lambda: MmaCalibration(
            latency_clk={}, efficiency={}))
    wgmma: Optional[WgmmaCalibration] = None
    power: PowerCalibration = field(
        default_factory=lambda: PowerCalibration(idle_watts=50.0))
    asynccopy: AsyncCopyCalibration = field(
        default_factory=AsyncCopyCalibration)
    dsm: Optional[DsmCalibration] = None

    def supports_mma_input(self, peak_key: str) -> bool:
        """Whether any warp-level mma lowering exists for an input
        precision on this generation."""
        return self.mma_peak_keys is None or peak_key in self.mma_peak_keys


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

#: capability flags every pack must define (all bool)
CAPABILITY_FLAGS = (
    "has_dpx_hardware",
    "has_distributed_shared_memory",
    "has_wgmma",
    "has_tma",
    "has_cp_async",
    "has_fp8",
    "has_sparse_mma",
)


def validate_pack(pack: ArchPack) -> None:
    """Assert schema completeness; raise :class:`PackValidationError`.

    This is the contract the CI pack-validation step enforces: every
    flag present and boolean, calibration tables complete for the
    capabilities the pack claims, and no capability without the data
    the engines will read for it.
    """
    def fail(msg: str) -> None:
        raise PackValidationError(f"pack {pack.name!r}: {msg}")

    if not pack.name or pack.name != pack.name.lower():
        fail("name must be a non-empty lowercase identifier")
    parts = pack.compute_capability.split(".")
    if len(parts) != 2 or not all(p.isdigit() for p in parts):
        fail(f"compute_capability {pack.compute_capability!r} "
             "is not 'major.minor'")
    if pack.tensor_core_generation < 1:
        fail("tensor_core_generation must be >= 1")
    for flag in CAPABILITY_FLAGS:
        v = getattr(pack, flag)
        if not isinstance(v, bool):
            fail(f"{flag} must be bool, got {type(v).__name__}")

    # mma pipe table: both depths, dense always; sparse iff claimed
    for steps in (1, 2):
        if steps not in pack.mma.latency_clk:
            fail(f"mma.latency_clk missing steps={steps}")
    if False not in pack.mma.efficiency:
        fail("mma.efficiency missing the dense (False) table")
    if pack.has_sparse_mma and True not in pack.mma.efficiency:
        fail("has_sparse_mma but mma.efficiency has no sparse table")
    for sparse, table in pack.mma.efficiency.items():
        for steps in (1, 2):
            if steps not in table:
                fail(f"mma.efficiency[{sparse}] missing steps={steps}")
            if not 0.0 < table[steps] <= 1.0:
                fail(f"mma.efficiency[{sparse}][{steps}] out of (0, 1]")
    if pack.mma.f32acc_rate != 1.0 and pack.mma.f32acc_latency_clk is None:
        fail("f32acc_rate != 1.0 requires an f32acc_latency_clk table")
    if pack.mma.pipes_per_sm < 1:
        fail("mma.pipes_per_sm must be >= 1")

    # wgmma calibration present exactly when the ISA exists
    if pack.has_wgmma and pack.wgmma is None:
        fail("has_wgmma but no wgmma calibration")
    if pack.wgmma is not None and not pack.has_wgmma:
        fail("wgmma calibration on a generation without wgmma")
    if pack.wgmma is not None:
        if pack.wgmma.min_latency_clk <= 0:
            fail("wgmma.min_latency_clk must be positive")
        if pack.wgmma.chain_stretch < 1.0:
            fail("wgmma.chain_stretch must be >= 1.0")
        if not 0.0 < pack.wgmma.compute_eff <= 1.0:
            fail("wgmma.compute_eff out of (0, 1]")
        if not pack.power.wgmma_energy_pj:
            fail("has_wgmma but power.wgmma_energy_pj is empty")

    # power
    if pack.power.idle_watts <= 0:
        fail("power.idle_watts must be positive")
    if not pack.power.mma_energy_pj:
        fail("power.mma_energy_pj must not be empty")
    for table in (pack.power.mma_energy_pj, pack.power.wgmma_energy_pj):
        for key, pj in table.items():
            if len(key) != 3 or pj <= 0:
                fail(f"bad energy entry {key!r} -> {pj!r}")

    # dsm calibration present exactly when clusters exist
    if pack.has_distributed_shared_memory and pack.dsm is None:
        fail("has_distributed_shared_memory but no dsm calibration")
    if pack.dsm is not None and not pack.has_distributed_shared_memory:
        fail("dsm calibration on a generation without clusters")
    if pack.dsm is not None and pack.dsm.link_bytes_per_clk <= 0:
        fail("dsm.link_bytes_per_clk must be positive")

    # async-copy tables must key on known variants and sane cycles
    for variant, table in pack.asynccopy.step_overhead_clk.items():
        if variant not in ("SyncShare", "AsyncPipe", "TmaPipe"):
            fail(f"asynccopy variant {variant!r} unknown")
        for dim, clk in table.items():
            if clk <= 0:
                fail(f"asynccopy overhead for {variant}/{dim} "
                     "must be positive")

    # lowering deltas must be coherent with the peak-key restriction
    if pack.mma_peak_keys is not None and not pack.mma_peak_keys:
        fail("mma_peak_keys must be None or non-empty")


# --------------------------------------------------------------------------
# the packs
# --------------------------------------------------------------------------

VOLTA = ArchPack(
    name="volta",
    display_name="Volta",
    compute_capability="7.0",
    tensor_core_generation=1,
    # sm_70 predates every Hopper-era feature the paper dissects —
    # and cp.async itself (async copies arrive with Ampere, cf. the
    # lineage study's K80→A100 async-copy evolution).
    has_dpx_hardware=False,
    has_distributed_shared_memory=False,
    has_wgmma=False,
    has_tma=False,
    has_cp_async=False,
    has_fp8=False,
    has_sparse_mma=False,
    # 1st-gen tensor cores are FP16-input only: no TF32/BF16/INT8
    # pairings lower to HMMA at all.
    mma_peak_keys=frozenset({"fp16"}),
    mma=MmaCalibration(
        latency_clk={1: 21.2, 2: 29.6},
        efficiency={False: {1: 0.95, 2: 0.97}},
    ),
    power=PowerCalibration(
        idle_watts=39.0,
        mma_energy_pj={
            ("fp16", "f16", False): 1.150,
            ("fp16", "f32", False): 1.320,
        },
    ),
)

AMPERE = ArchPack(
    name="ampere",
    display_name="Ampere",
    compute_capability="8.0",
    tensor_core_generation=3,
    mma=MmaCalibration(
        latency_clk={1: 17.7, 2: 25.5},
        efficiency={
            False: {1: 0.99, 2: 0.99},
            True: {1: 0.645, 2: 0.99},
        },
    ),
    power=PowerCalibration(
        idle_watts=60.0,
        mma_energy_pj={
            ("fp16", "f16", False): 0.730, ("fp16", "f16", True): 0.891,
            ("fp16", "f32", False): 0.847, ("fp16", "f32", True): 1.035,
            ("bf16", "f32", False): 0.847, ("bf16", "f32", True): 1.035,
            ("tf32", "f32", False): 2.042, ("tf32", "f32", True): 2.331,
            ("int8", "s32", False): 0.390, ("int8", "s32", True): 0.443,
        },
    ),
    asynccopy=AsyncCopyCalibration(step_overhead_clk={
        "SyncShare": {8: 375.0, 16: 447.0, 32: 140.0},
        "AsyncPipe": {8: 375.0, 16: 304.0, 32: 128.0},
    }),
)

ADA = ArchPack(
    name="ada",
    display_name="Ada",
    compute_capability="8.9",
    tensor_core_generation=4,
    has_fp8=True,
    mma=MmaCalibration(
        latency_clk={1: 17.5, 2: 24.6},
        efficiency={
            False: {1: 0.99, 2: 0.99},
            True: {1: 0.99, 2: 0.99},
        },
        # Ada pays double-pumped FP32 accumulation on its consumer
        # tensor cores: deeper pipe, half rate (paper Table VII).
        f32acc_latency_clk={1: 19.0, 2: 33.2},
        f32acc_rate=0.5,
    ),
    power=PowerCalibration(
        idle_watts=55.0,
        mma_energy_pj={
            ("fp16", "f16", False): 0.750, ("fp16", "f16", True): 0.894,
            ("fp16", "f32", False): 1.108, ("fp16", "f32", True): 1.246,
            ("bf16", "f32", False): 1.108, ("bf16", "f32", True): 1.246,
            ("tf32", "f32", False): 2.680, ("tf32", "f32", True): 2.974,
            ("int8", "s32", False): 0.411, ("int8", "s32", True): 0.463,
        },
    ),
)

HOPPER = ArchPack(
    name="hopper",
    display_name="Hopper",
    compute_capability="9.0",
    tensor_core_generation=4,
    has_dpx_hardware=True,
    has_distributed_shared_memory=True,
    has_wgmma=True,
    has_tma=True,
    has_fp8=True,
    # Hopper dropped INT4 tensor-core support: the PTX still compiles,
    # but to CUDA-core integer MACs (Table VI's IMAD row).
    int4_mma_emulated=True,
    mma=MmaCalibration(
        latency_clk={1: 16.0, 2: 24.1},
        # The paper's headline mma finding: Hopper's legacy path cannot
        # saturate 4th-gen tensor cores, sparse even less so.
        efficiency={
            False: {1: 0.487, 2: 0.651},
            True: {1: 0.324, 2: 0.477},
        },
    ),
    wgmma=WgmmaCalibration(
        min_latency_clk=13.0,
        sparse_rs_floor_clk=17.0,
        chain_stretch=1.12,
        compute_eff=0.965,
    ),
    power=PowerCalibration(
        idle_watts=60.0,
        mma_energy_pj={
            ("fp16", "f16", False): 0.520, ("fp16", "f16", True): 0.704,
            ("fp16", "f32", False): 0.557, ("fp16", "f32", True): 0.748,
            ("bf16", "f32", False): 0.557, ("bf16", "f32", True): 0.748,
            ("tf32", "f32", False): 1.582, ("tf32", "f32", True): 1.899,
            ("int8", "s32", False): 0.215, ("int8", "s32", True): 0.288,
        },
        # the warp-group datapath engages the full 4th-gen array and
        # differs from the legacy mma path
        wgmma_energy_pj={
            ("fp16", "f16", False): 0.721, ("fp16", "f16", True): 0.721,
            ("fp16", "f32", False): 0.771, ("fp16", "f32", True): 0.771,
            ("bf16", "f16", False): 0.721, ("bf16", "f16", True): 0.721,
            ("bf16", "f32", False): 0.771, ("bf16", "f32", True): 0.771,
            ("tf32", "f32", False): 1.420, ("tf32", "f32", True): 1.420,
            ("fp8", "f16", False): 0.300, ("fp8", "f16", True): 0.300,
            ("fp8", "f32", False): 0.306, ("fp8", "f32", True): 0.306,
            ("int8", "s32", False): 0.300, ("int8", "s32", True): 0.300,
        },
    ),
    asynccopy=AsyncCopyCalibration(step_overhead_clk={
        "SyncShare": {8: 589.0, 16: 427.0, 32: 155.0},
        "AsyncPipe": {8: 360.0, 16: 354.0, 32: 242.0},
    }),
    dsm=DsmCalibration(
        link_bytes_per_clk=18.5,
        contention_alpha=0.133,
    ),
)

BLACKWELL = ArchPack(
    name="blackwell",
    display_name="Blackwell",
    compute_capability="10.0",
    tensor_core_generation=5,
    has_dpx_hardware=True,
    has_distributed_shared_memory=True,
    # Blackwell's ISA *drops* wgmma: the 5th-gen tensor core is driven
    # through tcgen05.mma against tensor memory (tmem) instead (arXiv
    # 2507.10789).  Engines model the library path as near-peak QMMA.
    has_wgmma=False,
    has_tma=True,
    has_fp8=True,
    # like Hopper, no INT4 tensor-core path remains
    int4_mma_emulated=True,
    mma=MmaCalibration(
        # the legacy warp-level path saturates the 5th-gen array even
        # less than it did Hopper's 4th — tcgen05 is how you reach peak
        latency_clk={1: 15.2, 2: 22.6},
        efficiency={
            False: {1: 0.410, 2: 0.550},
            True: {1: 0.280, 2: 0.410},
        },
    ),
    power=PowerCalibration(
        idle_watts=90.0,
        mma_energy_pj={
            ("fp16", "f16", False): 0.470, ("fp16", "f16", True): 0.640,
            ("fp16", "f32", False): 0.505, ("fp16", "f32", True): 0.680,
            ("bf16", "f32", False): 0.505, ("bf16", "f32", True): 0.680,
            ("tf32", "f32", False): 1.430, ("tf32", "f32", True): 1.720,
            ("int8", "s32", False): 0.195, ("int8", "s32", True): 0.262,
        },
    ),
    # no step-overhead calibration published yet — the structural
    # fallback in the pipeline model covers B200
    dsm=DsmCalibration(
        link_bytes_per_clk=24.0,
        contention_alpha=0.110,
    ),
)
