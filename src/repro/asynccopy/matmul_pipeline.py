"""Tiled-matmul pipeline cost model (SyncShare vs AsyncPipe).

Workload: ``C (H × W) = A (H × K) × B (K × W)`` with square b×b thread
blocks; K = 2048 as in the paper.  Each block iterates over K/b steps;
a step copies one A tile + one B tile (2·b²·4 bytes) to shared memory
and accumulates b FMAs per thread against them.

The model splits a configuration's throughput into two regimes:

* **Latency-bound** (few resident blocks): each block's step takes
  ``C + copy + X`` cycles, where ``C`` is the shared-memory-bound
  inner product (2 × 4 B shared loads per FMA → ``8·b³/128`` cycles),
  ``copy`` the LSU issue cost, and ``X`` the per-step exposed latency
  plus software overhead.  ``X`` is where the two variants differ: the
  synchronous copy exposes the full tile round-trip behind a barrier
  every step; the 2-stage ``cp.async`` pipeline prefetches the next
  tile during the current compute.  ``X`` values for the paper's two
  benchmarked devices are microbenchmark calibrations (their packs'
  ``asynccopy.step_overhead_clk``); other devices use a structural
  fallback.

* **Resource-bound** (machine full): the saturation throughput is the
  min of three *derived* caps — shared-memory bandwidth (4 B per FLOP
  → 32 FLOP/clk/SM), DRAM bandwidth against the per-step tile traffic
  (which is what pins the 8×8 plateau), and the FP32 pipes — times a
  barrier-convoy efficiency ``1 − 0.42/warps`` for the synchronous
  variant (tiny blocks convoy badly, 32-warp blocks hardly at all).

Both the async advantage at small blocks, its evaporation at 16×16 and
its sign-flip at 32×32 (Tables XIII/XIV) follow from the interplay of
``X``, the caps and occupancy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List

from repro.arch import DeviceSpec
from repro.obs import session as _obs
from repro.sm.occupancy import BlockConfig, occupancy

__all__ = [
    "CopyVariant",
    "AsyncCopyConfig",
    "StepBreakdown",
    "TiledMatmulModel",
    "benchmark_table",
]


#: CopyVariant → the counter slug of its tile-copy byte path
_VARIANT_PATHS = {"SYNC": "sync", "ASYNC": "cp_async", "TMA": "tma"}


class CopyVariant(enum.Enum):
    SYNC = "SyncShare"
    ASYNC = "AsyncPipe"
    #: Hopper-only: the tile copy is one TMA bulk descriptor per step —
    #: no per-thread address generation, no cp.async bookkeeping in the
    #: issue stream.  The paper describes TMA (§III-D2) but benchmarks
    #: only cp.async; this variant is the library's prediction.
    TMA = "TmaPipe"


#: shared-memory bytes the inner product reads per FLOP (2 × 4 B / 2 FLOP)
_SMEM_BYTES_PER_FLOP = 4.0
#: barrier-convoy penalty coefficient of the synchronous variant
_SYNC_CONVOY = 0.42
#: steady-state issue-slot tax of cp.async commit/wait bookkeeping —
#: the reason AsyncPipe ends up *slightly behind* SyncShare once 32×32
#: blocks hide all latency anyway (Table XIII's −1.8 % row)
_ASYNC_CAP_EFF = 0.98
# Per-step exposed-latency + software overhead calibrations live in the
# architecture packs (``device.pack.asynccopy.step_overhead_clk``,
# keyed by CopyVariant value then block_dim); architectures without a
# calibration fall through to the structural pieces below.
#: structural fallback pieces for uncalibrated devices
_BARRIER_CLK = 30.0
_ASYNC_OVERHEAD_CLK = 90.0
_SERIAL_SW_CLK = 480.0     # per-step software cost, divided by warps
#: TMA removes the per-thread copy bookkeeping from the issue stream;
#: what remains of the async step overhead is latency exposure + the
#: mbarrier wait.
_TMA_OVERHEAD_FACTOR = 0.85
#: issuing one bulk descriptor costs a handful of cycles
_TMA_ISSUE_CLK = 4.0


@dataclass(frozen=True)
class AsyncCopyConfig:
    """One cell of Tables XIII/XIV."""

    block_dim: int                 # 8, 16 or 32 (b×b threads)
    blocks_per_sm_launched: int    # grid size / SM count
    variant: CopyVariant
    k: int = 2048                  # A width = B height
    pipeline_stages: int = 2

    def __post_init__(self) -> None:
        if self.block_dim not in (8, 16, 32):
            raise ValueError("block_dim must be 8, 16 or 32")
        if self.blocks_per_sm_launched < 1:
            raise ValueError("must launch at least one block per SM")
        if self.pipeline_stages < 1:
            raise ValueError("pipeline needs >= 1 stage")
        if (self.variant in (CopyVariant.ASYNC, CopyVariant.TMA)
                and self.pipeline_stages < 2):
            raise ValueError(
                f"{self.variant.value} needs >= 2 buffer stages"
            )

    @property
    def threads(self) -> int:
        return self.block_dim ** 2

    @property
    def warps(self) -> int:
        return max(self.threads // 32, 1)

    @property
    def flops_per_step(self) -> int:
        """2·b³: each of b² threads does b FMAs per tile step."""
        return 2 * self.block_dim ** 3

    @property
    def copy_bytes_per_step(self) -> int:
        """A tile + B tile, FP32."""
        return 2 * self.block_dim ** 2 * 4

    @property
    def smem_bytes_per_block(self) -> int:
        stages = (1 if self.variant is CopyVariant.SYNC
                  else self.pipeline_stages)
        return stages * self.copy_bytes_per_step


@dataclass(frozen=True)
class StepBreakdown:
    """Per-step cycle decomposition of one resident block."""

    compute_clk: float
    copy_issue_clk: float
    overhead_clk: float

    @property
    def total_clk(self) -> float:
        return self.compute_clk + self.copy_issue_clk + self.overhead_clk


class TiledMatmulModel:
    """Throughput model for the globalToShmemAsyncCopy experiment."""

    def __init__(self, device: DeviceSpec) -> None:
        self.device = device

    # -- per-step mechanics ------------------------------------------------

    def compute_clk(self, cfg: AsyncCopyConfig) -> float:
        smem_bw = self.device.mem_widths.smem_bytes_per_clk_sm
        return cfg.flops_per_step * _SMEM_BYTES_PER_FLOP / smem_bw

    def copy_issue_clk(self, cfg: AsyncCopyConfig) -> float:
        if cfg.variant is CopyVariant.TMA:
            return _TMA_ISSUE_CLK   # one descriptor, engine-generated
        return (cfg.copy_bytes_per_step
                / self.device.mem_widths.l1_bytes_per_clk_sm)

    def _overhead_clk(self, cfg: AsyncCopyConfig) -> float:
        pack = self.device.pack
        lookup_variant = cfg.variant
        if cfg.variant is CopyVariant.TMA:
            if not pack.has_tma:
                raise ValueError(
                    f"{self.device.name} has no TMA engine"
                )
            # TMA inherits the async pipeline's latency exposure with
            # the per-thread bookkeeping stripped out.
            lookup_variant = CopyVariant.ASYNC
        elif cfg.variant is CopyVariant.ASYNC and not pack.has_cp_async:
            raise ValueError(
                f"{self.device.name} predates cp.async (sm_80+)"
            )
        table = pack.asynccopy.step_overhead_clk.get(
            lookup_variant.value
        )
        if table is not None and cfg.block_dim in table:
            x = table[cfg.block_dim]
        else:
            # Structural fallback: full round trip exposed each step
            # for sync; one stage of prefetch distance for async.
            lat = self.device.mem_latencies.global_clk
            sw = _SERIAL_SW_CLK / cfg.warps
            if cfg.variant is CopyVariant.SYNC:
                x = lat + 2 * _BARRIER_CLK + sw
            else:
                hidden = self.compute_clk(cfg) + sw
                exposed = max(
                    0.0, lat / (cfg.pipeline_stages - 1) - hidden
                )
                x = exposed + _BARRIER_CLK + _ASYNC_OVERHEAD_CLK + sw
        if (cfg.variant is not CopyVariant.SYNC
                and cfg.pipeline_stages != 2 and cfg.block_dim in (
                    table or {})):
            # Ablation hook: a deeper ring hides more latency, a
            # 2-stage calibration point scales with prefetch distance.
            x *= 2.0 / cfg.pipeline_stages + 0.0
            x = max(x, _BARRIER_CLK + _ASYNC_OVERHEAD_CLK)
        if cfg.variant is CopyVariant.TMA:
            x *= _TMA_OVERHEAD_FACTOR
        return x

    def step_breakdown(self, cfg: AsyncCopyConfig) -> StepBreakdown:
        step = StepBreakdown(
            compute_clk=self.compute_clk(cfg),
            copy_issue_clk=self.copy_issue_clk(cfg),
            overhead_clk=self._overhead_clk(cfg),
        )
        sess = _obs.ACTIVE
        if sess is not None:
            obs = sess.counters
            # pipeline-stage decomposition of the priced step: load =
            # tile-copy issue, compute = the shared-memory-bound inner
            # product, drain = exposed latency + barrier/bookkeeping
            obs.add("async.steps")
            obs.add(f"async.variant.{cfg.variant.name.lower()}")
            obs.observe("async.stage.load", step.copy_issue_clk)
            obs.observe("async.stage.compute", step.compute_clk)
            obs.observe("async.stage.drain", step.overhead_clk)
            obs.add(f"async.bytes.{_VARIANT_PATHS[cfg.variant.name]}",
                    cfg.copy_bytes_per_step)
        return step

    # -- resident blocks ---------------------------------------------------------

    def resident_blocks(self, cfg: AsyncCopyConfig) -> int:
        occ = occupancy(
            self.device,
            BlockConfig(threads=cfg.threads, regs_per_thread=32,
                        smem_bytes=cfg.smem_bytes_per_block),
        )
        return max(1, min(cfg.blocks_per_sm_launched, occ.blocks_per_sm))

    # -- saturation caps (fully derived) -------------------------------------------

    def smem_cap_flops_clk(self) -> float:
        return (self.device.mem_widths.smem_bytes_per_clk_sm
                / _SMEM_BYTES_PER_FLOP)

    def dram_cap_flops_clk(self, cfg: AsyncCopyConfig) -> float:
        bw_sm_clk = (
            self.device.dram.effective_bandwidth_gbps(1.0) * 1e9
            / (self.device.num_sms * self.device.clocks.observed_hz)
        )
        return bw_sm_clk * cfg.flops_per_step / cfg.copy_bytes_per_step

    def fp32_cap_flops_clk(self) -> float:
        return 2.0 * self.device.cuda_cores_per_sm

    # -- throughput ---------------------------------------------------------------

    def flops_per_clk_sm(self, cfg: AsyncCopyConfig) -> float:
        nb = self.resident_blocks(cfg)
        step = self.step_breakdown(cfg).total_clk
        latency_bound = nb * cfg.flops_per_step / step

        cap = min(
            self.smem_cap_flops_clk(),
            self.dram_cap_flops_clk(cfg),
            self.fp32_cap_flops_clk(),
        )
        if cfg.variant is CopyVariant.SYNC:
            cap *= 1.0 - _SYNC_CONVOY / cfg.warps
        elif cfg.variant is CopyVariant.ASYNC:
            cap *= _ASYNC_CAP_EFF
        # TMA pays no issue-stream tax: the engine moves the tiles.
        return min(latency_bound, cap)

    def throughput_gflops(self, cfg: AsyncCopyConfig) -> float:
        """Device-wide GFLOP/s — the unit of Tables XIII/XIV."""
        return (self.flops_per_clk_sm(cfg)
                * self.device.num_sms
                * self.device.clocks.observed_hz / 1e9)


def benchmark_table(device: DeviceSpec,
                    *, block_dims=(8, 16, 32),
                    blocks_per_sm=(1, 2, 4, 8, 16, 32),
                    pipeline_stages: int = 2) -> List[Dict]:
    """Regenerate one of Tables XIII/XIV.

    Returns one dict per block size with AsyncPipe/SyncShare rows and
    the mean improvement column ("Perf↑").
    """
    model = TiledMatmulModel(device)
    out = []
    for b in block_dims:
        row_async, row_sync = [], []
        for nb in blocks_per_sm:
            a = AsyncCopyConfig(b, nb, CopyVariant.ASYNC,
                                pipeline_stages=pipeline_stages)
            s = AsyncCopyConfig(b, nb, CopyVariant.SYNC)
            row_async.append(model.throughput_gflops(a))
            row_sync.append(model.throughput_gflops(s))
        gain = [a / s - 1.0 for a, s in zip(row_async, row_sync)]
        out.append({
            "block": f"{b}x{b}",
            "blocks_per_sm": list(blocks_per_sm),
            "AsyncPipe": row_async,
            "SyncShare": row_sync,
            "perf_gain": sum(gain) / len(gain),
        })
    return out
