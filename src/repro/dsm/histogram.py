"""The DSM histogram application (paper §III-D3(3), Fig 9).

The redesigned CUDA histogram: bins are *partitioned across the blocks
of a cluster* — each thread loads an element, computes which block of
its cluster owns the target bin, maps that block's shared memory with
``mapa``, and atomically increments the bin.  Distributing bins

* divides the per-block shared-memory footprint by CS (each warp keeps
  a private sub-histogram to dampen conflicts, so footprint is
  ``Nbins × 4 B × warps / CS``), restoring SM occupancy when big
  ``Nbins`` would otherwise throttle resident blocks — the Fig 9 drop
  at CS = 1 from 1024 → 2048 bins, undone by CS ≥ 2;
* sends ``(CS−1)/CS`` of the increments across the SM-to-SM network,
  adding latency and contending for fabric bandwidth — why ever-larger
  clusters lose.

The model takes the min of the latency-bound rate (resident warps ×
lanes over per-element latency), the DRAM element-streaming cap and
the network cap on the remote-increment share; the functional path
really counts into cluster shared memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch import DeviceSpec
from repro.dsm.cluster import Cluster
from repro.dsm.network import SmToSmNetwork
from repro.obs import session as _obs
from repro.sm.occupancy import BlockConfig, occupancy

__all__ = ["HistogramConfig", "HistogramResult", "DsmHistogram"]

#: limiter strings → counter slugs (``dsm.hist.limited_by.<slug>``)
_LIMITER_SLUGS = {
    "latency": "latency",
    "DRAM": "dram",
    "SM-to-SM network": "network",
    "shared memory": "shared_memory",
}

#: extra per-element issue overhead growing with cluster bookkeeping
_CLUSTER_OVERHEAD_CLK_PER_CS = 0.02
#: bytes loaded from global memory per histogram element
_ELEMENT_BYTES = 4.0


@dataclass(frozen=True)
class HistogramConfig:
    """One Fig 9 configuration."""

    nbins: int
    cluster_size: int
    block_threads: int = 128

    def __post_init__(self) -> None:
        if self.nbins < 2:
            raise ValueError("need at least 2 bins")
        if self.cluster_size < 1:
            raise ValueError("cluster size must be >= 1")
        if not 32 <= self.block_threads <= 1024:
            raise ValueError("block must have 32..1024 threads")

    @property
    def warps(self) -> int:
        return self.block_threads // 32

    @property
    def bins_per_block(self) -> int:
        return -(-self.nbins // self.cluster_size)  # ceil division

    @property
    def smem_bytes_per_block(self) -> int:
        """Per-warp sub-histograms over this block's bin slice."""
        return self.bins_per_block * 4 * self.warps

    @property
    def remote_fraction(self) -> float:
        """Share of increments landing in another block's bins
        (uniform data)."""
        return (self.cluster_size - 1) / self.cluster_size


@dataclass(frozen=True)
class HistogramResult:
    """Throughput estimate + limiting factor of one configuration."""

    config: HistogramConfig
    resident_blocks: int
    elements_per_clk_sm: float
    elements_per_second: float
    limiter: str


class DsmHistogram:
    """Functional + timing model of the cluster histogram."""

    def __init__(self, device: DeviceSpec) -> None:
        self.device = device
        self.network = SmToSmNetwork(device)

    # -- functional path -----------------------------------------------------

    def compute(self, data: np.ndarray, cfg: HistogramConfig) -> np.ndarray:
        """Histogram ``data`` (integer bin indices) through a real
        cluster; returns the merged counts and exercises remote
        atomics for every cross-block bin."""
        data = np.asarray(data)
        if data.size and (data.min() < 0 or data.max() >= cfg.nbins):
            raise ValueError("data values must be valid bin indices")
        cluster = Cluster(
            self.device, max(cfg.cluster_size, 1),
            smem_bytes_per_block=max(cfg.bins_per_block * 4, 4),
        )
        bpb = cfg.bins_per_block
        # round-robin threads over blocks, as the kernel's grid would
        for i, v in enumerate(data.ravel()):
            accessor = i % cfg.cluster_size
            owner, local_bin = divmod(int(v), bpb)
            handle = cluster.map_shared_rank(accessor, owner)
            handle.atomic_add_u32(4 * local_bin)
        counts = np.zeros(cfg.nbins, dtype=np.int64)
        for rank in range(cfg.cluster_size):
            smem = cluster.block_smem(rank)
            lo = rank * bpb
            hi = min(lo + bpb, cfg.nbins)
            if lo >= cfg.nbins:
                break
            raw = smem.read(0, 4 * (hi - lo)).view(np.uint32)
            counts[lo:hi] = raw
        return counts

    # -- timing -------------------------------------------------------------------

    def resident_blocks(self, cfg: HistogramConfig) -> int:
        occ = occupancy(
            self.device,
            BlockConfig(threads=cfg.block_threads, regs_per_thread=32,
                        smem_bytes=cfg.smem_bytes_per_block),
        )
        return occ.blocks_per_sm

    def per_element_latency_clk(self, cfg: HistogramConfig) -> float:
        lat = self.device.mem_latencies
        local = lat.shared_clk
        remote = lat.dsm_remote_clk
        atomic = ((1.0 - cfg.remote_fraction) * local
                  + cfg.remote_fraction * remote)
        overhead = _CLUSTER_OVERHEAD_CLK_PER_CS * cfg.cluster_size
        return lat.global_clk + atomic + overhead

    def measure(self, cfg: HistogramConfig) -> HistogramResult:
        sess = _obs.ACTIVE
        nb = self.resident_blocks(cfg)
        if nb == 0:
            if sess is not None:
                sess.counters.add("dsm.hist.configs")
                sess.counters.add("dsm.hist.limited_by.shared_memory")
            return HistogramResult(cfg, 0, 0.0, 0.0, "shared memory")
        candidates = {}
        inflight = nb * cfg.block_threads
        candidates["latency"] = (
            inflight / self.per_element_latency_clk(cfg)
        )
        dram_sm_clk = (
            self.device.dram.effective_bandwidth_gbps(1.0) * 1e9
            / (self.device.num_sms * self.device.clocks.observed_hz)
        )
        candidates["DRAM"] = dram_sm_clk / _ELEMENT_BYTES
        if cfg.remote_fraction > 0:
            net = self.network.effective_bytes_per_clk_sm(cfg.cluster_size)
            candidates["SM-to-SM network"] = (
                net / (4.0 * cfg.remote_fraction)
            )
        limiter = min(candidates, key=candidates.get)
        e_clk = candidates[limiter]
        if sess is not None:
            obs = sess.counters
            obs.add("dsm.hist.configs")
            obs.add(f"dsm.hist.limited_by.{_LIMITER_SLUGS[limiter]}")
            obs.observe("dsm.latency.element",
                        self.per_element_latency_clk(cfg))
        return HistogramResult(
            config=cfg,
            resident_blocks=nb,
            elements_per_clk_sm=e_clk,
            elements_per_second=(
                e_clk * self.device.num_sms
                * self.device.clocks.observed_hz
            ),
            limiter=limiter,
        )

    def sweep(self, *, nbins=(256, 512, 1024, 2048, 4096),
              cluster_sizes=(1, 2, 4, 8),
              block_threads=(128, 512)):
        """The Fig 9 grid."""
        return [
            self.measure(HistogramConfig(n, cs, bt))
            for bt in block_threads
            for cs in cluster_sizes
            for n in nbins
        ]
