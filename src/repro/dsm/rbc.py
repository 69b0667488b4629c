"""Ring-based copy (RBC) DSM throughput benchmark (paper Fig 8).

One block per SM, blocks gathered into clusters; every thread of block
``R`` adds its register values into block ``(R+1) % CS``'s shared
memory, with ``ILP`` independent transfers in flight per thread.  The
achieved SM-to-SM throughput is::

    min( latency-bound injection (Little's law over warps × ILP),
         contended fabric bandwidth (network model) )

aggregated over all communicating SMs — reproducing Fig 8's three
findings: bigger blocks and more ILP help until the link saturates,
CS = 2 peaks (~3.3 TB/s on the H800), and throughput *declines* as the
cluster grows because the fabric is shared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List

from repro.arch import DeviceSpec
from repro.dsm.cluster import Cluster
from repro.dsm.network import SmToSmNetwork
from repro.obs import session as _obs

__all__ = ["RingCopyBenchmark", "RingCopyResult"]


@dataclass(frozen=True)
class RingCopyResult:
    """One Fig 8 data point."""

    cluster_size: int
    block_threads: int
    ilp: int
    per_sm_bytes_per_clk: float
    aggregate_tbps: float
    latency_bound: bool


class RingCopyBenchmark:
    """RBC driver bound to one (Hopper) device."""

    #: bytes one warp-wide remote store moves (32 lanes × 4 B)
    BYTES_PER_INSTR = 128.0

    def __init__(self, device: DeviceSpec) -> None:
        self.device = device
        self.network = SmToSmNetwork(device)

    # -- functional check ---------------------------------------------------

    def run_functional(self, cluster_size: int = 4,
                       threads: int = 64) -> bool:
        """Actually perform a small ring copy through real cluster
        storage and verify every value landed in the right block."""
        words = threads
        cluster = Cluster(self.device, cluster_size,
                          smem_bytes_per_block=4 * words)
        # each block writes rank-tagged values into its successor
        for rank in range(cluster_size):
            dst = cluster.map_shared_rank(rank, (rank + 1) % cluster_size)
            for t in range(words):
                dst.write_u32(4 * t, rank * 1000 + t)
        for rank in range(cluster_size):
            src = (rank - 1) % cluster_size
            own = cluster.map_shared_rank(rank, rank)
            for t in range(words):
                if own.read_u32(4 * t) != src * 1000 + t:
                    return False
        return True

    # -- timing -------------------------------------------------------------------

    def measure(self, *, cluster_size: int, block_threads: int,
                ilp: int) -> RingCopyResult:
        """Throughput of one (CS, block, ILP) configuration."""
        if block_threads < 32 or block_threads > 1024:
            raise ValueError("block_threads must be in [32, 1024]")
        warps = block_threads // 32
        lat_bw = self.network.latency_bound_bytes_per_clk(
            warps=warps, ilp=ilp, bytes_per_instr=self.BYTES_PER_INSTR
        )
        fabric_bw = self.network.effective_bytes_per_clk_sm(cluster_size)
        per_sm = min(lat_bw, fabric_bw)
        # one block per SM; every SM of every cluster communicates
        active = (self.device.num_sms // cluster_size) * cluster_size
        agg = per_sm * active * self.device.clocks.observed_hz / 1e12
        sess = _obs.ACTIVE
        if sess is not None:
            obs = sess.counters
            # per-link accounting of one modeled ring step: every
            # communicating SM drives its fabric link with one remote
            # hop of warps × ILP in-flight stores
            obs.add("dsm.rbc.configs")
            obs.add("dsm.link.active", active)
            obs.add("dsm.hops", active)
            obs.add("dsm.bytes.injected",
                    int(warps * ilp * self.BYTES_PER_INSTR) * active)
            obs.add("dsm.rbc.latency_bound" if lat_bw < fabric_bw
                    else "dsm.rbc.fabric_bound")
        return RingCopyResult(
            cluster_size=cluster_size,
            block_threads=block_threads,
            ilp=ilp,
            per_sm_bytes_per_clk=per_sm,
            aggregate_tbps=agg,
            latency_bound=lat_bw < fabric_bw,
        )

    def sweep(self, *, cluster_sizes: Iterable[int] = (2, 4, 8, 16),
              block_threads: Iterable[int] = (128, 256, 512, 1024),
              ilps: Iterable[int] = (1, 2, 4, 8)) -> List[RingCopyResult]:
        """The full Fig 8 grid."""
        out = []
        for cs in cluster_sizes:
            for bt in block_threads:
                for ilp in ilps:
                    out.append(self.measure(
                        cluster_size=cs, block_threads=bt, ilp=ilp
                    ))
        return out

    def peak_tbps(self) -> float:
        """Best configuration's aggregate throughput (Fig 8's ~3.3)."""
        return max(r.aggregate_tbps for r in self.sweep())
