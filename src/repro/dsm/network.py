"""The Hopper SM-to-SM interconnect model.

Two calibrated primitives and one derived law:

* **Latency**: a remote shared-memory access completes in
  ``dsm_remote_clk`` (180 cycles on the H800) — 32 % less than the L2
  round trip, the paper's headline DSM latency result.
* **Injection bandwidth**: each SM can push the pack-calibrated
  ``link_bytes_per_clk`` into the fabric.
* **Contention** (derived): the fabric inside a GPC is shared, so with
  ``CS`` blocks of a cluster all communicating, the per-SM achieved
  bandwidth degrades as ``link / (1 + α·(CS − 1))`` — which yields the
  paper's Fig 8 ordering (peak ~3.3 TB/s at CS = 2, ~2.7 TB/s at
  CS = 4, lower beyond).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch import DeviceSpec
from repro.isa.lowering import UnsupportedInstruction
from repro.obs import session as _obs

__all__ = ["SmToSmNetwork"]

# The two calibrated primitives — per-SM fabric injection width
# (bytes/clk) and the fabric-sharing contention coefficient α — come
# from the architecture pack (``device.pack.dsm``), so each
# cluster-capable generation carries its own fabric numbers.


@dataclass(frozen=True)
class SmToSmNetwork:
    """The cluster-scope interconnect of one device."""

    device: DeviceSpec

    def __post_init__(self) -> None:
        if not self.device.pack.has_distributed_shared_memory:
            raise UnsupportedInstruction(
                f"{self.device.name} has no SM-to-SM network "
                "(distributed shared memory requires Hopper)"
            )

    # -- latency ----------------------------------------------------------

    @property
    def latency_clk(self) -> float:
        return self.device.mem_latencies.dsm_remote_clk

    @property
    def latency_vs_l2(self) -> float:
        """Latency reduction relative to an L2 round trip (the paper
        reports −32 %)."""
        return 1.0 - self.latency_clk / self.device.mem_latencies.l2_hit_clk

    # -- bandwidth -----------------------------------------------------------

    @property
    def link_bytes_per_clk(self) -> float:
        return self.device.pack.dsm.link_bytes_per_clk

    def effective_bytes_per_clk_sm(self, cluster_size: int) -> float:
        """Per-SM achieved fabric bandwidth inside a CS-block cluster."""
        self._check_cs(cluster_size)
        if cluster_size < 2:
            return 0.0  # no remote traffic possible
        cal = self.device.pack.dsm
        eff = cal.link_bytes_per_clk / (
            1.0 + cal.contention_alpha * (cluster_size - 1)
        )
        sess = _obs.ACTIVE
        if sess is not None:
            obs = sess.counters
            obs.add("dsm.fabric.queries")
            # cycles one 128 B packet loses to fabric sharing vs an
            # uncontended link — the contention-stall distribution
            stall = 128.0 / eff - 128.0 / cal.link_bytes_per_clk
            obs.observe("dsm.stall.contention", stall)
        return eff

    def aggregate_bandwidth_tbps(self, cluster_size: int,
                                 *, active_sms: int | None = None) -> float:
        """Device-wide SM-to-SM throughput (TB/s) with every SM hosting
        one communicating block — the quantity Fig 8 plots."""
        sms = active_sms if active_sms is not None else self.device.num_sms
        per_sm = self.effective_bytes_per_clk_sm(cluster_size)
        return per_sm * sms * self.device.clocks.observed_hz / 1e12

    def latency_bound_bytes_per_clk(self, *, warps: int, ilp: int,
                                    bytes_per_instr: float = 128.0) -> float:
        """Little's-law injection limit: in-flight bytes over latency."""
        if warps < 1 or ilp < 1:
            raise ValueError("warps and ilp must be >= 1")
        return warps * ilp * bytes_per_instr / self.latency_clk

    def _check_cs(self, cs: int) -> None:
        if cs < 1:
            raise ValueError("cluster size must be >= 1")
        if cs > self.device.max_cluster_size:
            raise ValueError(
                f"cluster size {cs} exceeds {self.device.name}'s max "
                f"{self.device.max_cluster_size}"
            )
