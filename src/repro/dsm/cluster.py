"""Functional thread-block clusters.

A :class:`Cluster` owns ``cluster_size`` blocks, each with a real
byte-addressable :class:`~repro.memory.shared.SharedMemory`.  Blocks
obtain handles to each other's allocations through
:meth:`Cluster.map_shared_rank` — the CUDA
``cluster.map_shared_rank(smem, rank)`` / PTX ``mapa`` primitive — and
the returned :class:`RemoteSharedHandle` performs *actual* reads,
writes and atomics against the peer block's storage while accounting
local-vs-remote access latency.

The DSM histogram application (:mod:`repro.dsm.histogram`) runs
entirely on this machinery, so its counts are real and its latency
totals come from the same network model the RBC benchmark uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.arch import DeviceSpec
from repro.dsm.network import SmToSmNetwork
from repro.memory.shared import SharedMemory
from repro.obs import session as _obs

__all__ = ["Cluster", "RemoteSharedHandle"]


@dataclass
class RemoteSharedHandle:
    """A mapped view of (possibly another) block's shared memory."""

    cluster: "Cluster"
    owner_rank: int
    accessor_rank: int

    @property
    def remote(self) -> bool:
        return self.owner_rank != self.accessor_rank

    @property
    def _smem(self) -> SharedMemory:
        return self.cluster.block_smem(self.owner_rank)

    def _account(self, nbytes: int) -> float:
        if self.remote:
            lat = self.cluster.network.latency_clk
        else:
            lat = self.cluster.device.mem_latencies.shared_clk
        self.cluster.record_access(self.accessor_rank, remote=self.remote,
                                   cycles=lat, nbytes=nbytes)
        return lat

    # -- data operations ----------------------------------------------------

    def read_u32(self, offset: int) -> int:
        self._account(4)
        return self._smem.read_u32(offset)

    def write_u32(self, offset: int, value: int) -> None:
        self._account(4)
        self._smem.write_u32(offset, value)

    def atomic_add_u32(self, offset: int, value: int = 1) -> int:
        self._account(4)
        return self._smem.atomic_add_u32(offset, value)

    def read(self, offset: int, size: int) -> np.ndarray:
        self._account(size)
        return self._smem.read(offset, size)

    def write(self, offset: int, payload) -> None:
        data = np.asarray(payload)
        self._account(int(data.nbytes) if data.nbytes else 4)
        self._smem.write(offset, payload)


@dataclass
class Cluster:
    """One thread-block cluster with per-block shared memory."""

    device: DeviceSpec
    cluster_size: int
    smem_bytes_per_block: int
    network: SmToSmNetwork = field(init=False)
    _blocks: List[SharedMemory] = field(init=False)
    #: accounting: (local_accesses, remote_accesses, total_cycles)
    local_accesses: int = field(default=0, init=False)
    remote_accesses: int = field(default=0, init=False)
    access_cycles: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        self.network = SmToSmNetwork(self.device)  # validates arch
        if not 1 <= self.cluster_size <= self.device.max_cluster_size:
            raise ValueError(
                f"cluster size must be in [1, "
                f"{self.device.max_cluster_size}]"
            )
        if self.smem_bytes_per_block <= 0:
            raise ValueError("smem_bytes_per_block must be positive")
        budget = self.device.cache.shared_max_kib * 1024
        if self.smem_bytes_per_block > budget:
            raise ValueError(
                f"per-block shared allocation {self.smem_bytes_per_block} "
                f"exceeds the device budget {budget}"
            )
        self._blocks = [
            SharedMemory(self.smem_bytes_per_block)
            for _ in range(self.cluster_size)
        ]

    def block_smem(self, rank: int) -> SharedMemory:
        if not 0 <= rank < self.cluster_size:
            raise IndexError(
                f"block rank {rank} out of range [0, {self.cluster_size})"
            )
        return self._blocks[rank]

    def map_shared_rank(self, accessor_rank: int,
                        target_rank: int) -> RemoteSharedHandle:
        """``cluster.map_shared_rank`` — a handle to ``target_rank``'s
        shared memory usable by ``accessor_rank``."""
        if not 0 <= accessor_rank < self.cluster_size:
            raise IndexError(f"bad accessor rank {accessor_rank}")
        if not 0 <= target_rank < self.cluster_size:
            raise IndexError(f"bad target rank {target_rank}")
        return RemoteSharedHandle(self, target_rank, accessor_rank)

    def record_access(self, rank: int, *, remote: bool,
                      cycles: float, nbytes: int = 4) -> None:
        if remote:
            self.remote_accesses += 1
        else:
            self.local_accesses += 1
        self.access_cycles += cycles
        sess = _obs.ACTIVE
        if sess is not None:
            obs = sess.counters
            # a remote access is one hop across the GPC fabric; a
            # local one never leaves the SM
            kind = "remote" if remote else "local"
            if remote:
                obs.add("dsm.hops")
            else:
                obs.add("dsm.access.local")
            obs.add(f"dsm.bytes.{kind}", nbytes)
            obs.observe(f"dsm.latency.{kind}", cycles)

    @property
    def total_accesses(self) -> int:
        return self.local_accesses + self.remote_accesses

    def reset_stats(self) -> None:
        self.local_accesses = 0
        self.remote_accesses = 0
        self.access_cycles = 0.0
