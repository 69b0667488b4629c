"""The per-device memory hierarchy façade.

Routes loads through L1 → L2 → DRAM honouring PTX cache operators
(``.ca`` allocates in L1+L2, ``.cg`` bypasses L1) and accumulates the
latency of the level that actually serves each request.  This is the
machine the P-chase driver (:mod:`repro.memory.pchase`) runs on.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.arch import DeviceSpec
from repro.isa.memory_ops import CacheOp
from repro.memory.cache import SetAssociativeCache
from repro.memory.dram import DramChannel
from repro.memory.tlb import Tlb
from repro.obs.session import counters_or_null

__all__ = ["MemLevel", "AccessResult", "BatchAccessResult",
           "LEVEL_CODES", "MemoryHierarchy"]


class MemLevel(enum.Enum):
    """The level that served an access."""

    SHARED = "shared"
    L1 = "l1"
    L2 = "l2"
    GLOBAL = "global"


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one load through the hierarchy."""

    latency_clk: float
    level: MemLevel
    tlb_hit: bool


#: order of the uint8 codes in :attr:`BatchAccessResult.levels`
LEVEL_CODES = (MemLevel.L1, MemLevel.L2, MemLevel.GLOBAL)

#: ``{(latency, level code, TLB hit): loads}`` — a load's latency is a
#: function of its serving level and TLB outcome, so a batch's loads
#: are counted per such triple (at most six), never per access
Tally = Dict[Tuple[float, int, bool], int]


def split_tally(tally: Tally) \
        -> Tuple[Dict[float, int], Dict[MemLevel, int], int]:
    """``(latency_counts, level_counts, tlb_hits)`` of a tally:
    latencies ascending, levels with no load left out."""
    counts: Dict[float, int] = {}
    levels: Dict[MemLevel, int] = {}
    tlb_hits = 0
    for (value, code, hit), c in sorted(tally.items()):
        value = float(value)
        counts[value] = counts.get(value, 0) + c
        level = LEVEL_CODES[code]
        levels[level] = levels.get(level, 0) + c
        tlb_hits += c if hit else 0
    return counts, levels, tlb_hits


@dataclass(frozen=True)
class BatchAccessResult:
    """Outcome of a batched :meth:`MemoryHierarchy.load_many`."""

    latency_clk: np.ndarray       # per-access total latency
    #: per-access serving level as uint8 codes (index into
    #: :data:`LEVEL_CODES`) — cheap to compare/hash batch-to-batch
    levels: np.ndarray
    #: per-access TLB hit booleans
    tlb_hit: np.ndarray
    #: the loads per (latency, level code, TLB hit)
    tally: Tally

    @property
    def accesses(self) -> int:
        return len(self.latency_clk)

    @property
    def mean_latency_clk(self) -> float:
        return float(self.latency_clk.mean()) if self.accesses else 0.0

    @property
    def latency_counts(self) -> Dict[float, int]:
        """``{latency: loads}``, latencies ascending."""
        return split_tally(self.tally)[0]

    @property
    def level_counts(self) -> Dict[MemLevel, int]:
        """Loads served per level, every level listed."""
        levels = split_tally(self.tally)[1]
        return {lvl: levels.get(lvl, 0) for lvl in LEVEL_CODES}

    @property
    def tlb_hits(self) -> int:
        return split_tally(self.tally)[2]


class MemoryHierarchy:
    """L1s (one per SM) + unified L2 + TLB + DRAM for one device."""

    def __init__(self, device: DeviceSpec) -> None:
        self.device = device
        geo = device.cache
        self._l1: Dict[int, SetAssociativeCache] = {}
        self.l2 = SetAssociativeCache(
            geo.l2_size_bytes,
            line_bytes=geo.line_bytes,
            sector_bytes=geo.sector_bytes,
            ways=geo.l2_associativity,
            name=f"{device.name}-L2",
            level="l2",
        )
        self.tlb = Tlb()
        self.dram = DramChannel.for_device(device)
        lat = device.mem_latencies
        #: total latency with a TLB hit, per :data:`LEVEL_CODES` index
        self._level_clk = (lat.l1_hit_clk, lat.l2_hit_clk,
                           lat.l2_hit_clk + lat.dram_clk)
        self._level_clk_array = np.array(self._level_clk,
                                         dtype=np.float64)
        self._tlb_miss_clk = lat.tlb_miss_clk
        # observability sink captured at construction: the null object
        # when no session is active, so the load paths pay one flag
        # check with observability off
        self._obs = counters_or_null()

    # -- caches -----------------------------------------------------------

    def l1_for_sm(self, sm_id: int) -> SetAssociativeCache:
        if not 0 <= sm_id < self.device.num_sms:
            raise ValueError(
                f"sm_id {sm_id} out of range for "
                f"{self.device.name} ({self.device.num_sms} SMs)"
            )
        if sm_id not in self._l1:
            geo = self.device.cache
            self._l1[sm_id] = SetAssociativeCache(
                geo.l1_size_bytes,
                line_bytes=geo.line_bytes,
                sector_bytes=geo.sector_bytes,
                ways=geo.l1_associativity,
                name=f"{self.device.name}-L1[{sm_id}]",
                level="l1",
            )
        return self._l1[sm_id]

    def flush(self) -> None:
        for c in self._l1.values():
            c.flush()
        self.l2.flush()
        self.tlb.flush()

    # -- the load path ------------------------------------------------------

    def load(
        self,
        addr: int,
        size: int = 4,
        *,
        sm_id: int = 0,
        cache_op: CacheOp = CacheOp.CACHE_ALL,
    ) -> AccessResult:
        """Issue one load and return where it hit and what it cost.

        Latencies are *total* from the issuing SM (the way a P-chase
        measures them), not per-hop increments: an L2 hit costs
        ``l2_hit_clk`` regardless of having missed L1 on the way.
        """
        if addr < 0:
            raise ValueError("negative address")
        l1 = self.l1_for_sm(sm_id) if cache_op.allocates_l1 else None
        latency, code, tlb_hit = self._load1(addr, size, l1,
                                             cache_op.allocates_l2)
        level = LEVEL_CODES[code]
        if self._obs.enabled:
            self._count({(latency, code, tlb_hit): 1}, size)
        return AccessResult(latency, level, tlb_hit)

    def _load1(self, addr: int, size: int,
               l1: Optional[SetAssociativeCache],
               allocate_l2: bool) -> Tuple[float, int, bool]:
        """The scalar load core of :meth:`load` and
        :meth:`_load_small`: ``(latency, level code, TLB hit)``, the
        code indexing :data:`LEVEL_CODES`; ``l1`` is None when the
        cache operator bypasses L1.  Builds no result object and
        records no ``mem.*`` counter."""
        tlb_hit = self.tlb.access(addr)
        if l1 is not None and l1.access(addr, size):
            code = 0
        elif self.l2.access(addr, size, allocate=allocate_l2):
            # (an L1 miss is filled through L2 on the way)
            code = 1
        else:
            code = 2
        return (self._level_clk[code]
                + (0.0 if tlb_hit else self._tlb_miss_clk),
                code, tlb_hit)

    def _count(self, tally: Tally, size: int) -> None:
        """Record the ``mem.*`` counters of the loads ``tally`` counts
        per ``(latency, level code, TLB hit)`` — the increments one
        :meth:`load` per access makes, summed."""
        obs = self._obs
        n = tlb_hits = 0
        for (latency, code, tlb_hit), c in tally.items():
            name = LEVEL_CODES[code].value
            n += c
            tlb_hits += c if tlb_hit else 0
            obs.add(f"mem.bytes.{name}", c * size)
            obs.observe(f"mem.latency.{name}", latency, c)
        obs.add("mem.loads", n)
        if tlb_hits:
            obs.add("mem.tlb.hits", tlb_hits)
        if n - tlb_hits:
            obs.add("mem.tlb.misses", n - tlb_hits)

    def load_many(
        self,
        addrs: Union[Sequence[int], np.ndarray],
        size: int = 4,
        *,
        sm_id: int = 0,
        cache_op: CacheOp = CacheOp.CACHE_ALL,
    ) -> BatchAccessResult:
        """Batched :meth:`load` — semantically identical to issuing the
        loads one by one in order, but resolved through the caches'
        vectorized ``access_many`` path.  Used by the P-chase
        initialisation passes, which stream megabytes of addresses
        whose outcomes are independent of one another.
        """
        a = np.ascontiguousarray(addrs, dtype=np.int64)
        if a.ndim != 1:
            raise ValueError("addrs must be one-dimensional")
        n = len(a)
        if n < 32:
            # tiny batches (conflict-ladder laps): a loop of scalar
            # loads costs less than the vectorized set-up and is the
            # batch semantics by definition
            return self._load_small(a.tolist(), size, sm_id=sm_id,
                                    cache_op=cache_op)
        if int(a.min()) < 0:
            raise ValueError("negative address")
        tlb_hit = self._tlb_access_many(a)
        n_tlb = int(np.count_nonzero(tlb_hit))
        if cache_op.allocates_l1:
            l1_hit = self.l1_for_sm(sm_id).access_many(a, size)
            n_l1 = int(np.count_nonzero(l1_hit))
        else:
            l1_hit, n_l1 = np.zeros(n, dtype=bool), 0
        if n_l1 == n:
            l2_hit, n_l2 = np.zeros(n, dtype=bool), 0
        else:
            allocate = cache_op.allocates_l2
            if n_l1:
                l2_hit = np.zeros(n, dtype=bool)
                miss = np.flatnonzero(~l1_hit)
                l2_hit[miss] = self.l2.access_many(a[miss], size,
                                                   allocate=allocate)
            else:
                l2_hit = self.l2.access_many(a, size, allocate=allocate)
            n_l2 = int(np.count_nonzero(l2_hit))
        # level codes: L1 0, L2 1, global 2 (l2_hit is False on L1 hits)
        levels = (~l1_hit).view(np.uint8) * np.uint8(2) \
            - l2_hit.view(np.uint8)
        latency = self._level_clk_array[levels]
        if n_tlb < n:
            latency += np.where(tlb_hit, 0.0, self._tlb_miss_clk)
        # the loads of one (level, TLB outcome) share a latency, so the
        # tally needs the TLB hits per level, and only on a mixed batch
        by_level = (n_l1, n_l2, n - n_l1 - n_l2)
        if n_tlb in (0, n):
            hits = by_level if n_tlb else (0, 0, 0)
        else:
            hits = (int(np.count_nonzero(l1_hit & tlb_hit)),
                    int(np.count_nonzero(l2_hit & tlb_hit)))
            hits += (n_tlb - hits[0] - hits[1],)
        tally: Tally = {}
        for code, (c, h) in enumerate(zip(by_level, hits)):
            if h:
                tally[self._level_clk[code], code, True] = h
            if c - h:
                tally[self._level_clk[code] + self._tlb_miss_clk,
                      code, False] = c - h
        if self._obs.enabled:
            self._count(tally, size)
        return BatchAccessResult(latency, levels, tlb_hit, tally)

    def _load_small(self, addrs: List[int], size: int, *, sm_id: int,
                    cache_op: CacheOp) -> BatchAccessResult:
        """Scalar-loop body of :meth:`load_many` for tiny batches: the
        :meth:`_load1` core per address, the counters once per
        batch."""
        if addrs and min(addrs) < 0:
            raise ValueError("negative address")
        l1 = self.l1_for_sm(sm_id) if cache_op.allocates_l1 else None
        allocate_l2 = cache_op.allocates_l2
        core = self._load1
        out = [core(addr, size, l1, allocate_l2) for addr in addrs]
        tally: Tally = {}
        for key in out:
            tally[key] = tally.get(key, 0) + 1
        if self._obs.enabled and out:
            self._count(tally, size)
        latency, levels, tlb_hit = zip(*out) if out else ((), (), ())
        return BatchAccessResult(np.array(latency, dtype=np.float64),
                                 np.array(levels, dtype=np.uint8),
                                 np.array(tlb_hit, dtype=bool), tally)

    def _tlb_access_many(self, addrs: np.ndarray) -> np.ndarray:
        """Per-access TLB hit booleans — see :meth:`Tlb.access_many`."""
        return self.tlb.access_many(addrs)

    # -- warm-up helpers used by the microbenchmarks ---------------------------

    def warm_l1(self, sm_id: int, base: int, size: int) -> None:
        """The ``ld.global.ca`` warm-up pass (fills L1 and L2)."""
        self.l1_for_sm(sm_id).warm(base, size)
        self.l2.warm(base, size)
        self.tlb.warm(base, size)

    def warm_l2(self, base: int, size: int) -> None:
        """The ``ld.global.cg`` warm-up pass (fills L2 only)."""
        self.l2.warm(base, size)
        self.tlb.warm(base, size)

    def warm_tlb(self, base: int, size: int) -> None:
        self.tlb.warm(base, size)
