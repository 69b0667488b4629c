"""The per-device memory hierarchy façade.

Routes loads through L1 → L2 → DRAM honouring PTX cache operators
(``.ca`` allocates in L1+L2, ``.cg`` bypasses L1) and accumulates the
latency of the level that actually serves each request.  This is the
machine the P-chase driver (:mod:`repro.memory.pchase`) runs on.

It is also the one place memory events become counters.  The caches
and the TLB keep no counter sink: a cache tallies its outcomes in its
:class:`~repro.memory.cache.CacheStats` alone.  Each load call reads
the active session's sink when it starts and, when it is on, records
``mem.*`` from the batch's tally and ``cache.<level>.*`` from what the
stats of the caches it touched gained.
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
from repro.obs.counters import CounterSet
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

#: the :class:`CacheStats` fields, in :func:`_fields` order, and each
#: level's ``cache.<level>.*`` counter names for them
_STAT_FIELDS = ("accesses", "hits", "sector_misses", "tag_misses",
                "evictions")
_L1_KEYS = tuple(f"cache.l1.{field}" for field in _STAT_FIELDS)
_L2_KEYS = tuple(f"cache.l2.{field}" for field in _STAT_FIELDS)

#: per cache a batch touches: its counter names, the cache and its
#: :func:`_fields` before the batch
StatsSnapshot = List[Tuple[Tuple[str, ...], SetAssociativeCache,
                           Tuple[int, ...]]]


def _fields(cache: SetAssociativeCache) -> Tuple[int, ...]:
    """The :class:`CacheStats` fields of ``cache``, each read by name:
    the chase engine takes this per lap, where a ``getattr`` loop over
    the field names costs measurably more."""
    s = cache.stats
    return s.accesses, s.hits, s.sector_misses, s.tag_misses, s.evictions


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
        obs = counters_or_null()
        l1 = self.l1_for_sm(sm_id) if cache_op.allocates_l1 else None
        snap = self._stats_snapshot(l1) if obs.enabled else None
        latency, code, tlb_hit = self._load1(addr, size, l1,
                                             cache_op.allocates_l2)
        if obs.enabled:
            self._publish(obs, {(latency, code, tlb_hit): 1}, size, snap)
        return AccessResult(latency, LEVEL_CODES[code], tlb_hit)

    def _load1(self, addr: int, size: int,
               l1: Optional[SetAssociativeCache],
               allocate_l2: bool) -> Tuple[float, int, bool]:
        """The scalar load core of :meth:`load` and
        :meth:`_load_small`: ``(latency, level code, TLB hit)``, the
        code indexing :data:`LEVEL_CODES`; ``l1`` is None when the
        cache operator bypasses L1.  Builds no result object and
        records no counter."""
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

    # -- counters -------------------------------------------------------------

    def _stats_snapshot(self, l1: Optional[SetAssociativeCache]) \
            -> StatsSnapshot:
        """The stats of the caches a batch through ``l1`` (None when
        it bypasses L1) can touch, taken before it."""
        snap = [(_L2_KEYS, self.l2, _fields(self.l2))]
        if l1 is not None:
            snap.append((_L1_KEYS, l1, _fields(l1)))
        return snap

    def _publish(self, obs: CounterSet, tally: Tally, size: int,
                 snap: StatsSnapshot, k: int = 1) -> None:
        """Record ``k`` times the counters of the loads since ``snap``:
        ``mem.*`` from their ``tally`` (per ``(latency, level code,
        TLB hit)``), ``cache.<level>.*`` from what each cache's stats
        gained; a field that gained nothing adds no key."""
        n = tlb_hits = 0
        for (latency, code, tlb_hit), c in tally.items():
            name = LEVEL_CODES[code].value
            c *= k
            n += c
            tlb_hits += c if tlb_hit else 0
            obs.add(f"mem.bytes.{name}", c * size)
            obs.observe(f"mem.latency.{name}", latency, c)
        obs.add("mem.loads", n)
        if tlb_hits:
            obs.add("mem.tlb.hits", tlb_hits)
        if n - tlb_hits:
            obs.add("mem.tlb.misses", n - tlb_hits)
        for keys, cache, before in snap:
            for key, now, was in zip(keys, _fields(cache), before):
                if now != was:
                    obs.add(key, (now - was) * k)

    def _scale_stats(self, tally: Tally, size: int, snap: StatsSnapshot,
                     k: int) -> None:
        """Account ``k`` more runs of the batch since ``snap`` without
        replaying them — how the chase engine extrapolates a steady
        state: each cache's stats advance by ``k`` times what they
        gained, and an active sink records ``k`` times the batch's
        counters."""
        obs = counters_or_null()
        if obs.enabled:
            self._publish(obs, tally, size, snap, k)
        for _, cache, before in snap:
            s = cache.stats
            s.accesses += (s.accesses - before[0]) * k
            s.hits += (s.hits - before[1]) * k
            s.sector_misses += (s.sector_misses - before[2]) * k
            s.tag_misses += (s.tag_misses - before[3]) * k
            s.evictions += (s.evictions - before[4]) * k

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
        obs = counters_or_null()
        l1 = self.l1_for_sm(sm_id) if cache_op.allocates_l1 else None
        snap = self._stats_snapshot(l1) if obs.enabled else None
        tlb_hit = self._tlb_access_many(a)
        n_tlb = int(np.count_nonzero(tlb_hit))
        if l1 is not None:
            l1_hit = l1.access_many(a, size)
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
        if obs.enabled:
            self._publish(obs, tally, size, snap)
        return BatchAccessResult(latency, levels, tlb_hit, tally)

    def _load_small(self, addrs: List[int], size: int, *, sm_id: int,
                    cache_op: CacheOp) -> BatchAccessResult:
        """Scalar-loop body of :meth:`load_many` for tiny batches: the
        :meth:`_load1` core per address, the counters once per
        batch."""
        if addrs and min(addrs) < 0:
            raise ValueError("negative address")
        obs = counters_or_null()
        l1 = self.l1_for_sm(sm_id) if cache_op.allocates_l1 else None
        snap = self._stats_snapshot(l1) if obs.enabled else None
        allocate_l2 = cache_op.allocates_l2
        core = self._load1
        out = [core(addr, size, l1, allocate_l2) for addr in addrs]
        tally: Tally = {}
        for key in out:
            tally[key] = tally.get(key, 0) + 1
        if obs.enabled and out:
            self._publish(obs, tally, size, snap)
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
