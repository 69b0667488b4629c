"""The P-chase latency microbenchmark (paper §III-A, Table IV).

Follows Saavedra-Barrera-style pointer chasing exactly as the paper
describes it per level:

* **L1** — warm the array into L1 with ``ld.global.ca``-equivalent
  fills, then chase with one thread; every access hits L1.
* **Shared** — chase a pointer chain stored in real
  :class:`~repro.memory.shared.SharedMemory`.
* **L2** — warm with ``.cg`` (bypassing L1) and chase with ``.cg``.
* **Global** — allocate a buffer *larger than L2* so capacity misses
  persist, initialise it (which warms the TLB, as the paper notes),
  then chase; every access goes to DRAM.

The chase itself is serial and data-dependent, so the average per-hop
cost equals the service latency of the level being probed — the same
argument the original microbenchmark makes on silicon.

The driver runs on the steady-state
:class:`~repro.memory.chase.ChaseEngine` by default: the chain is
periodic, so whole periods are simulated through the batched hierarchy
paths and repeated periods are accounted analytically once the engine
detects a fixed point — exact on summed cycles and on every counter.
``engine="scalar"`` selects the original one-``load()``-at-a-time
loops (``_run_scalar`` / ``shared_latency_scalar``), preserved as the
executable specification the equivalence suite pins the engine
against.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import gcd
from typing import Dict, Optional

import numpy as np

from repro.arch import DeviceSpec
from repro.isa.memory_ops import CacheOp
from repro.memory.chase import (ChaseEngine, chase_total_clk,
                                latency_counts)
from repro.memory.hierarchy import MemLevel, MemoryHierarchy
from repro.memory.shared import SharedMemory

__all__ = ["PChase", "PChaseResult", "measure_latencies"]

_ENGINES = ("vectorized", "scalar")


@dataclass(frozen=True)
class PChaseResult:
    """Average latency of one P-chase run."""

    level: str
    mean_latency_clk: float
    accesses: int
    hits_at_level: float     # fraction served at the intended level

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{self.level}: {self.mean_latency_clk:.1f} clk "
            f"({self.accesses} accesses, "
            f"{100 * self.hits_at_level:.1f}% at level)"
        )


def _coprime_stride(n_entries: int, stride_entries: int) -> int:
    """The stride actually used for a modular walk over ``n_entries``.

    A stride sharing a factor with ``n_entries`` would visit only
    ``n / gcd`` entries; the old code silently fell back to a
    sequential walk, losing the requested stride entirely.  Instead,
    adjust to the *nearest* coprime stride (preferring the smaller on
    a tie) so the walk keeps its intended character and still visits
    every entry.
    """
    if stride_entries < 1:
        raise ValueError("stride_entries must be >= 1")
    for d in range(stride_entries + n_entries):
        for cand in (stride_entries - d, stride_entries + d):
            if cand >= 1 and gcd(cand, n_entries) == 1:
                return cand
    raise AssertionError("unreachable: stride 1 is always coprime")


def _chain_order(n_entries: int, stride_entries: int = 1,
                 seed: Optional[int] = None) -> np.ndarray:
    """The visit order of the chain built by :func:`_chain`, starting
    from entry 0 — i.e. ``order[i]`` is the entry the ``i``-th hop
    lands on.  This is the periodic address stream (in entry units)
    the :class:`ChaseEngine` replays."""
    if n_entries <= 1:
        raise ValueError("need at least 2 chain entries")
    if seed is None:
        stride = _coprime_stride(n_entries, stride_entries)
        return (np.arange(n_entries) * stride) % n_entries
    order = np.random.default_rng(seed).permutation(n_entries)
    # the chain cycle is the same; hop 0 starts wherever entry 0 sits
    return np.roll(order, -int(np.flatnonzero(order == 0)[0]))


def _chain(n_entries: int, stride_entries: int = 1,
           seed: Optional[int] = None) -> np.ndarray:
    """Build a pointer chain visiting all entries.

    With ``stride_entries == 1`` the chain walks sequentially with
    wraparound; larger strides walk modularly (adjusted to the
    nearest coprime stride when ``stride_entries`` shares a factor
    with ``n_entries`` — see :func:`_coprime_stride`).  A random
    permutation (``seed`` given) defeats any streaming prefetch
    assumption.
    """
    order = _chain_order(n_entries, stride_entries, seed)
    nxt = np.empty(n_entries, dtype=np.int64)
    nxt[order] = np.roll(order, -1)
    return nxt


class PChase:
    """P-chase driver bound to one device's memory hierarchy.

    ``seed`` randomises the chain order (``None`` keeps the
    sequential-with-wraparound walk); the measured per-level
    latencies are order-independent, so Table IV is unchanged either
    way.  ``engine`` selects the steady-state engine (default) or the
    scalar reference loops.
    """

    #: element stride in bytes — one pointer per 128 B line, matching the
    #: paper's fixed-stride initialisation.
    STRIDE_BYTES = 128

    def __init__(self, device: DeviceSpec, *,
                 seed: Optional[int] = None,
                 engine: str = "vectorized") -> None:
        if engine not in _ENGINES:
            raise ValueError(f"unknown engine {engine!r}; "
                             f"expected one of {_ENGINES}")
        self.device = device
        self.seed = seed
        self.engine = engine
        self.hierarchy = MemoryHierarchy(device)

    # -- per-level measurements -------------------------------------------------

    def l1_latency(self, *, array_kib: int = 32,
                   iters: int = 2048) -> PChaseResult:
        """Chase an L1-resident array warmed with ``.ca`` loads."""
        self.hierarchy.flush()
        size = array_kib * 1024
        n = size // self.STRIDE_BYTES
        self.hierarchy.warm_l1(0, 0, size)
        return self._run(n, iters, CacheOp.CACHE_ALL, MemLevel.L1, "L1 Cache")

    def l2_latency(self, *, array_kib: int = 4096,
                   iters: int = 4096) -> PChaseResult:
        """Chase an L2-resident array warmed with ``.cg`` loads."""
        self.hierarchy.flush()
        size = array_kib * 1024
        if size > self.device.cache.l2_size_bytes:
            raise ValueError("L2 probe array must fit in L2")
        n = size // self.STRIDE_BYTES
        self.hierarchy.warm_l2(0, size)
        return self._run(n, iters, CacheOp.CACHE_GLOBAL, MemLevel.L2,
                         "L2 Cache")

    def shared_latency(self, *, array_kib: int = 16,
                       iters: int = 2048) -> PChaseResult:
        """Chase a chain stored in real shared memory (one thread)."""
        if self.engine == "scalar":
            return self.shared_latency_scalar(array_kib=array_kib,
                                              iters=iters)
        size = array_kib * 1024
        n = size // 8
        smem = SharedMemory(size)
        chain = _chain(n, seed=self.seed)
        smem.write(0, chain.astype(np.int64))
        base = self.device.mem_latencies.shared_clk
        # One lane can never conflict, so every hop costs the same as
        # the first regardless of where the stored chain points; one
        # bulk read-back replays the chain, and the access counter
        # advances by the same `iters` reads the scalar loop issues.
        stored = smem.read(0, n * 8).view(np.int64)
        per_hop = smem.access_cycles([int(stored[0]) * 8], base)
        smem.accesses += iters - 1
        total = chase_total_clk({per_hop: iters})
        return PChaseResult("Shared", total / iters, iters, 1.0)

    def shared_latency_scalar(self, *, array_kib: int = 16,
                              iters: int = 2048) -> PChaseResult:
        """Scalar reference for :meth:`shared_latency` — the original
        hop-by-hop loop through real storage (the executable spec)."""
        size = array_kib * 1024
        n = size // 8
        smem = SharedMemory(size)
        chain = _chain(n, seed=self.seed)
        smem.write(0, chain.astype(np.int64))
        base = self.device.mem_latencies.shared_clk
        idx = 0
        lats = np.empty(iters)
        for i in range(iters):
            # one thread, one 8-byte word: never a bank conflict
            lats[i] = smem.access_cycles([idx * 8], base)
            idx = int(np.frombuffer(
                smem.read(idx * 8, 8).tobytes(), dtype=np.int64
            )[0])
        total = chase_total_clk(latency_counts(lats))
        return PChaseResult("Shared", total / iters, iters, 1.0)

    def global_latency(self, *, overfill: float = 1.25,
                       iters: int = 8192) -> PChaseResult:
        """Chase a buffer larger than L2; TLB warmed at initialisation.

        A full initialisation pass streams the buffer once (filling the
        TLB and transiently the caches); because the buffer exceeds L2
        capacity, LRU guarantees every subsequent chase access misses
        both caches — the paper's "avoid L2 prefetching" condition.
        """
        self.hierarchy.flush()
        size = int(self.device.cache.l2_size_bytes * overfill)
        n = size // self.STRIDE_BYTES
        # Initialisation pass: streams the array once (warms TLB; the
        # cache contents it leaves behind are self-evicting).
        self.hierarchy.warm_tlb(0, size)
        self.hierarchy.load_many(
            np.arange(n, dtype=np.int64) * self.STRIDE_BYTES, 32,
            cache_op=CacheOp.CACHE_ALL,
        )
        return self._run(n, iters, CacheOp.CACHE_ALL, MemLevel.GLOBAL,
                         "Global")

    def global_latency_cold_tlb(self, *, iters: int = 2048) -> PChaseResult:
        """Variant without the init pass — shows the TLB-miss penalty
        the paper's warm-up exists to avoid."""
        self.hierarchy.flush()
        size = int(self.device.cache.l2_size_bytes * 1.25)
        n = size // self.STRIDE_BYTES
        return self._run(n, iters, CacheOp.CACHE_ALL, MemLevel.GLOBAL,
                         "Global (cold TLB)", stride_pages=True)

    # -- internals ------------------------------------------------------------------

    def _run(self, n_entries: int, iters: int, op: CacheOp,
             expect: MemLevel, label: str,
             stride_pages: bool = False) -> PChaseResult:
        if self.engine == "scalar":
            return self._run_scalar(n_entries, iters, op, expect,
                                    label, stride_pages)
        order = _chain_order(n_entries, seed=self.seed)
        stride = (self.hierarchy.tlb.page_bytes if stride_pages
                  else self.STRIDE_BYTES)
        stats = ChaseEngine(self.hierarchy, size=32,
                            cache_op=op).run(order * stride, iters)
        return PChaseResult(label, stats.mean_latency_clk, iters,
                            stats.at_level(expect))

    def _run_scalar(self, n_entries: int, iters: int, op: CacheOp,
                    expect: MemLevel, label: str,
                    stride_pages: bool = False) -> PChaseResult:
        """Scalar reference for :meth:`_run` — the original
        hop-by-hop chase loop (the executable spec)."""
        chain = _chain(n_entries, seed=self.seed)
        stride = (self.hierarchy.tlb.page_bytes if stride_pages
                  else self.STRIDE_BYTES)
        idx, at_level = 0, 0
        lats = np.empty(iters)
        for i in range(iters):
            res = self.hierarchy.load(idx * stride, 32, cache_op=op)
            lats[i] = res.latency_clk
            at_level += res.level is expect
            idx = int(chain[idx])
        total = chase_total_clk(latency_counts(lats))
        return PChaseResult(label, total / iters, iters,
                            at_level / iters)


def measure_latencies(device: DeviceSpec, *,
                      seed: Optional[int] = None,
                      engine: str = "vectorized") -> Dict[str, float]:
    """Run all four P-chase measurements — one Table IV column.

    The probes run 256 iterations each against ``device`` with its L2
    shrunk to 2 MiB, so the over-L2 global probe streams 1.1 × 2 MiB
    instead of the paper's 1.25 × the real L2 (§III-A4, 2,048
    iterations).  The answer is the same: per-level latency in this
    model depends on neither the array size nor the iteration count,
    and the capacity-miss mechanism holds at any L2 size.
    ``tests/test_memory_pchase.py`` runs the paper's procedure on every
    pack and asserts equality.  ``seed`` randomises the chain orders
    (per-level means are unchanged: each probe is constant-latency at
    its level whatever the visit order).
    """
    it = 256
    device = device.with_overrides(
        cache=replace(device.cache, l2_size_kib=2048))
    p = PChase(device, seed=seed, engine=engine)
    return {
        "L1 Cache": p.l1_latency(iters=it).mean_latency_clk,
        "Shared": p.shared_latency(iters=it).mean_latency_clk,
        "L2 Cache": p.l2_latency(array_kib=1024,
                                 iters=it).mean_latency_clk,
        "Global": p.global_latency(iters=it,
                                   overfill=1.1).mean_latency_clk,
    }
