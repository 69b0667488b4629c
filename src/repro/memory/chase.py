"""Steady-state pointer-chase engine.

Every chase the paper's methodology runs — capacity sweeps, stride
sweeps, conflict ladders, the Table IV per-level probes — walks a
*periodic* address stream: a pointer chain (or modular walk) of period
``P`` replayed for ``iters`` accesses.  The driving loop used to step
the hierarchy one scalar ``load()`` at a time, which made the chase
the last Python-rate hot loop in the simulator.

:class:`ChaseEngine` exploits the periodicity instead of paying for
it.  It simulates whole periods through the batched
:meth:`~repro.memory.hierarchy.MemoryHierarchy.load_many` path —
grouped into "superlaps" of several periods so short chains still
move in efficiently sized batches (any multiple of the period is
itself a period) — and fingerprints each superlap with

* the per-access latency vector and serving levels,
* the per-access TLB hit bits, and
* a canonical digest of every piece of state the stream can see:
  the touched L1/L2 sets (resident lines, sector masks, relative LRU
  rank — see :meth:`SetAssociativeCache.state_digest`) and the TLB's
  recency order.

When two consecutive laps fingerprint equal, the chase has reached a
fixed point: the digest captures all behaviour-relevant state
ordinally (LRU decisions compare stamps, never read them), so every
future lap must repeat the confirming lap's outcomes *and* its
counter increments exactly.  The engine then accounts the remaining
whole laps analytically — its outcome counts advance by ``k ×`` the
confirming lap's tally, and the hierarchy advances its caches'
``CacheStats`` by ``k ×`` that lap's deltas and records ``k ×`` its
counters into the active :class:`ObsSession` — and simulates only
the final partial lap, which by the same equivalence argument is
exact.  Nothing about the result is approximate: property tests
in ``tests/test_memory_chase.py`` run the same chases one ``load()``
at a time and assert exact cycle totals and counter-bank equality.

Summed cycles are computed with :func:`chase_total_clk` — a
count-weighted sum over the distinct latency values in ascending
order — on the engine *and* spec paths, so totals compare bit-equal
regardless of how many laps were extrapolated.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Union

import numpy as np

from repro.isa.memory_ops import CacheOp
from repro.memory.hierarchy import (BatchAccessResult, MemLevel,
                                    MemoryHierarchy, Tally, split_tally)
from repro.obs.session import active_tracer
from repro.obs.trace import SIM_TRACK

__all__ = ["ChaseEngine", "ChaseStats", "chase_total_clk",
           "latency_counts"]

#: target accesses per simulated batch: laps are grouped into
#: "superlaps" of ``ceil(_BATCH_TARGET / period)`` periods so short
#: chains still move through ``load_many`` in efficiently sized calls.
#: Any multiple of the period is itself a period, so fixed-point
#: detection on superlap signatures is exactly as sound as on single
#: laps — it just confirms after at most two superlaps instead of two
#: laps.
_BATCH_TARGET = 512


def latency_counts(latencies: Union[Sequence[float], np.ndarray]) \
        -> Dict[float, int]:
    """Histogram a latency stream into ``{value: count}``."""
    values, counts = np.unique(np.asarray(latencies, dtype=np.float64),
                               return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))


def chase_total_clk(counts: Mapping[float, int]) -> float:
    """Total cycles of a chase from its latency histogram.

    Summation order is fixed (ascending latency value, one multiply
    per distinct value), so any two paths that agree on the histogram
    — e.g. a scalar loop and an engine that extrapolated most of its
    laps — produce bit-identical totals.
    """
    total = 0.0
    for value in sorted(counts):
        total += value * counts[value]
    return total


def _touched_sets(seq: np.ndarray, cache) -> np.ndarray:
    """The ascending distinct sets of ``cache`` that ``seq`` maps to —
    ``np.unique`` by counting, O(num_sets) and without the
    ``numpy.ma`` import a plain ``np.unique`` pulls in; a short chain
    (a conflict ladder) sorts a Python set instead."""
    if len(seq) < 32:
        return np.array(sorted({a // cache.line_bytes % cache.num_sets
                                for a in seq.tolist()}), dtype=np.int64)
    return np.flatnonzero(np.bincount(
        (seq // cache.line_bytes) % cache.num_sets))


@dataclass(frozen=True)
class ChaseStats:
    """Outcome of one engine chase, exact in every count."""

    iters: int
    latency_counts: Dict[float, int]
    level_counts: Dict[MemLevel, int]
    tlb_hits: int
    #: accesses resolved by simulation vs accounted analytically
    simulated: int = 0
    extrapolated: int = 0

    @property
    def total_latency_clk(self) -> float:
        return chase_total_clk(self.latency_counts)

    @property
    def mean_latency_clk(self) -> float:
        return self.total_latency_clk / self.iters if self.iters \
            else 0.0

    def at_level(self, level: MemLevel) -> float:
        """Fraction of accesses served at ``level``."""
        if not self.iters:
            return 0.0
        return self.level_counts.get(level, 0) / self.iters


class ChaseEngine:
    """Runs periodic chase workloads on one
    :class:`MemoryHierarchy` (see module docstring).

    Parameters mirror the scalar chase loops: ``size`` is the access
    width, ``cache_op`` the PTX cache operator, ``sm_id`` the issuing
    SM.  The engine records no counter itself: the hierarchy's load
    calls do, and its :meth:`~MemoryHierarchy._scale_stats` records
    the extrapolated laps', so a chase fires exactly the counters the
    equivalent scalar loop would.
    """

    def __init__(self, hierarchy: MemoryHierarchy, *, size: int = 32,
                 sm_id: int = 0,
                 cache_op: CacheOp = CacheOp.CACHE_ALL) -> None:
        self.hierarchy = hierarchy
        self.size = size
        self.sm_id = sm_id
        self.cache_op = cache_op

    # -- the drive loop -----------------------------------------------------

    def run(self, seq: Union[Sequence[int], np.ndarray],
            iters: int) -> ChaseStats:
        """Chase ``iters`` accesses through the periodic address
        stream ``seq`` (access ``i`` goes to ``seq[i % len(seq)]``),
        exactly as a scalar loop would."""
        seq = np.ascontiguousarray(seq, dtype=np.int64)
        period = len(seq)
        if period == 0:
            raise ValueError("need a non-empty address sequence")
        if iters < 0:
            raise ValueError("iters must be non-negative")

        h = self.hierarchy
        l1 = h.l1_for_sm(self.sm_id) if self.cache_op.allocates_l1 \
            else None
        l2 = h.l2
        # touched-set lists are only needed to take a signature; many
        # chases (short budgets relative to the period) never take one
        l1_sets = l2_sets = None

        # a superlap = ``batch`` whole periods, simulated in one
        # load_many call; the stream is periodic in it too.  Short
        # chains (conflict ladders) stay at batch=1: their laps are
        # too concentrated for the caches' lockstep path, and per-lap
        # signatures reach the fixed point after a handful of
        # simulated accesses instead of hundreds.
        if period >= 32:
            batch = max(1, -(-_BATCH_TARGET // period))
        else:
            batch = 1
        superlap = batch * period
        if batch > 1:
            stream = np.tile(seq, batch)
        else:
            stream = seq

        tally: Tally = {}
        simulated = extrapolated = 0

        # Sampled tracing: the trace stays small no matter how long
        # the chase is — one span for the steady-state (confirming)
        # superlap plus one fixed-point instant, on the sim-cycle
        # clock, instead of an event per access or per lap.
        tracer = active_tracer()
        cycle_cursor = 0.0
        prev_sig: Optional[bytes] = None
        done = 0
        while done < iters:
            remaining = iters - done
            if remaining < superlap:
                # tail: fewer accesses than one superlap.  Outcome
                # histograms don't care about lap boundaries, so the
                # whole tail is one batched call.  When it follows a
                # detected fixed point this is still exact — the
                # steady state is digest-equivalent to the state the
                # true tail would have started from.
                res = self._lap(stream[:remaining])
                self._absorb(res, tally)
                simulated += remaining
                done = iters
                break
            stat_snap = h._stats_snapshot(l1)
            res = self._lap(stream)
            self._absorb(res, tally)
            simulated += superlap
            done += superlap
            if tracer is not None:
                lap_clk = float(res.latency_clk.sum())
                cycle_cursor += lap_clk
            # A signature only pays if a comparison can still save
            # work: comparing needs a *next* full superlap (whose own
            # signature requires ``done + superlap <= iters`` then),
            # and a first-of-a-pair signature additionally needs ≥ 1
            # extrapolatable lap beyond that comparison point.  Both
            # conditions are monotone in ``done``, so skipping never
            # breaks the consecutive-lap invariant — once skipped,
            # no later lap takes a signature either.
            if done + superlap <= iters and \
                    (prev_sig is not None
                     or done + 2 * superlap <= iters):
                if l2_sets is None:
                    l1_sets = _touched_sets(seq, l1) \
                        if l1 is not None else None
                    l2_sets = _touched_sets(seq, l2)
                sig = self._signature(res, l1, l1_sets, l2, l2_sets)
                if sig == prev_sig:
                    # fixed point: account the remaining whole
                    # superlaps analytically from the confirming
                    # superlap's deltas
                    k = (iters - done) // superlap
                    if tracer is not None:
                        tracer.complete(
                            "chase steady-state lap",
                            cycle_cursor - lap_clk, lap_clk,
                            cat="chase", pid=SIM_TRACK,
                            tid=f"chase sm{self.sm_id}",
                            args={"period": period,
                                  "superlap": superlap,
                                  "lap_clk": lap_clk})
                        tracer.instant(
                            "chase fixed point",
                            ts=cycle_cursor,
                            cat="chase", pid=SIM_TRACK,
                            tid=f"chase sm{self.sm_id}",
                            args={"iters": iters,
                                  "simulated": simulated,
                                  "extrapolated_laps": k,
                                  "extrapolated": k * superlap})
                    if k:
                        self._absorb(res, tally, scale=k)
                        h._scale_stats(res.tally, self.size, stat_snap,
                                       k)
                        extrapolated += k * superlap
                        done += k * superlap
                        if tracer is not None:
                            cycle_cursor += k * lap_clk
                prev_sig = sig
        counts, levels, tlb_hits = split_tally(tally)
        return ChaseStats(iters=iters, latency_counts=counts,
                          level_counts=levels, tlb_hits=tlb_hits,
                          simulated=simulated,
                          extrapolated=extrapolated)

    # -- internals ----------------------------------------------------------

    def _lap(self, addrs: np.ndarray) -> BatchAccessResult:
        return self.hierarchy.load_many(addrs, self.size,
                                        sm_id=self.sm_id,
                                        cache_op=self.cache_op)

    @staticmethod
    def _absorb(res: BatchAccessResult, tally: Tally,
                scale: int = 1) -> None:
        # a lap's loads come tallied per (latency, level, TLB outcome),
        # at most six entries whatever the lap's length, so merging
        # them costs a few dict updates and no array pass
        for key, c in res.tally.items():
            tally[key] = tally.get(key, 0) + c * scale

    def _signature(self, res: BatchAccessResult, l1, l1_sets, l2,
                   l2_sets) -> bytes:
        """Fingerprint of one lap: its outcomes plus the canonical
        digest of all state the stream can observe afterwards."""
        h = hashlib.blake2b(digest_size=16)
        h.update(res.latency_clk.tobytes())
        h.update(res.levels.tobytes())
        h.update(res.tlb_hit.tobytes())
        if l1 is not None:
            h.update(l1.state_digest(l1_sets))
        h.update(l2.state_digest(l2_sets))
        h.update(self.hierarchy.tlb.state_digest())
        return h.digest()
