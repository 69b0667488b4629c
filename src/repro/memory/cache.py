"""Sectored set-associative cache model (vectorized).

Nvidia caches are organised as 128-byte lines split into 32-byte
sectors: a tag covers the whole line but data is filled per sector, so
a strided stream that touches one word per line still transfers only
the sectors it needs.  The model tracks tags + per-sector validity with
true-LRU replacement, which is sufficient for every access pattern the
paper's microbenchmarks generate (sequential warm-up passes followed by
pointer chases).

The state lives in way-major NumPy matrices of shape
``(ways, num_sets)`` — ``_lines`` (resident line address), ``_valid``
(per-sector valid bitmask), ``_stamp`` (LRU timestamp) and ``_ins``
(insertion sequence) — with a flat ``line address → way`` dict as the
lookup index, so a scalar :meth:`access` is O(1) in the associativity
instead of a linear way scan, and constructing a cache is O(1) in its
capacity (the matrices are callocated, never eagerly initialised).

The batched :meth:`access_many` resolves one stream shape in closed
form: a non-decreasing single-sector stream whose distinct lines lie a
constant ``d`` lines apart and are all absent before the batch, in an
empty cache or not.  Every line's first access is a tag miss, every
further sector of it a sector miss and every consecutive repeat of a
sector a hit.  The lines' sets repeat with period
``P = num_sets / gcd(d, num_sets)``, so true LRU keeps exactly the last
``min(m, P · ways)`` of its ``m`` lines; in each set they take the free
ways first, then the ways of the set's least-recently-used lines in
(stamp, insertion) order, the victims the lockstep path picks.  The
state matrices are written in O(kept lines), as slices when the kept
lines' sets are consecutive (``d = 1``), without sorting or visiting
the evicted lines.  This covers

* :meth:`warm` (``d = 1``, every sector of each line, empty cache),
  which goes through the same form without materialising addresses;
* the P-chase initialisation passes (one sector per line);
* chase laps over lines LRU has already evicted (capacity and
  global-latency chases past a cache's capacity);
* sub-sector strides (each sector repeated consecutively).

A stream with a resident line, a sector repeated non-consecutively
(e.g. a wrapped multi-period stream) or a non-constant line stride
takes :meth:`_all_hit_fast` when every access hits, else the exact
lockstep path (or, for tiny or multi-sector batches, the scalar
loop).

The matrices are way-major because that fill writes way by way: each
way it reaches is one contiguous row of each matrix, and the pages of
the ways it never reaches are never faulted in.  Set-major, it would
write one 8-byte cell into each set's ``8 · ways``-byte row and touch
every page of every matrix — about 13 MB for a 4 MiB stream into
H800's 25,600-set, 16-way L2, of which the way-major fill touches the
two rows it writes.

Behaviour is access-for-access identical to the original scalar
implementation, which ``tests/reference.py`` keeps as
``ScalarSetAssociativeCache``; property-based tests in
``tests/test_memory_cache.py`` enforce it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["SetAssociativeCache", "CacheStats"]

#: below this batch size the per-access loop beats the lockstep setup
_LOCKSTEP_MIN = 32

#: initial set count (columns) of the state matrices (grown on demand)
_INIT_SETS = 512

_I64_MAX = np.iinfo(np.int64).max


@dataclass
class CacheStats:
    """Running hit/miss counters."""

    accesses: int = 0
    hits: int = 0
    sector_misses: int = 0   # tag hit but sector not yet filled
    tag_misses: int = 0
    evictions: int = 0

    @property
    def misses(self) -> int:
        return self.sector_misses + self.tag_misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def reset(self) -> None:
        self.accesses = self.hits = 0
        self.sector_misses = self.tag_misses = self.evictions = 0


class SetAssociativeCache:
    """A sectored, true-LRU, set-associative cache.

    Parameters
    ----------
    size_bytes:
        Total data capacity.
    line_bytes:
        Tag granularity (128 B on all three devices).
    sector_bytes:
        Fill granularity (32 B).
    ways:
        Associativity.
    name:
        For diagnostics only.

    Recorded accesses count into :attr:`stats` and nowhere else;
    :class:`~repro.memory.hierarchy.MemoryHierarchy` turns its caches'
    stats into the session's ``cache.<level>.*`` counters.
    """

    def __init__(
        self,
        size_bytes: int,
        *,
        line_bytes: int = 128,
        sector_bytes: int = 32,
        ways: int = 4,
        name: str = "cache",
    ) -> None:
        if size_bytes <= 0 or size_bytes % line_bytes:
            raise ValueError("size must be a positive multiple of the line")
        if line_bytes % sector_bytes:
            raise ValueError("line must be a multiple of the sector")
        num_lines = size_bytes // line_bytes
        if num_lines % ways:
            raise ValueError("line count must be divisible by ways")
        if line_bytes // sector_bytes > 63:
            raise ValueError("at most 63 sectors per line (int64 bitmask)")
        self.name = name
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.sector_bytes = sector_bytes
        self.ways = ways
        self.num_sets = num_lines // ways
        self.sectors_per_line = line_bytes // sector_bytes
        self.stats = CacheStats()
        self._clock = 0
        self._ins_counter = 0   # global insertion sequence (LRU tie-break)
        self._alloc_state()

    def _alloc_state(self) -> None:
        # Occupied ways of a set are always 0.._set_fill[set]-1, so the
        # zero-initialised matrices are never read before being written.
        # Columns are allocated for a *prefix* of the sets and grown on
        # demand (_ensure_sets): a multi-MB L2 costs real milliseconds
        # to calloc in full, yet the microbenchmarks touch a small
        # fraction of its sets — an untouched set has no state to
        # store, so the short matrices are indistinguishable from
        # full-size ones.
        self._alloc_sets = min(self.num_sets, _INIT_SETS)
        shape = (self.ways, self._alloc_sets)
        self._lines = np.zeros(shape, dtype=np.int64)   # line addresses
        self._valid = np.zeros(shape, dtype=np.int64)   # sector bitmasks
        self._stamp = np.zeros(shape, dtype=np.int64)   # LRU timestamps
        self._ins = np.zeros(shape, dtype=np.int64)     # insertion seq
        self._set_fill = np.zeros(self._alloc_sets, dtype=np.int64)
        # line addr → way lookup index for the scalar path.  Lazy:
        # the batched paths maintain residency in the matrices alone
        # and set this to None; _index() rebuilds it on the next
        # scalar access.  Keeping it eagerly in sync cost more than
        # the whole closed-form fill for warm-up-sized streams.
        self._where: Optional[Dict[int, int]] = {}
        self._empty = True                   # no line inserted yet

    def _ensure_sets(self, hi: int) -> None:
        """Grow the state matrices to cover set indices ``< hi``."""
        cur = self._alloc_sets
        if hi <= cur:
            return
        new = min(self.num_sets, max(hi, 2 * cur))

        def grown(m: np.ndarray) -> np.ndarray:
            g = np.zeros(m.shape[:-1] + (new,), dtype=m.dtype)
            g[..., :cur] = m
            return g

        self._lines = grown(self._lines)
        self._valid = grown(self._valid)
        self._stamp = grown(self._stamp)
        self._ins = grown(self._ins)
        self._set_fill = grown(self._set_fill)
        self._alloc_sets = new

    def reserve_span(self, nbytes: int) -> None:
        """Pre-grow the state matrices for accesses inside
        ``[0, nbytes)`` — an allocation hint (one growth instead of a
        doubling cascade); cache state is unchanged."""
        if nbytes > 0:
            self._ensure_sets(min(-(-nbytes // self.line_bytes),
                                  self.num_sets))

    def _index(self) -> Dict[int, int]:
        """The line→way dict, rebuilt from the matrices if a batched
        path invalidated it (cost ∝ resident lines)."""
        w = self._where
        if w is None:
            occ = (np.arange(self.ways, dtype=np.int64)[:, None]
                   < self._set_fill[None, :])
            ways, sets = np.nonzero(occ)
            w = self._where = dict(zip(self._lines[ways, sets].tolist(),
                                       ways.tolist()))
        return w

    # -- address helpers ----------------------------------------------------

    def _locate(self, addr: int) -> Tuple[int, int, int]:
        line_addr = addr // self.line_bytes
        set_idx = line_addr % self.num_sets
        sector = (addr % self.line_bytes) // self.sector_bytes
        return line_addr, set_idx, sector

    def _sector_span(self, addr: int, size: int) -> List[Tuple[int, int, int]]:
        """All (line, set, sector) triples a [addr, addr+size) access
        touches.  Accesses are at most a line in practice."""
        out = []
        a = addr
        end = addr + max(size, 1)
        while a < end:
            out.append(self._locate(a))
            a = (a // self.sector_bytes + 1) * self.sector_bytes
        return out

    # -- main interface -------------------------------------------------------

    def access(self, addr: int, size: int = 4, *, write: bool = False,
               allocate: bool = True, record: bool = True) -> bool:
        """Probe the cache; returns True iff *all* touched sectors hit.

        Misses fill the touched sectors (when ``allocate``), evicting
        the LRU line of the set if the set is full.  Write policy is
        write-allocate (both L1 and L2 on these parts are
        write-allocate for the access sizes we model).

        ``record=False`` updates the cache state (fills, LRU stamps)
        without touching :attr:`stats` — the warm-up path, so reported
        hit rates cover only the measured phase.
        """
        self._clock = clock = self._clock + 1
        if record:
            self.stats.accesses += 1
        all_hit = True
        if 0 < size <= self.sector_bytes - addr % self.sector_bytes:
            # single-sector fast path — the overwhelmingly common
            # shape (4–32 B aligned loads); same transitions as the
            # loop below, minus the span bookkeeping
            line_addr = addr // self.line_bytes
            hi = line_addr % self.num_sets + 1
            span = ((line_addr, hi - 1,
                     addr % self.line_bytes // self.sector_bytes),)
        else:
            span = self._sector_span(addr, size)
            hi = max(s for _, s, _ in span) + 1
        if hi > self._alloc_sets:
            self._ensure_sets(hi)
        valid = self._valid
        stamp = self._stamp
        where = self._where
        if where is None:
            where = self._index()
        for line_addr, set_idx, sector in span:
            way = where.get(line_addr)
            bit = 1 << sector
            if way is not None and valid.item(way, set_idx) & bit:
                stamp[way, set_idx] = clock
                continue
            all_hit = False
            if way is not None:
                if record:
                    self.stats.sector_misses += 1
                if allocate:
                    valid[way, set_idx] |= bit
                    stamp[way, set_idx] = clock
            else:
                if record:
                    self.stats.tag_misses += 1
                if allocate:
                    self._insert(line_addr, set_idx, bit, record)
        if all_hit and record:
            self.stats.hits += 1
        return all_hit

    def access_many(self, addrs: Union[Sequence[int], np.ndarray],
                    size: int = 4, *, write: bool = False,
                    allocate: bool = True,
                    record: bool = True) -> np.ndarray:
        """Batched :meth:`access` — semantically identical to calling
        ``access`` once per address in order; returns the per-access
        hit booleans.

        A non-decreasing single-sector stream whose distinct lines lie
        a constant stride apart and are all absent (the ``warm()``,
        initialisation-pass, evicted-chase and sub-sector-stride
        shapes) is resolved in closed form without a per-access loop
        (:meth:`_stream_fill`).  Every other single-sector stream —
        resident lines, pointer chases, wrapped multi-period streams,
        other strides — takes :meth:`_all_hit_fast` when it hits
        throughout, else the lockstep path: sets are independent, so
        the stream is split per set and one matrix step resolves the
        *i*-th access of every touched set at once (see
        :meth:`_lockstep_access`).  Batches under ``_LOCKSTEP_MIN``
        accesses and multi-sector accesses fall back to the exact
        scalar path.
        """
        a = np.ascontiguousarray(addrs, dtype=np.int64)
        if a.ndim != 1:
            raise ValueError("addrs must be one-dimensional")
        n = len(a)
        if n == 0:
            return np.zeros(0, dtype=bool)
        if allocate and (n >= _LOCKSTEP_MIN or self._empty):
            runs = self._stride_runs(a, size)
            if runs is not None:
                hit = self._run_fill(a, *runs, record)
                if hit is not None:
                    return hit
        if n >= _LOCKSTEP_MIN and self._lockstep_ok(a, size):
            hit = self._all_hit_fast(a, record=record)
            if hit is not None:
                return hit
            return self._lockstep_access(a, size, allocate=allocate,
                                         record=record)
        return self._access_loop(a, size, write=write, allocate=allocate,
                                 record=record)

    def _access_loop(self, a: np.ndarray, size: int, *, write: bool,
                     allocate: bool, record: bool) -> np.ndarray:
        """The exact per-access fallback of :meth:`access_many`."""
        out = np.empty(len(a), dtype=bool)
        acc = self.access
        for i, addr in enumerate(a.tolist()):
            out[i] = acc(addr, size, write=write, allocate=allocate,
                         record=record)
        return out

    def probe(self, addr: int, size: int = 4) -> bool:
        """Non-destructive lookup (no fill, no LRU update, no stats)."""
        where = self._index()
        for line_addr, set_idx, sector in self._sector_span(addr, size):
            way = where.get(line_addr)
            if way is None or not (int(self._valid[way, set_idx])
                                   & (1 << sector)):
                return False
        return True

    def warm(self, base: int, size: int, *, record: bool = False) -> None:
        """Fill an address range (the ``ld.ca`` warm-up pass).

        Warm-up accesses advance the LRU clock exactly like measured
        ones but by default leave :attr:`stats` untouched, matching
        the paper's warm-up-then-measure protocol.
        """
        start = (base // self.sector_bytes) * self.sector_bytes
        end = base + size
        if start >= end:
            return
        if self._empty and start >= 0:
            # the stream below is a line-stride-1 closed-form stream;
            # resolve it without materialising the per-sector addresses
            self._warm_fill(start, end, record)
            return
        addrs = np.arange(start, end, self.sector_bytes, dtype=np.int64)
        self.access_many(addrs, self.sector_bytes, record=record)

    def flush(self) -> None:
        # Retains the (possibly grown) matrices: occupied ways are
        # always 0.._set_fill[set]-1, so zeroing the fill vector alone
        # empties the cache — stale entries are never consulted.  The
        # clocks keep running, exactly as before a flush; LRU is
        # ordinal so no outcome can tell.  Reusing the allocation
        # makes flush-and-rewarm loops (parameter sweeps) cheap.
        self._set_fill[:] = 0
        self._where = {}
        self._empty = True
        self.stats.reset()

    # -- internals --------------------------------------------------------------

    def _insert(self, line_addr: int, set_idx: int, sector_bits: int,
                record: bool) -> None:
        fill = self._set_fill.item(set_idx)
        if fill >= self.ways:
            # true LRU: smallest stamp; ties (multi-line accesses share
            # one clock) broken by insertion order, like the scalar
            # model's list scan.  A set has at most `ways` entries,
            # where a plain list scan beats any array reduction.
            row = self._stamp[:, set_idx].tolist()
            lo = min(row)
            if row.count(lo) == 1:
                way = row.index(lo)
            else:
                ins = self._ins[:, set_idx].tolist()
                way = min((i for i, s in enumerate(row) if s == lo),
                          key=ins.__getitem__)
            del self._where[self._lines.item(way, set_idx)]
            if record:
                self.stats.evictions += 1
        else:
            way = fill
            self._set_fill[set_idx] = fill + 1
        self._lines[way, set_idx] = line_addr
        self._valid[way, set_idx] = sector_bits
        self._stamp[way, set_idx] = self._clock
        self._ins[way, set_idx] = self._ins_counter
        self._ins_counter += 1
        self._where[line_addr] = way     # access() built it via _index
        self._empty = False

    def _stride_runs(self, a: np.ndarray, size: int) \
            -> Optional[Tuple[int, Optional[np.ndarray],
                              Optional[np.ndarray]]]:
        """``(d, first, repeat)`` if ``a`` is a non-decreasing
        single-sector stream whose distinct lines lie a constant ``d``
        lines apart, else None.

        Non-decreasing means a line's accesses are one consecutive run
        and so are a sector's.  ``first`` holds the line-run starts,
        or is None when every access is its own line (the init-pass
        shape, where the run bookkeeping is skipped); ``repeat`` flags
        the accesses that repeat their predecessor's sector, or is
        None when none does.
        """
        sb = self.sector_bytes
        if not 0 < size <= sb or a[0] < 0 or np.any(a % sb > sb - size):
            return None
        step = np.diff(a // self.line_bytes)
        if not len(step):
            return 1, None, None
        lo, hi = int(step.min()), int(step.max())
        if lo == hi > 0:
            return lo, None, None
        if lo != 0 or (hi > 1 and np.any((step != 0) & (step != hi))):
            return None
        dsec = np.diff(a // sb)
        if dsec.min() < 0:
            return None
        first = np.zeros(np.count_nonzero(step) + 1, dtype=np.int64)
        first[1:] = np.flatnonzero(step) + 1
        repeat = None
        if not dsec.all():
            repeat = np.zeros(len(a), dtype=bool)
            repeat[1:] = dsec == 0
        return max(hi, 1), first, repeat

    def _kept(self, m: int, d: int) -> int:
        """How many of ``m`` absent lines ``d`` apart, streamed in
        ascending order, LRU keeps.

        Their sets repeat with period ``P = S / gcd(d, S)``, so every
        ``P``-th line shares a set and, being more recent than every
        line the set held before, a line survives iff fewer than
        ``ways`` later lines land on its set: the last
        ``min(m, P · ways)`` lines stay.
        """
        S = self.num_sets
        return min(m, S // gcd(d, S) * self.ways)

    def _absent(self, l0: int, d: int, m: int) -> bool:
        """Is none of the ``m`` lines ``l0 + r·d`` resident?

        The first line is looked up alone first: a stream over a
        resident footprint (the all-hit chase) fails there.  Unoccupied
        ways may hold stale lines, so a match is only checked against
        occupancy when there is one.
        """
        if self._empty:
            return True
        S, alloc = self.num_sets, self._alloc_sets
        s = l0 % S
        if s < alloc:
            fill = self._set_fill.item(s)
            if fill and l0 in self._lines[:fill, s].tolist():
                return False
        lines = l0 + np.arange(m, dtype=np.int64) * d
        sets = lines % S
        if int(sets.max()) >= alloc:   # sets past the prefix hold none
            inside = sets < alloc
            lines, sets = lines[inside], sets[inside]
        match = self._lines[:, sets] == lines
        if not match.any():
            return True
        occ = (np.arange(self.ways, dtype=np.int64)[:, None]
               < self._set_fill[sets])
        return not np.any(match & occ)

    def _slots(self, sets: np.ndarray, fill: np.ndarray,
               kept: np.ndarray) -> np.ndarray:
        """``(ways, T)``: row ``j`` is the way the ``j``-th kept new
        line of each touched set takes — the set's free ways
        ``fill, fill + 1, …`` first, then the ways of its
        least-recently-used lines in (stamp, insertion) order, the
        victims :meth:`_insert` and the lockstep path pick.  Only the
        sets that lose lines are ranked, one LRU pick per lost line,
        by column minima (a way-major block reduces fast along its
        ways, where an ``argmin`` over them does not)."""
        W = self.ways
        j = np.arange(W, dtype=np.int64)[:, None]
        slot = fill + j
        lose = fill + kept - W            # old lines each set loses
        if lose.max() <= 0:
            return slot
        rows = np.flatnonzero(lose > 0)
        f, out = fill[rows], lose[rows]
        stamp = np.where(j < f, self._stamp[:, sets[rows]], _I64_MAX)
        ins = self._ins[:, sets[rows]]
        for e in range(int(out.max())):
            # the LRU line: least stamp, ties to the first inserted
            # (insertion numbers are unique)
            oldest = np.where(stamp == stamp.min(axis=0), ins, _I64_MAX)
            pick = oldest == oldest.min(axis=0)
            way = (pick * j).max(axis=0)
            take = out > e
            slot[(W - f + e)[take], rows[take]] = way[take]
            stamp[pick] = _I64_MAX
        return slot

    def _stream_fill(self, l0: int, d: int, m: int, n: int, hits: int,
                     valid: np.ndarray, last: np.ndarray,
                     record: bool) -> None:
        """Closed-form replay of ``n`` non-decreasing single-sector
        accesses over the ``m`` absent lines ``l0 + r·d``.

        The ``hits`` accesses that repeat their predecessor's sector
        hit; every other access misses: a tag miss per line, a sector
        miss per further sector.  ``valid`` and ``last`` are the sector
        masks and the 1-based stream position of the last access of
        the ``K = len(valid) = _kept(m, d)`` surviving lines, ranks
        ``m - K .. m - 1``.  The ``i``-th of them is the
        ``⌊i / P⌋``-th kept line of set ``sets[i % P]`` and takes the
        way :meth:`_slots` names for it; a set that held no line gives
        its ``j``-th kept line way ``j`` (which way holds a line is
        unobservable: lookups go by tag, LRU by stamp), so with no
        line in the touched sets each matrix takes one
        ``(K // P, P)`` block, a row per full way, plus a partial way
        — written as slices when the sets are consecutive (``d = 1``,
        wrapping once past the last set), else scattered.  Evictions
        are the lines LRU drops: ``m - K`` new ones plus the old ones
        the kept lines displace.  Stamps are the clock after a line's
        last access and insertion numbers its rank, so state, stats
        and clocks come out as streaming the accesses one at a time
        leaves them, in O(K): nothing is sorted or built per access.
        """
        S, W = self.num_sets, self.ways
        P = S // gcd(d, S)
        K = len(valid)
        k0 = m - K
        T = min(P, K)                       # the sets the stream touches
        full, rem = divmod(K, P)
        s0 = (l0 + k0 * d) % S
        # consecutive sets: columns [0, split) are sets s0.., the rest
        # wrap round to sets 0..
        split = min(T, S - s0) if d % S == 1 else 0
        sets = None
        if split:
            self._ensure_sets(s0 + split if split == T else S)
        else:
            sets = (s0 + np.arange(T, dtype=np.int64) * d) % S
            self._ensure_sets(int(sets.max()) + 1)
        fill = None
        if not self._empty:
            if sets is None:
                sets = (s0 + np.arange(T, dtype=np.int64)) % S
            fill = self._set_fill[sets]
            if not fill.any():
                fill = None                 # no line to displace
        columns = (
            (self._lines, np.arange(l0 + k0 * d, l0 + m * d, d,
                                    dtype=np.int64)),
            (self._valid, valid),
            (self._stamp, self._clock + last),
            (self._ins, np.arange(self._ins_counter + k0,
                                  self._ins_counter + m, dtype=np.int64)))
        displaced = 0
        if fill is None and split:
            for t0, t1, c0 in ((0, split, s0), (split, T, 0)):
                r1 = min(t1, rem)
                for matrix, values in columns:
                    if full and t1 > t0:
                        matrix[:full, c0:c0 + t1 - t0] = \
                            values[:full * P].reshape(full, P)[:, t0:t1]
                    if r1 > t0:
                        matrix[full, c0:c0 + r1 - t0] = \
                            values[full * P + t0:full * P + r1]
                if t1 > t0:
                    self._set_fill[c0:c0 + t1 - t0] = full
                if r1 > t0:
                    self._set_fill[c0:c0 + r1 - t0] = full + 1
        else:
            kept = full + (np.arange(T, dtype=np.int64) < rem)
            if fill is None:
                fill = np.zeros(T, dtype=np.int64)
            # slot (j, t) lies at flat index j·T + t = i when T = P,
            # and when T = K < P (one row), so the kept lines' ways are
            # the slot table's first K cells
            way = self._slots(sets, fill, kept).reshape(-1)[:K]
            cell = way * self._alloc_sets + np.resize(sets, K)
            for matrix, values in columns:
                matrix.reshape(-1)[cell] = values
            self._set_fill[sets] = np.minimum(fill + kept, W)
            displaced = int(np.maximum(fill + kept - W, 0).sum())
        self._where = None               # index rebuilt lazily
        self._empty = False

        self._clock += n
        self._ins_counter += m
        if record:
            self.stats.accesses += n
            self.stats.hits += hits
            self.stats.tag_misses += m
            self.stats.sector_misses += n - hits - m
            self.stats.evictions += m - K + displaced

    def _run_fill(self, a: np.ndarray, d: int,
                  first: Optional[np.ndarray],
                  repeat: Optional[np.ndarray],
                  record: bool) -> Optional[np.ndarray]:
        """:meth:`_stream_fill` for a stream :meth:`_stride_runs`
        accepted, returning its hits (the sector repeats) — or None,
        with nothing changed, when one of its lines is resident.  Only
        the kept lines' masks and stamps are gathered."""
        n = len(a)
        lb, sb = self.line_bytes, self.sector_bytes
        l0 = int(a[0]) // lb
        m = n if first is None else len(first)
        if not self._absent(l0, d, m):
            return None
        k0 = m - self._kept(m, d)
        if first is None:
            valid = np.int64(1) << (a[k0:] % lb // sb)
            last = np.arange(k0 + 1, n + 1, dtype=np.int64)
        else:
            heads = first[k0:]
            bits = np.int64(1) << (a[heads[0]:] % lb // sb)
            valid = np.bitwise_or.reduceat(bits, heads - heads[0])
            last = np.r_[heads[1:], n]
        if repeat is None:
            self._stream_fill(l0, d, m, n, 0, valid, last, record)
            return np.zeros(n, dtype=bool)
        self._stream_fill(l0, d, m, n, int(np.count_nonzero(repeat)),
                          valid, last, record)
        return repeat

    def _warm_fill(self, start: int, end: int, record: bool) -> None:
        """:meth:`warm` into an empty cache: the sector-ascending pass
        over ``[start, end)`` is a line-stride-1 stream, so it goes
        through :meth:`_stream_fill` with the kept lines' masks and
        stamps computed from the range alone, without materialising
        per-sector arrays."""
        spl = self.sectors_per_line
        s0 = start // self.sector_bytes
        s1 = -(-end // self.sector_bytes)
        l0 = s0 // spl
        m = (s1 - 1) // spl + 1 - l0
        k0 = m - self._kept(m, 1)
        full = (np.int64(1) << spl) - np.int64(1)
        valid = np.full(m - k0, full, dtype=np.int64)
        # the first / last line of the range may be partial
        if s0 % spl and not k0:
            valid[0] &= ~((np.int64(1) << (s0 % spl)) - 1)
        if s1 % spl:
            valid[-1] &= (np.int64(1) << (s1 % spl)) - 1
        # a line's last sector ends its run, the range's end the last
        last = np.arange((l0 + k0 + 1) * spl - s0, (l0 + m + 1) * spl - s0,
                         spl, dtype=np.int64)
        last[-1] = s1 - s0
        self._stream_fill(l0, 1, m, s1 - s0, 0, valid, last, record)

    def _all_hit_fast(self, a: np.ndarray, *,
                      record: bool) -> Optional[np.ndarray]:
        """Resolve a single-sector stream consisting entirely of hits.

        A steady-state chase over a resident footprint — the measured
        phase of every under-capacity P-chase point — only ever bumps
        LRU stamps: no fills, no evictions, no state beyond the
        clock.  Residency of the whole batch is decided by a gather of
        way 0 and, for the accesses not found there, one of every
        way; on the first non-hit the caller falls back to the exact
        general paths, having mutated nothing.

        Stamps are position-based (``clock0 + i + 1``) exactly as on
        the scalar and lockstep paths, and a line accessed several
        times in the batch keeps its *last* occurrence's stamp —
        fancy assignment applies values in order, so repeated
        ``(set, way)`` indices end on the final one.
        """
        if self._empty:
            return None
        line = a // self.line_bytes
        set_idx = line % self.num_sets
        alloc = self._alloc_sets
        if int(set_idx.max()) >= alloc:
            return None        # an untouched set means a sure miss
        fill = self._set_fill[set_idx]
        # way 0 first: a stream over a warmed footprint finds its lines
        # there (the closed-form fill puts a set's oldest kept line in
        # way 0); the rest are matched against every way.  ``cell`` is
        # the flat (way, set) index into the way-major matrices.
        cell = set_idx
        found = (self._lines[0, set_idx] == line) & (fill > 0)
        if not found.all():
            rest = np.flatnonzero(~found)
            ways = np.arange(self.ways, dtype=np.int64)[:, None]
            match = (self._lines[:, set_idx[rest]] == line[rest]) \
                & (ways < fill[rest])
            # an occupied way holds a line at most once
            way = (match * (ways + 1)).max(axis=0) - 1
            if np.any(way < 0):
                return None
            cell = set_idx.copy()
            cell[rest] += way * alloc
        bits = np.int64(1) << ((a % self.line_bytes)
                               // self.sector_bytes)
        if np.any(self._valid.reshape(-1)[cell] & bits == 0):
            return None
        n = len(a)
        self._stamp.reshape(-1)[cell] = \
            np.arange(self._clock + 1, self._clock + n + 1, dtype=np.int64)
        self._clock += n
        if record:
            self.stats.accesses += n
            self.stats.hits += n
        return np.ones(n, dtype=bool)

    def _lockstep_ok(self, addrs: np.ndarray, size: int) -> bool:
        """Is this stream eligible for the lockstep path?  Single
        sector per access is the only hard requirement (multi-sector
        accesses would interleave within one clock tick)."""
        if size <= 0:
            return False
        return not bool(np.any(addrs % self.sector_bytes + size
                               > self.sector_bytes))

    def _lockstep_access(self, a: np.ndarray, size: int, *,
                         allocate: bool, record: bool) -> np.ndarray:
        """Exact vectorized replay of a single-sector access stream.

        Sets are fully independent state machines, so the stream is
        split into per-set sub-streams (a stable argsort keeps each in
        issue order) and processed in *lockstep*: step ``i`` resolves
        the ``i``-th access of every touched set simultaneously with
        matrix operations.  The step count is the deepest sub-stream,
        not the batch length — a chase spread over S sets runs in
        ~n/S steps.

        Exactness relies on two invariants of the scalar path:

        * per-access clocks are position-based (``c0 + i + 1``), so
          LRU stamps can be computed up front;
        * stamps assigned within this call are distinct and larger
          than every pre-existing stamp, so the ``(stamp, _ins)``
          LRU tie-break can only involve pre-call lines — insertion
          sequence numbers are therefore assigned *after* the loop,
          in global access order, without affecting any victim choice
          made during it.
        """
        n = len(a)
        line = a // self.line_bytes
        set_idx = line % self.num_sets
        order = np.argsort(set_idx, kind="stable")
        gs = set_idx[order]
        starts = np.flatnonzero(np.r_[True, gs[1:] != gs[:-1]])
        counts = np.r_[starts[1:], n] - starts
        depth = int(counts.max())
        if depth * 8 > n:
            # concentrated in few sets: lockstep degenerates to ~n tiny
            # matrix steps — the scalar loop is cheaper and exact
            return self._access_loop(a, size, write=False,
                                     allocate=allocate, record=record)
        us = gs[starts]                       # touched sets, ascending
        self._ensure_sets(int(us[-1]) + 1)
        ways = self.ways

        # local (set, way) copies of the touched sets' columns, written
        # back once at the end; C-contiguous, so each step's per-set
        # gathers read one short run instead of `ways` strided cells
        L = np.ascontiguousarray(self._lines[:, us].T)
        V = np.ascontiguousarray(self._valid[:, us].T)
        S = np.ascontiguousarray(self._stamp[:, us].T)
        Ins = np.ascontiguousarray(self._ins[:, us].T)
        F = self._set_fill[us]

        line_s = line[order]
        bits_s = np.int64(1) << ((a[order] % self.line_bytes)
                                 // self.sector_bytes)
        clk_s = self._clock + order + 1       # position-based clocks
        pos_s = order

        out = np.empty(n, dtype=bool)
        way_col = np.arange(ways, dtype=np.int64)
        n_hit = n_sector = n_tag = n_evict = 0
        v_changed = False
        ins_pos: List[np.ndarray] = []
        ins_row: List[np.ndarray] = []
        ins_way: List[np.ndarray] = []
        ins_line: List[np.ndarray] = []
        ev_pos: List[np.ndarray] = []
        ev_line: List[np.ndarray] = []

        for step in range(depth):
            rows = np.flatnonzero(counts > step)   # one access per set
            idx = starts[rows] + step
            li = line_s[idx]
            bi = bits_s[idx]
            ck = clk_s[idx]
            po = pos_s[idx]

            occ = way_col < F[rows, None]
            match = (L[rows] == li[:, None]) & occ
            tag_hit = match.any(axis=1)
            w = match.argmax(axis=1)

            hit = np.zeros(len(rows), dtype=bool)
            th = np.flatnonzero(tag_hit)
            if len(th):
                hit[th] = (V[rows[th], w[th]] & bi[th]) != 0
            out[po] = hit

            h = np.flatnonzero(hit)
            sm = np.flatnonzero(tag_hit & ~hit)
            tm = np.flatnonzero(~tag_hit)
            if record:
                n_hit += len(h)
                n_sector += len(sm)
                n_tag += len(tm)
            if len(h):
                S[rows[h], w[h]] = ck[h]
            if allocate:
                if len(sm):
                    V[rows[sm], w[sm]] |= bi[sm]
                    S[rows[sm], w[sm]] = ck[sm]
                    v_changed = True
                if len(tm):
                    r = rows[tm]
                    fill = F[r]
                    wn = fill.copy()              # fresh way when not full
                    full = np.flatnonzero(fill >= ways)
                    if len(full):
                        rr = r[full]
                        Sr = S[rr]
                        key = np.where(Sr == Sr.min(axis=1)[:, None],
                                       Ins[rr], _I64_MAX)
                        wv = key.argmin(axis=1)   # LRU, ties by _ins
                        wn[full] = wv
                        ev_pos.append(po[tm][full])
                        ev_line.append(L[rr, wv].copy())
                        n_evict += len(full)
                    F[r] = np.minimum(fill + 1, ways)
                    L[r, wn] = li[tm]
                    V[r, wn] = bi[tm]
                    S[r, wn] = ck[tm]
                    ins_pos.append(po[tm])
                    ins_row.append(r)
                    ins_way.append(wn)
                    ins_line.append(li[tm])

        # insertion sequence numbers, assigned in global access order;
        # for a (set, way) slot filled several times only the last
        # insertion survives (the earlier ones were evicted)
        if ins_pos:
            ip = np.concatenate(ins_pos)
            ir = np.concatenate(ins_row)
            iw = np.concatenate(ins_way)
            o2 = np.argsort(ip)               # positions are unique
            slot = ir[o2] * ways + iw[o2]
            _, first_rev = np.unique(slot[::-1], return_index=True)
            keep = len(slot) - 1 - first_rev
            Ins[ir[o2][keep], iw[o2][keep]] = \
                self._ins_counter + keep
            self._ins_counter += len(ip)

        # write back only what could have changed: stamps move on
        # every access, the rest only on misses that allocated
        self._stamp[:, us] = S.T
        if ins_pos:
            self._lines[:, us] = L.T
            self._ins[:, us] = Ins.T
            self._set_fill[us] = F
        if v_changed or ins_pos:
            self._valid[:, us] = V.T

        if ins_pos:
            self._empty = False
        # replay eviction/insertion events into the line→way index —
        # unless it is already invalidated, in which case the matrices
        # alone carry residency and _index() rebuilds on demand
        if self._where is not None and (ins_pos or ev_pos):
            ep = np.concatenate(ev_pos + ins_pos) if ev_pos \
                else np.concatenate(ins_pos)
            el = np.concatenate(ev_line + ins_line) if ev_pos \
                else np.concatenate(ins_line)
            ew = np.concatenate(
                [np.full(sum(map(len, ev_pos)), -1, dtype=np.int64)]
                + ins_way) if ev_pos else np.concatenate(ins_way)
            o3 = np.argsort(ep)
            el_s = el[o3]
            ew_s = ew[o3]
            _, first_rev = np.unique(el_s[::-1], return_index=True)
            last = len(el_s) - 1 - first_rev
            final_line = el_s[last]
            final_way = ew_s[last]
            dead = final_way < 0
            where = self._where
            for lk in final_line[dead].tolist():
                where.pop(lk, None)     # inserted-then-evicted in-call
            where.update(zip(final_line[~dead].tolist(),
                             final_way[~dead].tolist()))

        self._clock += n
        if record:
            st = self.stats
            st.accesses += n
            st.hits += n_hit
            st.sector_misses += n_sector
            st.tag_misses += n_tag
            st.evictions += n_evict
        return out

    # -- introspection -------------------------------------------------------------

    def state_digest(self, sets: Union[Sequence[int], np.ndarray]) \
            -> bytes:
        """Canonical digest of the state of ``sets`` as it affects any
        future access stream confined to them: per set, the resident
        line addresses and sector-valid masks in LRU→MRU order (the
        lexicographic ``(stamp, _ins)`` rank), plus occupancy.
        Absolute clock values and physical way positions are
        deliberately excluded — LRU decisions are ordinal, and no
        outcome depends on *which* way holds a line — so two states
        one steady-state chase period apart digest equal even when
        the resident lines have rotated through the ways (as LRU
        thrash patterns make them do).
        """
        import hashlib

        rows = np.ascontiguousarray(sets, dtype=np.int64)
        if len(rows):
            self._ensure_sets(int(rows.max()) + 1)
        if len(rows) <= 32:
            # tiny set lists (conflict ladders): plain-Python sort of
            # a few ways per set beats the vectorized lexsort setup
            h = hashlib.blake2b(digest_size=16)
            payload = []
            for r in rows.tolist():
                fill = self._set_fill.item(r)
                payload.append(fill)
                if fill == 1:         # one line: nothing to order
                    payload.append(self._lines.item(0, r))
                    payload.append(self._valid.item(0, r))
                    continue
                occ = sorted(
                    zip(self._stamp[:fill, r].tolist(),
                        self._ins[:fill, r].tolist(),
                        self._lines[:fill, r].tolist(),
                        self._valid[:fill, r].tolist()))
                for _, _, ln, vd in occ:
                    payload.append(ln)
                    payload.append(vd)
            h.update(repr(payload).encode())
            return h.digest()
        # (set, way) views of the listed sets
        L = self._lines[:, rows].T
        V = self._valid[:, rows].T
        S = self._stamp[:, rows].T
        Ins = self._ins[:, rows].T
        F = self._set_fill[rows]
        occ = np.arange(self.ways)[None, :] < F[:, None]
        # list each set's lines in LRU-to-MRU order; unoccupied ways
        # sort last and are masked to sentinels
        order = np.lexsort((np.where(occ, Ins, _I64_MAX),
                            np.where(occ, S, _I64_MAX)), axis=-1)
        h = hashlib.blake2b(digest_size=16)
        h.update(F.tobytes())
        h.update(np.where(occ, np.take_along_axis(L, order, axis=1),
                          -1).tobytes())
        h.update(np.where(occ, np.take_along_axis(V, order, axis=1),
                          0).tobytes())
        return h.digest()

    @property
    def resident_bytes(self) -> int:
        """Bytes of valid sectors currently cached."""
        if self._empty:
            return 0
        # mask to occupied ways: flush() leaves stale bits behind
        occ = (np.arange(self.ways, dtype=np.int64)[:, None]
               < self._set_fill[None, :])
        valid = np.where(occ, self._valid, 0)
        if hasattr(np, "bitwise_count"):
            sectors = int(np.bitwise_count(valid).sum())
        else:  # pragma: no cover - numpy < 2.0
            sectors = int(np.unpackbits(
                valid.astype(np.uint64).view(np.uint8)).sum())
        return sectors * self.sector_bytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{self.name}: {self.size_bytes // 1024} KiB, "
            f"{self.ways}-way, {self.num_sets} sets>"
        )
