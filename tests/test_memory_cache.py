"""Tests for the sectored set-associative cache."""

from __future__ import annotations

from math import gcd

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.memory import CacheStats, SetAssociativeCache
from reference import ScalarSetAssociativeCache


def small_cache(**kw):
    defaults = dict(size_bytes=4096, line_bytes=128, sector_bytes=32,
                    ways=4, name="test")
    defaults.update(kw)
    return SetAssociativeCache(**defaults)


class TestGeometry:
    def test_basic_derivation(self):
        c = small_cache()
        assert c.num_sets == 4096 // 128 // 4
        assert c.sectors_per_line == 4

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            small_cache(size_bytes=1000)       # not line multiple
        with pytest.raises(ValueError):
            small_cache(line_bytes=100)        # not sector multiple
        with pytest.raises(ValueError):
            small_cache(size_bytes=128 * 3, ways=2)  # lines % ways


class TestHitMiss:
    def test_cold_miss_then_hit(self):
        c = small_cache()
        assert not c.access(0)
        assert c.access(0)
        assert c.stats.tag_misses == 1
        assert c.stats.hits == 1

    def test_sector_granularity(self):
        c = small_cache()
        c.access(0)            # fills sector 0 of line 0
        assert not c.access(32)   # sector 1 of the SAME line: sector miss
        assert c.stats.sector_misses == 1
        assert c.access(0) and c.access(32)

    def test_same_sector_different_bytes_hit(self):
        c = small_cache()
        c.access(0)
        assert c.access(28)   # same 32-byte sector (bytes 28..31)

    def test_multi_sector_access(self):
        c = small_cache()
        assert not c.access(0, size=64)      # spans 2 sectors
        assert c.access(0, size=64)
        assert c.access(32)

    def test_probe_is_non_destructive(self):
        c = small_cache()
        assert not c.probe(0)
        before = c.stats.accesses
        c.probe(0)
        assert c.stats.accesses == before
        assert not c.access(0)  # still a miss — probe didn't fill

    def test_no_allocate(self):
        c = small_cache()
        c.access(0, allocate=False)
        assert not c.probe(0)


class TestLru:
    def test_eviction_order(self):
        c = small_cache()  # 8 sets, 4 ways
        set_stride = c.num_sets * c.line_bytes  # same-set addresses
        addrs = [i * set_stride for i in range(5)]
        for a in addrs[:4]:
            c.access(a)
        c.access(addrs[0])      # refresh line 0
        c.access(addrs[4])      # evicts LRU = line 1
        assert c.probe(addrs[0])
        assert not c.probe(addrs[1])
        assert c.probe(addrs[4])
        assert c.stats.evictions == 1

    def test_capacity_thrash(self):
        c = small_cache()
        lines = c.size_bytes // c.line_bytes
        # touch 2× capacity sequentially, twice: second pass all misses
        for _ in range(2):
            for i in range(2 * lines):
                c.access(i * c.line_bytes)
        # after warmup the second pass should have been all misses (LRU)
        assert c.stats.hit_rate < 0.01

    def test_within_capacity_all_hits_after_warm(self):
        c = small_cache()
        lines = c.size_bytes // c.line_bytes
        for i in range(lines):
            c.access(i * c.line_bytes)
        c.stats.reset()
        for i in range(lines):
            assert c.access(i * c.line_bytes)
        assert c.stats.hit_rate == 1.0


class TestWarmFlush:
    def test_warm_fills_range(self):
        c = small_cache()
        c.warm(0, 1024)
        assert all(c.probe(a) for a in range(0, 1024, 32))

    def test_flush(self):
        c = small_cache()
        c.warm(0, 512)
        c.flush()
        assert not c.probe(0)
        assert c.stats.accesses == 0

    def test_resident_bytes(self):
        c = small_cache()
        assert c.resident_bytes == 0
        c.access(0)
        assert c.resident_bytes == 32
        c.warm(0, 1024)
        assert c.resident_bytes == 1024


class TestProperties:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1 << 20),
                    min_size=1, max_size=200))
    def test_resident_never_exceeds_capacity(self, addrs):
        c = small_cache()
        for a in addrs:
            c.access(a)
        assert c.resident_bytes <= c.size_bytes

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1 << 16),
                    min_size=1, max_size=100))
    def test_repeat_access_hits(self, addrs):
        c = SetAssociativeCache(1 << 16, ways=16)
        for a in addrs:
            c.access(a)
        # working set fits: immediate re-access of the last address hits
        assert c.access(addrs[-1])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1 << 22),
                    min_size=1, max_size=100))
    def test_stats_consistency(self, addrs):
        c = small_cache()
        for a in addrs:
            c.access(a)
        s = c.stats
        assert s.accesses == len(addrs)
        assert s.hits + len(
            [1 for _ in range(0)]) <= s.accesses  # hits bounded
        assert s.hits <= s.accesses
        assert s.misses >= 0


def _state_fingerprint(cache, addrs):
    """Observable state: probes over every touched sector + occupancy."""
    probes = tuple(cache.probe(a) for a in addrs)
    return probes, cache.resident_bytes


class TestScalarEquivalence:
    """The vectorized cache is access-for-access identical to the
    scalar reference implementation in ``tests/reference.py``."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=1 << 14),  # addr
                st.integers(min_value=1, max_value=200),      # size
                st.booleans(),                                # write
                st.booleans(),                                # allocate
            ),
            min_size=1, max_size=120,
        )
    )
    def test_access_stream_equivalence(self, stream):
        vec = small_cache()
        ref = ScalarSetAssociativeCache(
            4096, line_bytes=128, sector_bytes=32, ways=4, name="ref")
        for addr, size, write, allocate in stream:
            assert vec.access(addr, size, write=write,
                              allocate=allocate) == \
                ref.access(addr, size, write=write, allocate=allocate)
        assert vec.stats == ref.stats
        touched = [a for a, *_ in stream]
        assert _state_fingerprint(vec, touched) == \
            _state_fingerprint(ref, touched)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=1 << 14),
                 min_size=1, max_size=150),
        st.integers(min_value=1, max_value=64),
        st.booleans(),
    )
    def test_access_many_matches_sequential(self, addrs, size, allocate):
        batched = small_cache()
        seq = small_cache()
        got = batched.access_many(np.array(addrs, dtype=np.int64),
                                  size, allocate=allocate)
        want = [seq.access(a, size, allocate=allocate) for a in addrs]
        assert got.tolist() == want
        assert batched.stats == seq.stats
        assert _state_fingerprint(batched, addrs) == \
            _state_fingerprint(seq, addrs)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=1 << 12),
           st.integers(min_value=1, max_value=64))
    def test_warm_bulk_path_equivalence(self, base, n_sectors):
        """``warm()`` into an empty cache resolves its sector-ascending
        pass in closed form at line granularity (``_warm_fill``); the
        scalar model is the ground truth for it."""
        base = (base // 32) * 32
        size = n_sectors * 32
        vec = small_cache()
        ref = ScalarSetAssociativeCache(
            4096, line_bytes=128, sector_bytes=32, ways=4, name="ref")
        vec.warm(base, size, record=True)
        ref.warm(base, size)
        assert vec.stats == ref.stats
        touched = list(range(base, base + size, 32))
        assert _state_fingerprint(vec, touched) == \
            _state_fingerprint(ref, touched)

    def test_warm_record_false_leaves_stats_clean(self):
        c = small_cache()
        c.warm(0, 1024)
        assert c.stats.accesses == 0 and c.stats.misses == 0
        assert all(c.probe(a) for a in range(0, 1024, 32))
        # ... while the recorded variant counts every access
        c2 = small_cache()
        c2.warm(0, 1024, record=True)
        assert c2.stats.accesses == 1024 // 32
        assert c2.resident_bytes == c.resident_bytes

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=1 << 12),
           st.integers(min_value=33, max_value=200))
    def test_warm_overflow_equivalence(self, base, n_sectors):
        """Warms spanning more lines than sets (the closed form's grid
        regime, where LRU keeps only the tail of each set) leave
        *exactly* the state the scalar model leaves — including the
        recency stamps later evictions decide on."""
        base = (base // 32) * 32
        size = n_sectors * 32
        vec = small_cache()
        ref = ScalarSetAssociativeCache(
            4096, line_bytes=128, sector_bytes=32, ways=4, name="ref")
        vec.warm(base, size, record=True)
        ref.warm(base, size)
        assert vec.stats == ref.stats
        touched = list(range(base, base + size, 32))
        assert _state_fingerprint(vec, touched) == \
            _state_fingerprint(ref, touched)
        # follow-up conflict accesses exercise the warmed LRU state
        for i in range(40):
            a = (base + i * 1024 + 32 * (i % 4)) % (1 << 14)
            assert vec.access(a) == ref.access(a), (i, a)
        assert vec.stats == ref.stats

    def test_bulk_then_scalar_sequence(self):
        """A bulk fill may defer index bookkeeping; scalar accesses
        right after it must still behave exactly like a cache that
        took every access one at a time."""
        bulk = small_cache()
        bulk.access_many(np.arange(0, 2048, 32, dtype=np.int64))
        seq = small_cache()
        for a in range(0, 2048, 32):
            seq.access(a)
        for a in (0, 64, 4096, 96, 8192, 0):
            assert bulk.access(a) == seq.access(a), a
        assert bulk.stats == seq.stats


@st.composite
def strided_streams(draw):
    """An ascending single-sector stream over ``m`` lines a constant
    ``d`` apart, one or several sectors per line, from any base line.

    ``small_cache()`` has S = 8 sets and W = 4 ways; the stream's sets
    repeat every P = S / gcd(d, S) lines and LRU keeps the last
    min(m, P·W), so ``m`` is drawn below S, between S and P·W, or
    above P·W (for d = 32 and 16384, P = 1 and the middle range is
    empty)."""
    sets, ways = 8, 4
    d = draw(st.sampled_from((1, 2, 3, 32, 16384)))
    kept = sets // gcd(d, sets) * ways
    m = draw(st.one_of(st.integers(1, sets - 1),
                       st.integers(min(sets, kept), kept),
                       st.integers(kept + 1, kept + 2 * sets)))
    base = draw(st.integers(0, 1 << 12))
    size = draw(st.sampled_from((4, 32)))
    offset = draw(st.integers(0, (32 - size) // 4)) * 4
    per_line = draw(st.lists(st.sets(st.integers(0, 3), min_size=1),
                             min_size=m, max_size=m))
    addrs = [(base + r * d) * 128 + sector * 32 + offset
             for r, sectors in enumerate(per_line)
             for sector in sorted(sectors)]
    return d, m, size, addrs


class TestStrideFill:
    """``access_many`` resolves an ascending constant-line-stride
    stream into an empty cache in closed form; anything else goes to
    the exact lockstep path.  The scalar model is the ground truth."""

    @staticmethod
    def _pair(flushed: bool):
        vec = small_cache()
        ref = ScalarSetAssociativeCache(
            4096, line_bytes=128, sector_bytes=32, ways=4, name="ref")
        if flushed:
            for cache in (vec, ref):
                for a in range(0, 1 << 14, 352):
                    cache.access(a, 64)
                cache.flush()
        return vec, ref

    @settings(max_examples=120, deadline=None)
    @given(stream=strided_streams(), flushed=st.booleans(),
           record=st.booleans())
    def test_matches_scalar(self, stream, flushed, record):
        d, m, size, addrs = stream
        vec, ref = self._pair(flushed)
        a = np.asarray(addrs, dtype=np.int64)
        assert vec._stride_runs(a, size)[0] == (d if m > 1 else 1)
        got = vec.access_many(a, size, record=record)
        assert got.tolist() == [ref.access(x, size) for x in addrs]
        if not record:
            assert vec.stats == CacheStats()
            ref.stats.reset()
        assert vec.stats == ref.stats
        assert _state_fingerprint(vec, addrs) == \
            _state_fingerprint(ref, addrs)
        # revisit kept, evicted and never-touched lines of the
        # stream's sets: the LRU order the fill left decides them
        for i in range(40):
            x = (addrs[0] // 128 + (i * 7) % (m + 8) * d) * 128 \
                + 32 * (i % 4)
            assert vec.access(x) == ref.access(x), (i, x)
        assert vec.stats == ref.stats

    def test_irregular_stride_takes_lockstep(self, monkeypatch):
        """Ascending lines whose gaps alternate between 1 and 2: not a
        constant stride, so the exact lockstep path answers (64 sets
        of 2 ways keep it off the scalar loop it degrades to when a
        few sets take most of the stream)."""
        vec = SetAssociativeCache(1 << 14, ways=2, name="vec")
        ref = ScalarSetAssociativeCache(1 << 14, ways=2, name="ref")
        addrs = [(i + i // 3) * 128 for i in range(150)]
        a = np.asarray(addrs, dtype=np.int64)
        assert vec._stride_runs(a, 4) is None
        steps = []
        lockstep = vec._lockstep_access
        monkeypatch.setattr(vec, "_access_loop", None)   # never reached
        monkeypatch.setattr(vec, "_lockstep_access",
                            lambda *args, **kw: steps.append(1)
                            or lockstep(*args, **kw))
        got = vec.access_many(a)
        assert steps == [1]
        assert got.tolist() == [ref.access(x) for x in addrs]
        assert vec.stats == ref.stats and vec.stats.evictions
        assert _state_fingerprint(vec, addrs) == \
            _state_fingerprint(ref, addrs)
        for x in addrs[::-3]:
            assert vec.access(x) == ref.access(x), x


def _lru_view(cache, sets):
    """Per set: its resident ``(line, valid mask)`` pairs LRU first —
    what ``state_digest`` hashes — and its lines in insertion order.
    Reads either cache model: the matrices of
    :class:`SetAssociativeCache` (order by ``(stamp, _ins)``), or the
    reference's per-set lists (appended on insertion; ``min`` by
    stamp breaks ties by list position)."""
    view = []
    for r in sets:
        if isinstance(cache, ScalarSetAssociativeCache):
            lines = cache._sets[r]
            lru = sorted(range(len(lines)), key=lambda i: lines[i].stamp)
            view.append((
                [(lines[i].tag * cache.num_sets + r,
                  lines[i].valid_sectors) for i in lru],
                [ln.tag * cache.num_sets + r for ln in lines]))
            continue
        fill = int(cache._set_fill[r])
        rows = list(zip(cache._stamp[:fill, r].tolist(),
                        cache._ins[:fill, r].tolist(),
                        cache._lines[:fill, r].tolist(),
                        cache._valid[:fill, r].tolist()))
        view.append(([(ln, vd) for _, _, ln, vd in sorted(rows)],
                     [ln for _, ln in sorted((i, ln)
                                             for _, i, ln, _ in rows)]))
    return view


def _spy_paths(monkeypatch, cache):
    """The batched paths ``cache.access_many`` calls, in order."""
    calls = []
    for name in ("_stream_fill", "_lockstep_access", "_access_loop",
                 "_all_hit_fast"):
        real = getattr(cache, name)
        monkeypatch.setattr(
            cache, name,
            lambda *a, _n=name, _f=real, **kw:
            calls.append(_n) or _f(*a, **kw))
    return calls


@st.composite
def closed_form_streams(draw):
    """A cache state and a closed-form stream into it.

    The state is ``small_cache()`` (S = 8 sets, W = 4 ways) left empty
    or warmed by 40–120 aligned 4-byte scalar accesses to lines 0–63,
    which fill most sets.  The stream is non-decreasing and
    single-sector: ``m`` lines ``d`` apart from base line 64 or above
    (so none is resident), each touching a sorted set of its sectors,
    each sector several times in a row: up to eight 4-byte accesses
    anywhere in it (a sub-sector stride), or one or two whole 32-byte
    reads.  ``m`` is drawn so each touched set takes fewer, about as
    many or more new lines than it has ways."""
    sets, ways = 8, 4
    warm = draw(st.one_of(
        st.just([]),
        st.lists(st.integers(0, (64 << 5) - 1).map(lambda w: 4 * w),
                 min_size=40, max_size=120)))
    d = draw(st.sampled_from((1, 2, 3, 8, 16)))
    period = sets // gcd(d, sets)
    m = draw(st.one_of(st.integers(1, period),
                       st.integers(period, period * ways),
                       st.integers(period * ways + 1,
                                   period * ways + 2 * sets)))
    base = 64 + draw(st.integers(0, 256))
    size = draw(st.sampled_from((4, 32)))
    addrs = []
    for r in range(m):
        for sector in sorted(draw(st.sets(st.integers(0, 3),
                                          min_size=1))):
            for _ in range(draw(st.integers(1, 8 if size == 4 else 2))):
                offset = draw(st.integers(0, 7)) * 4 if size == 4 else 0
                addrs.append((base + r * d) * 128 + sector * 32 + offset)
    return warm, d, m, size, addrs


class TestClosedFormFill:
    """``access_many``'s closed form takes any non-decreasing
    single-sector constant-line-stride stream whose lines are all
    absent, into an empty or a warmed cache: first touches of a line
    are tag misses, further sectors sector misses, consecutive sector
    repeats hits, and each set's new lines displace its LRU lines.
    Held to the scalar reference access for access, and to the
    vectorized cache's own scalar path for ``state_digest`` and the
    insertion counter."""

    @staticmethod
    def _caches(warm):
        vec, seq = small_cache(), small_cache()
        ref = ScalarSetAssociativeCache(
            4096, line_bytes=128, sector_bytes=32, ways=4, name="ref")
        for cache in (vec, seq, ref):
            for a in warm:
                cache.access(a)
        return vec, seq, ref

    @settings(max_examples=200, deadline=None)
    @given(stream=closed_form_streams(), record=st.booleans())
    def test_matches_scalar(self, stream, record):
        warm, d, m, size, addrs = stream
        vec, seq, ref = self._caches(warm)
        a = np.asarray(addrs, dtype=np.int64)
        assert vec._stride_runs(a, size)[0] == (d if m > 1 else 1)
        closed = bool(vec._empty) or len(a) >= 32
        for cache in (vec, seq, ref):
            cache.stats.reset()
        with pytest.MonkeyPatch.context() as mp:
            calls = _spy_paths(mp, vec)
            got = vec.access_many(a, size, record=record)
        assert calls == (["_stream_fill"] if closed else ["_access_loop"])
        want = [ref.access(x, size) for x in addrs]
        for x in addrs:
            seq.access(x, size, record=record)
        assert got.tolist() == want
        assert got.sum() == len(addrs) - len(set(x // 32 for x in addrs))
        if record:
            assert vec.stats == ref.stats
        else:
            assert vec.stats == CacheStats()
        assert vec._clock == ref._clock == seq._clock
        assert vec._ins_counter == seq._ins_counter
        touched = sorted({x // 128 % vec.num_sets for x in addrs})
        assert _lru_view(vec, touched) == _lru_view(ref, touched)
        assert vec.state_digest(touched) == seq.state_digest(touched)
        # the LRU order the fill left decides every later eviction
        for i in range(40):
            x = (addrs[0] // 128 + (i * 5) % (m + 8) * d) * 128 \
                + 32 * (i % 4)
            assert vec.access(x) == ref.access(x), (i, x)
        assert _lru_view(vec, range(8)) == _lru_view(ref, range(8))

    @settings(max_examples=60, deadline=None)
    @given(stream=closed_form_streams(), pick=st.integers(0, 1 << 16))
    def test_resident_line_is_not_closed_form(self, stream, pick):
        """One line of the stream already resident: the exact paths
        answer, and it hits where the closed form would have missed."""
        warm, _, _, size, addrs = stream
        resident = addrs[pick % len(addrs)]
        vec, _, ref = self._caches(warm + [resident])
        with pytest.MonkeyPatch.context() as mp:
            calls = _spy_paths(mp, vec)
            got = vec.access_many(np.asarray(addrs, dtype=np.int64),
                                  size)
        assert "_stream_fill" not in calls
        assert got.tolist() == [ref.access(x, size) for x in addrs]
        assert vec.stats == ref.stats
        assert _lru_view(vec, range(8)) == _lru_view(ref, range(8))

    @settings(max_examples=60, deadline=None)
    @given(stream=closed_form_streams(), laps=st.integers(2, 3))
    def test_wrapped_stream_is_not_closed_form(self, stream, laps):
        """A stream over two or more sectors replayed ``laps`` times (a
        multi-period chase lap) repeats its sectors non-consecutively:
        never closed form."""
        warm, _, _, size, addrs = stream
        assume(len({x // 32 for x in addrs}) > 1)
        vec, _, ref = self._caches(warm)
        wrapped = addrs * laps
        a = np.asarray(wrapped, dtype=np.int64)
        assert vec._stride_runs(a, size) is None
        with pytest.MonkeyPatch.context() as mp:
            calls = _spy_paths(mp, vec)
            got = vec.access_many(a, size)
        assert "_stream_fill" not in calls
        assert got.tolist() == [ref.access(x, size) for x in wrapped]
        assert vec.stats == ref.stats
        assert _lru_view(vec, range(8)) == _lru_view(ref, range(8))


class TestAllHitStream:
    """A stream every access of which hits takes ``_all_hit_fast``,
    which only moves LRU stamps — in stream order, to whichever way of
    its set each line sits in (a full warm puts lines in every way)."""

    @settings(max_examples=60, deadline=None)
    @given(lines=st.integers(1, 32), base=st.integers(0, 64),
           picks=st.lists(st.integers(0, 1 << 16), min_size=32,
                          max_size=120))
    def test_matches_scalar(self, lines, base, picks):
        vec = small_cache()
        ref = ScalarSetAssociativeCache(
            4096, line_bytes=128, sector_bytes=32, ways=4, name="ref")
        lo, size = base * 128, lines * 128
        for cache in (vec, ref):
            cache.warm(lo, size)
            cache.stats.reset()
        addrs = [lo + p % (size // 4) * 4 for p in picks]
        with pytest.MonkeyPatch.context() as mp:
            calls = _spy_paths(mp, vec)
            got = vec.access_many(np.asarray(addrs, dtype=np.int64))
        assert calls == ["_all_hit_fast"]
        assert got.tolist() == [ref.access(x) for x in addrs]
        assert got.all() and vec.stats == ref.stats
        assert vec._clock == ref._clock
        assert _lru_view(vec, range(8)) == _lru_view(ref, range(8))
        # the stamps it moved decide which lines later misses evict
        for i in range(24):
            x = (lo + (lines + i) * 128 + 32 * (i % 4)) % (1 << 14)
            assert vec.access(x) == ref.access(x), (i, x)
        assert _lru_view(vec, range(8)) == _lru_view(ref, range(8))


class TestAllocationRetention:
    """``flush()`` empties the cache without discarding grown
    matrices; a flushed cache must be observationally identical to a
    brand-new one."""

    def test_flush_behaves_like_fresh(self):
        used = small_cache()
        for a in range(0, 1 << 14, 96):
            used.access(a, 64)
        used.flush()
        assert used.resident_bytes == 0
        assert used.stats.accesses == 0
        fresh = small_cache()
        stream = [(a * 37) % (1 << 14) for a in range(300)]
        for a in stream:
            assert used.access(a) == fresh.access(a), a
        assert used.stats == fresh.stats
        assert _state_fingerprint(used, stream) == \
            _state_fingerprint(fresh, stream)

    def test_flushed_warm_matches_fresh_warm(self):
        used = small_cache()
        used.warm(0, 4096)
        used.flush()
        fresh = small_cache()
        used.warm(64, 2048, record=True)
        fresh.warm(64, 2048, record=True)
        assert used.stats == fresh.stats
        touched = list(range(64, 64 + 2048, 32))
        assert _state_fingerprint(used, touched) == \
            _state_fingerprint(fresh, touched)

    def test_reserve_span_is_behaviour_neutral(self):
        plain = small_cache()
        sized = small_cache()
        sized.reserve_span(1 << 20)   # clamps at the geometry
        sized.reserve_span(0)         # no-op
        stream = [(a * 13) % (1 << 13) for a in range(200)]
        for addr in stream:
            assert plain.access(addr) == sized.access(addr)
        assert plain.stats == sized.stats
        assert _state_fingerprint(plain, stream) == \
            _state_fingerprint(sized, stream)


class TestPrefixGrowth:
    """Set matrices start small and grow on demand; behaviour must
    not depend on when (or whether) growth happens."""

    def test_high_set_then_low_set(self):
        # 4096 sets — well beyond the initial allocation
        c = SetAssociativeCache(1 << 20, line_bytes=128,
                                sector_bytes=32, ways=2, name="big")
        hi = 4000 * 128
        assert not c.access(hi)
        assert c.access(hi)
        assert not c.access(0)
        assert c.access(0)
        assert c.resident_bytes == 64

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1 << 22),
                    min_size=1, max_size=80))
    def test_large_cache_matches_scalar_reference(self, addrs):
        vec = SetAssociativeCache(1 << 20, line_bytes=128,
                                  sector_bytes=32, ways=2, name="big")
        ref = ScalarSetAssociativeCache(
            1 << 20, line_bytes=128, sector_bytes=32, ways=2,
            name="ref")
        for a in addrs:
            assert vec.access(a) == ref.access(a)
        assert vec.stats == ref.stats
        assert _state_fingerprint(vec, addrs) == \
            _state_fingerprint(ref, addrs)
