"""Tests for the counter bank (repro.obs.counters)."""

from __future__ import annotations

import json

import pytest

from repro.obs.counters import (
    CounterSet,
    bucket_bound,
    bucket_label,
    counter_sort_key,
    split_bucket,
)


class TestCounterSet:
    def test_add_and_get(self):
        c = CounterSet()
        c.add("cache.l1.hits")
        c.add("cache.l1.hits", 41)
        assert c.get("cache.l1.hits") == 42
        assert c.get("missing") == 0
        assert c.get("missing", -1) == -1

    def test_integers_only(self):
        c = CounterSet()
        c.add("x", 2.9)            # floats truncate, never accumulate
        assert c.get("x") == 2
        assert isinstance(c.get("x"), int)

    def test_total_prefix(self):
        c = CounterSet()
        c.add("cache.l1.hits", 3)
        c.add("cache.l1.tag_misses", 2)
        c.add("cache.l2.hits", 7)
        assert c.total("cache.l1.") == 5
        assert c.total("cache.") == 12

    def test_items_sorted(self):
        c = CounterSet()
        c.add("zz")
        c.add("aa")
        assert [k for k, _ in c.items()] == ["aa", "zz"]

    def test_dump_canonical(self):
        a = CounterSet()
        a.add("b", 1)
        a.add("a", 2)
        b = CounterSet()
        b.add("a", 2)
        b.add("b", 1)
        assert a.dump() == b.dump()
        assert json.loads(a.dump()) == {"a": 2, "b": 1}

    def test_merge_order_invariant(self):
        deltas = [{"x": 1, "y": 5}, {"x": 3}, {"y": 2, "z": 9}]
        fwd = CounterSet()
        for d in deltas:
            fwd.merge(d)
        rev = CounterSet()
        for d in reversed(deltas):
            rev.merge(d)
        assert fwd.dump() == rev.dump()

    def test_merge_counterset(self):
        a = CounterSet()
        a.add("x", 2)
        b = CounterSet()
        b.add("x", 3)
        a.merge(b)
        assert a.get("x") == 5

    def test_bool_len_clear(self):
        c = CounterSet()
        assert not c and len(c) == 0
        c.add("x")
        assert c and len(c) == 1
        c.clear()
        assert not c


class TestHistogramBuckets:
    @pytest.mark.parametrize("value,bound", [
        (0, 1), (1, 1), (2, 2), (3, 4), (4, 4), (5, 8),
        (4.5, 8), (6.5, 8), (128, 128), (129, 256), (1000, 1024),
    ])
    def test_bucket_bound(self, value, bound):
        assert bucket_bound(value) == bound

    def test_bucket_label_zero_padded(self):
        assert bucket_label("lat", 300) == "lat.le00000512"


class TestBucketDumpOrdering:
    """Dumps must list histogram buckets in *numeric* bound order.

    Zero-padded labels only sort numerically up to eight digits; a
    chase that spends 2^27+ cycles in a bucket used to land after the
    2^30 bucket in every dump.  This pins the numeric ordering.
    """

    def test_split_bucket(self):
        assert split_bucket("mem.latency.l2.le00000512") \
            == ("mem.latency.l2", 512)
        assert split_bucket("mem.latency.l2.le134217728") \
            == ("mem.latency.l2", 134217728)
        assert split_bucket("mem.loads") == ("mem.loads", None)
        assert split_bucket("dsm.hops") == ("dsm.hops", None)

    def test_deep_tail_buckets_sort_numerically(self):
        c = CounterSet()
        c.observe("lat", 2 ** 30)      # lat.le1073741824
        c.observe("lat", 2 ** 27)      # lat.le134217728
        c.observe("lat", 300)          # lat.le00000512
        names = [k for k, _ in c.items()]
        assert names == ["lat.le00000512", "lat.le134217728",
                         "lat.le1073741824"]
        # the lexicographic order this replaces is provably wrong here
        assert names != sorted(names)

    def test_dump_preserves_numeric_order(self):
        c = CounterSet()
        c.add("lat.le1073741824", 1)
        c.add("lat.le00000256", 2)
        c.add("lat.le134217728", 3)
        assert list(json.loads(c.dump())) == [
            "lat.le00000256", "lat.le134217728", "lat.le1073741824"]

    def test_plain_names_keep_string_order(self):
        c = CounterSet()
        for name in ("zz", "aa", "mm.le", "mm.lex"):
            c.add(name)
        assert [k for k, _ in c.items()] == ["aa", "mm.le", "mm.lex",
                                             "zz"]

    def test_sort_key_matches_lexical_below_1e8(self):
        names = ["a.le00000001", "a.le00000512", "a.le00099999",
                 "a", "a.lex", "b", "mem.latency.l2.le00000064"]
        assert sorted(names) == sorted(names, key=counter_sort_key)

    def test_renderer_uses_numeric_order(self):
        from repro.obs import ObsSession

        session = ObsSession()
        session.counters.observe("lat", 2 ** 30)
        session.counters.observe("lat", 2 ** 27)
        rendered = session.render_counters()
        assert rendered.index("lat.le134217728") \
            < rendered.index("lat.le1073741824")

