"""Tests for the memory hierarchy façade, TLB and DRAM channel."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.isa.memory_ops import CacheOp
from repro.memory import DramChannel, MemLevel, MemoryHierarchy, Tlb
from repro.obs import ObsSession


class TestTlb:
    def test_miss_then_hit(self):
        t = Tlb(entries=4)
        assert not t.access(0)
        assert t.access(0)
        assert t.access(100)  # same 2 MiB page

    def test_lru_eviction(self):
        t = Tlb(entries=2, page_bytes=4096)
        t.access(0)
        t.access(4096)
        t.access(0)          # refresh page 0
        t.access(8192)       # evicts page 1
        assert t.access(0)
        assert not t.access(4096)

    def test_warm(self):
        t = Tlb(page_bytes=4096)
        t.warm(0, 3 * 4096)
        assert t.resident_pages == 3
        assert t.access(2 * 4096)

    def test_flush(self):
        t = Tlb()
        t.access(0)
        t.flush()
        assert t.resident_pages == 0
        assert not t.access(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Tlb(entries=0)


class TestTlbBatch:
    """``access_many`` is access-for-access identical to a sequential
    loop of ``access`` calls — hit bits and the LRU recency order (the
    full behavioural state) agree."""

    @settings(max_examples=60, deadline=None)
    @given(pages=st.lists(st.integers(min_value=0, max_value=12),
                          min_size=0, max_size=80),
           entries=st.integers(min_value=1, max_value=8))
    def test_access_many_matches_sequential(self, pages, entries):
        page_bytes = 4096
        addrs = [p * page_bytes + (p % 7) * 16 for p in pages]
        batched = Tlb(entries=entries, page_bytes=page_bytes)
        seq = Tlb(entries=entries, page_bytes=page_bytes)
        got = batched.access_many(np.asarray(addrs, dtype=np.int64))
        want = [seq.access(a) for a in addrs]
        assert got.tolist() == want
        assert batched.state_digest() == seq.state_digest()
        assert batched.resident_pages == seq.resident_pages

    def test_all_resident_batch_updates_recency(self):
        """The all-hit fast path must still move touched pages to the
        MRU end (by last occurrence), or a later eviction would pick
        the wrong victim."""
        t = Tlb(entries=2, page_bytes=4096)
        t.access(0)
        t.access(4096)
        hits = t.access_many(np.asarray([0, 4096, 0]))
        assert hits.all()
        t.access(2 * 4096)           # evicts the LRU page: page 1
        assert t.access(0)
        assert not t.access(4096)

    def test_all_resident_runs_recur(self):
        """All pages resident, each recurring in runs that are not
        adjacent: recency follows every page's *last* run (3, 1, 0, 2
        here), not its first run or its first access."""
        page_bytes = 4096
        batched = Tlb(entries=4, page_bytes=page_bytes)
        seq = Tlb(entries=4, page_bytes=page_bytes)
        for t in (batched, seq):
            t.warm(0, 4 * page_bytes)
        pages = [0, 0, 1, 2, 2, 0, 3, 3, 1, 1, 0, 2]
        addrs = [p * page_bytes + 8 * i for i, p in enumerate(pages)]
        got = batched.access_many(np.asarray(addrs, dtype=np.int64))
        assert got.all()
        assert got.tolist() == [seq.access(a) for a in addrs]
        assert batched.state_digest() == seq.state_digest()
        assert list(batched._pages) == [3, 1, 0, 2]

    def test_empty_batch(self):
        t = Tlb()
        assert len(t.access_many(np.asarray([], dtype=np.int64))) == 0
        assert t.resident_pages == 0


class TestInitPass:
    def test_global_probe_init_pass_matches_scalar_loads(self,
                                                         tiny_device):
        """The over-L2 initialisation pass of the global P-chase probe
        — one access per line into empty caches, the closed-form
        fill's shape — fires the same counters (``mem.*``,
        ``cache.l1.*``, ``cache.l2.*``) and leaves the same TLB state
        and cache statistics as a scalar ``load()`` loop."""
        size = int(tiny_device.cache.l2_size_bytes * 1.25)
        addrs = np.arange(size // 128, dtype=np.int64) * 128

        def init_pass(batched: bool):
            session = ObsSession()
            with session.activate():
                mh = MemoryHierarchy(tiny_device)
                mh.warm_tlb(0, size)
                if batched:
                    mh.load_many(addrs, 32)
                else:
                    for a in addrs.tolist():
                        mh.load(a, 32)
            return (session.counters.as_dict(), mh.tlb.state_digest(),
                    mh.l1_for_sm(0).stats, mh.l2.stats)

        batched = init_pass(True)
        assert batched == init_pass(False)
        counters = batched[0]
        assert counters["mem.loads"] == len(addrs)
        assert counters["cache.l2.evictions"] > 0


class TestDramChannel:
    def test_capacity(self, h800):
        ch = DramChannel.for_device(h800)
        assert ch.capacity_bytes == 80 * 2 ** 30
        assert ch.fits(70 * 2 ** 30)
        assert not ch.fits(90 * 2 ** 30)

    def test_transfer_time(self, a100):
        ch = DramChannel.for_device(a100)
        t = ch.transfer_time_s(ch.sustained_bandwidth_gbps() * 1e9)
        assert t == pytest.approx(1.0)
        with pytest.raises(ValueError):
            ch.transfer_time_s(-1)

    def test_sustained_below_peak(self, any_device):
        ch = DramChannel.for_device(any_device)
        assert ch.sustained_bandwidth_gbps() < ch.peak_bandwidth_gbps


class TestHierarchyRouting:
    def test_ca_load_fills_l1(self, tiny_device):
        mh = MemoryHierarchy(tiny_device)
        first = mh.load(0, cache_op=CacheOp.CACHE_ALL)
        assert first.level is MemLevel.GLOBAL
        second = mh.load(0, cache_op=CacheOp.CACHE_ALL)
        assert second.level is MemLevel.L1
        assert second.latency_clk == \
            tiny_device.mem_latencies.l1_hit_clk

    def test_cg_load_bypasses_l1(self, tiny_device):
        mh = MemoryHierarchy(tiny_device)
        mh.load(0, cache_op=CacheOp.CACHE_GLOBAL)
        second = mh.load(0, cache_op=CacheOp.CACHE_GLOBAL)
        assert second.level is MemLevel.L2
        assert second.latency_clk == \
            tiny_device.mem_latencies.l2_hit_clk
        # and L1 was never filled
        third = mh.load(0, cache_op=CacheOp.CACHE_ALL)
        assert third.level is MemLevel.L2

    def test_global_latency_includes_dram(self, tiny_device):
        mh = MemoryHierarchy(tiny_device)
        mh.warm_tlb(0, 1 << 20)
        res = mh.load(0)
        lat = tiny_device.mem_latencies
        assert res.latency_clk == pytest.approx(
            lat.l2_hit_clk + lat.dram_clk)

    def test_cold_tlb_penalty(self, tiny_device):
        mh = MemoryHierarchy(tiny_device)
        cold = mh.load(0)
        mh.flush()
        mh.warm_tlb(0, 4096)
        warm = mh.load(0)
        assert cold.latency_clk - warm.latency_clk == pytest.approx(
            tiny_device.mem_latencies.tlb_miss_clk)
        assert not cold.tlb_hit and warm.tlb_hit

    def test_per_sm_l1_isolation(self, tiny_device):
        mh = MemoryHierarchy(tiny_device)
        mh.warm_l1(0, 0, 4096)
        # SM 1's L1 is cold → but L2 was warmed, so it hits L2
        res = mh.load(0, sm_id=1)
        assert res.level is MemLevel.L2

    def test_sm_id_validated(self, tiny_device):
        mh = MemoryHierarchy(tiny_device)
        with pytest.raises(ValueError):
            mh.l1_for_sm(tiny_device.num_sms)

    def test_negative_address_rejected(self, tiny_device):
        mh = MemoryHierarchy(tiny_device)
        with pytest.raises(ValueError):
            mh.load(-8)

    def test_flush_resets_everything(self, tiny_device):
        mh = MemoryHierarchy(tiny_device)
        mh.warm_l1(0, 0, 4096)
        mh.flush()
        res = mh.load(0)
        assert res.level is MemLevel.GLOBAL
