"""Engine-vs-scalar equivalence for the steady-state chase engine.

:class:`~repro.memory.chase.ChaseEngine` claims to be *exact*: any
periodic chase it runs — simulated laps, batched tails and
analytically extrapolated fixed-point laps alike — must produce the
same latency histogram, summed cycles, level counts, TLB hits and
state, ``CacheStats`` fields and observability counter bank as the scalar
one-``load()``-at-a-time loop it replaced.  This suite makes that
claim a property over random chains, strides, cache operators and
iteration budgets, and pins the :class:`~repro.memory.pchase.PChase`
probes against the hop-by-hop loops of ``ScalarPChase``
(``tests/reference.py``).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import get_device
from repro.isa.memory_ops import CacheOp
from repro.memory import MemoryHierarchy, PChase, pchase
from repro.memory.chase import (ChaseEngine, chase_total_clk,
                                latency_counts)
from repro.memory.pchase import _chain_order, measure_latencies
from repro.obs.session import ObsSession
from reference import ScalarPChase
from strategies import (
    cache_ops,
    chain_lengths,
    chase_iters,
    chase_seeds,
    chase_strides,
)


def _tiny_device():
    """An H800 with a 512 KiB L2 — over-capacity chases stay cheap."""
    h800 = get_device("H800")
    return h800.with_overrides(
        cache=replace(h800.cache, l2_size_kib=512)
    )


_TINY = _tiny_device()

#: strides giving line-grained, page-straddling and page-per-entry
#: walks (shared with the fuzzer's property strategies)
_STRIDES = chase_strides


def _scalar_chase(mh, seq, iters, *, size=32, cache_op=CacheOp.CACHE_ALL):
    """The executable spec: hop the periodic stream one load at a time."""
    lats = np.empty(iters)
    levels = {}
    tlb_hits = 0
    period = len(seq)
    for i in range(iters):
        r = mh.load(int(seq[i % period]), size, cache_op=cache_op)
        lats[i] = r.latency_clk
        levels[r.level] = levels.get(r.level, 0) + 1
        tlb_hits += r.tlb_hit
    return lats, levels, tlb_hits


_STAT_FIELDS = ("accesses", "hits", "sector_misses", "tag_misses",
                "evictions")


def _counter_bank(mh):
    """Every post-run counter a chase can influence, and the TLB
    state."""
    def fields(c):
        return tuple(getattr(c.stats, f) for f in _STAT_FIELDS)

    return (fields(mh.l1_for_sm(0)), fields(mh.l2),
            mh.tlb.state_digest())


def _stats_counters(mh):
    """The ``cache.*`` counters a hierarchy's ``CacheStats`` amount
    to: one key per non-zero field."""
    out = {}
    for level, cache in (("l1", mh.l1_for_sm(0)), ("l2", mh.l2)):
        for f in _STAT_FIELDS:
            if getattr(cache.stats, f):
                out[f"cache.{level}.{f}"] = getattr(cache.stats, f)
    return out


class TestEngineEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(n=chain_lengths(48),
           iters=chase_iters(400),
           seed=chase_seeds,
           stride=_STRIDES,
           op=cache_ops)
    def test_engine_matches_scalar_chase(self, n, iters, seed, stride,
                                         op):
        seq = _chain_order(n, seed=seed) * stride

        mh_v = MemoryHierarchy(_TINY)
        stats = ChaseEngine(mh_v, size=32, cache_op=op).run(seq, iters)

        mh_s = MemoryHierarchy(_TINY)
        lats, levels, tlb_hits = _scalar_chase(mh_s, seq, iters,
                                               cache_op=op)

        # outcomes: exact, including bit-equal summed cycles
        assert stats.latency_counts == latency_counts(lats)
        assert stats.total_latency_clk == \
            chase_total_clk(latency_counts(lats))
        assert stats.level_counts == levels
        assert stats.tlb_hits == tlb_hits
        assert stats.iters == iters
        assert stats.simulated + stats.extrapolated == iters
        # side effects: identical cache/TLB counter banks
        assert _counter_bank(mh_v) == _counter_bank(mh_s)

    @pytest.mark.parametrize("period", [8, 40])
    def test_extrapolated_chase_stays_exact(self, period):
        """Budgets far past the fixed point: most laps are accounted
        analytically, yet every number still equals the spec's."""
        seq = _chain_order(period) * 128
        mh_v = MemoryHierarchy(_TINY)
        stats = ChaseEngine(mh_v).run(seq, 5000)
        assert stats.extrapolated > 0

        mh_s = MemoryHierarchy(_TINY)
        lats, levels, tlb_hits = _scalar_chase(mh_s, seq, 5000)
        assert stats.latency_counts == latency_counts(lats)
        assert stats.level_counts == levels
        assert stats.tlb_hits == tlb_hits
        assert _counter_bank(mh_v) == _counter_bank(mh_s)

    @settings(max_examples=20, deadline=None)
    @given(n=chain_lengths(32),
           iters=st.integers(min_value=1, max_value=300)
           | st.sampled_from((2500, 4000)),
           seed=st.sampled_from((None, 7)),
           op=cache_ops)
    def test_obs_counter_bank_matches_scalar(self, n, iters, seed, op):
        """Under an active ObsSession the engine fires exactly the
        counters (and latency-histogram buckets — they share the
        namespace) the scalar loop fires, extrapolated laps included,
        and its ``cache.*`` counters are the caches' stats."""
        seq = _chain_order(n, seed=seed) * 128

        s_sess = ObsSession()
        with s_sess.activate():
            _scalar_chase(MemoryHierarchy(_TINY), seq, iters,
                          cache_op=op)

        v_sess = ObsSession()
        with v_sess.activate():
            mh = MemoryHierarchy(_TINY)
            stats = ChaseEngine(mh, cache_op=op).run(seq, iters)
        if iters >= 2500:
            assert stats.extrapolated > 0

        bank = v_sess.counters.as_dict()
        assert s_sess.counters.as_dict() == bank
        assert {k: v for k, v in bank.items()
                if k.startswith("cache.")} == _stats_counters(mh)

    def test_extrapolation_engages_on_long_chases(self):
        stats = ChaseEngine(MemoryHierarchy(_TINY)).run(
            _chain_order(64) * 128, 100_000)
        assert stats.extrapolated > 0
        assert stats.simulated + stats.extrapolated == 100_000
        assert sum(stats.latency_counts.values()) == 100_000
        assert sum(stats.level_counts.values()) == 100_000

    def test_zero_iters(self):
        stats = ChaseEngine(MemoryHierarchy(_TINY)).run([0, 128], 0)
        assert stats.iters == 0
        assert stats.latency_counts == {}
        assert stats.mean_latency_clk == 0.0

    def test_validation(self):
        engine = ChaseEngine(MemoryHierarchy(_TINY))
        with pytest.raises(ValueError):
            engine.run([], 10)
        with pytest.raises(ValueError):
            engine.run([0, 128], -1)


class TestPChaseEngineParity:
    """The public probes agree between the engine and the scalar
    reference loops — for sequential *and* seeded chains."""

    @pytest.mark.parametrize("seed", [None, 7])
    def test_per_level_probes_match_scalar(self, tiny_device, seed):
        probes = [
            ("l1_latency", dict(iters=256)),
            ("shared_latency", dict(iters=128)),
            ("l2_latency", dict(array_kib=256, iters=256)),
            ("global_latency", dict(iters=256)),
            ("global_latency_cold_tlb", dict(iters=128)),
        ]
        vec = PChase(tiny_device, seed=seed)
        ref = ScalarPChase(tiny_device, seed=seed)
        for method, kwargs in probes:
            v = getattr(vec, method)(**kwargs)
            s = getattr(ref, method)(**kwargs)
            assert v.mean_latency_clk == s.mean_latency_clk, method
            assert v.hits_at_level == s.hits_at_level, method
            assert v.accesses == s.accesses, method

    @pytest.mark.parametrize("seed", [None, 0])
    def test_measure_latencies_engine_parity(self, seed, monkeypatch):
        device = get_device("A100")
        engine = measure_latencies(device, seed=seed)
        monkeypatch.setattr(pchase, "PChase", ScalarPChase)
        assert measure_latencies(device, seed=seed) == engine
