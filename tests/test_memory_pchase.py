"""Tests for the P-chase latency benchmark (Table IV)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.arch import get_device
from repro.memory import CacheProbe, PChase, measure_latencies
from repro.memory.pchase import _chain, _coprime_stride

#: Table IV reference values
PAPER_TABLE4 = {
    "RTX4090": {"L1 Cache": 43.4, "Shared": 30.1, "L2 Cache": 273.0,
                "Global": 541.5},
    "A100": {"L1 Cache": 37.9, "Shared": 29.0, "L2 Cache": 261.5,
             "Global": 466.3},
    "H800": {"L1 Cache": 40.7, "Shared": 29.0, "L2 Cache": 263.0,
             "Global": 478.8},
}


class TestChain:
    def test_sequential_chain_visits_all(self):
        nxt = _chain(16)
        seen, idx = set(), 0
        for _ in range(16):
            seen.add(idx)
            idx = int(nxt[idx])
        assert seen == set(range(16))
        assert idx == 0  # closed cycle

    def test_random_chain_is_permutation_cycle(self):
        nxt = _chain(64, seed=42)
        seen, idx = set(), 0
        for _ in range(64):
            assert idx not in seen
            seen.add(idx)
            idx = int(nxt[idx])
        assert len(seen) == 64

    def test_too_small(self):
        with pytest.raises(ValueError):
            _chain(1)

    def test_strided_chain_visits_all(self):
        nxt = _chain(15, stride_entries=4)  # 4 is coprime with 15
        seen, idx = set(), 0
        for _ in range(15):
            seen.add(idx)
            idx = int(nxt[idx])
        assert seen == set(range(15))
        assert idx == 0

    def test_noncoprime_stride_adjusted_not_dropped(self):
        """A stride sharing a factor with n must not collapse to a
        sequential walk — it snaps to the nearest coprime stride and
        still visits every entry."""
        nxt = _chain(16, stride_entries=4)  # gcd 4 → adjusted
        seen, idx = set(), 0
        hops = []
        for _ in range(16):
            seen.add(idx)
            hops.append(idx)
            idx = int(nxt[idx])
        assert seen == set(range(16))
        # the walk kept its strided character (nearest coprime is 3)
        assert hops[1] == 3

    def test_coprime_stride_selection(self):
        assert _coprime_stride(16, 1) == 1
        assert _coprime_stride(16, 4) == 3   # tie prefers the smaller
        assert _coprime_stride(15, 6) == 7   # 5 shares a factor, 7 not
        assert _coprime_stride(12, 6) == 5

    def test_stride_below_one_rejected(self):
        with pytest.raises(ValueError, match="stride_entries"):
            _chain(16, stride_entries=0)


class TestPerLevelLatency:
    def test_l1(self, any_device):
        r = PChase(any_device).l1_latency(iters=256)
        assert r.hits_at_level == 1.0
        assert r.mean_latency_clk == pytest.approx(
            any_device.mem_latencies.l1_hit_clk, rel=1e-6)
        assert PChase(any_device).l1_latency(
            iters=2048).hits_at_level == 1.0

    def test_shared(self, any_device):
        r = PChase(any_device).shared_latency(iters=128)
        assert r.mean_latency_clk == pytest.approx(
            any_device.mem_latencies.shared_clk)

    def test_l2(self, any_device):
        r = PChase(any_device).l2_latency(array_kib=2048, iters=256)
        assert r.hits_at_level == 1.0
        assert r.mean_latency_clk == pytest.approx(
            any_device.mem_latencies.l2_hit_clk, rel=1e-6)
        assert PChase(any_device).l2_latency(
            array_kib=4096, iters=2048).hits_at_level == 1.0

    def test_l2_probe_must_fit(self, h800):
        with pytest.raises(ValueError, match="fit in L2"):
            PChase(h800).l2_latency(array_kib=h800.cache.l2_size_kib * 2)

    def test_global_capacity_misses(self, tiny_device):
        r = PChase(tiny_device).global_latency(iters=256)
        assert r.hits_at_level > 0.99
        assert r.mean_latency_clk == pytest.approx(
            tiny_device.mem_latencies.global_clk, rel=0.01)
        four_mib = tiny_device.with_overrides(
            cache=replace(tiny_device.cache, l2_size_kib=4096))
        assert PChase(four_mib).global_latency(
            iters=2048).hits_at_level > 0.99

    def test_cold_tlb_costs_more(self, tiny_device):
        p = PChase(tiny_device)
        warm = p.global_latency(iters=128).mean_latency_clk
        cold = p.global_latency_cold_tlb(iters=128).mean_latency_clk
        assert cold > warm + 100

    def test_cold_tlb_pays_exact_miss_penalty(self, tiny_device):
        """The cold chase strides one entry per page with no init
        pass, so within the first lap every hop misses L1, L2 *and*
        the TLB — the mean is exactly the DRAM service latency plus
        the full TLB-miss penalty (the regime the paper's warm-up
        initialisation exists to avoid, §III-A4)."""
        lat = tiny_device.mem_latencies
        r = PChase(tiny_device).global_latency_cold_tlb(iters=128)
        assert r.hits_at_level == 1.0   # every access served by DRAM
        assert r.mean_latency_clk == pytest.approx(
            lat.l2_hit_clk + lat.dram_clk + lat.tlb_miss_clk)


class TestTable4:
    @pytest.mark.parametrize("device_name", sorted(PAPER_TABLE4))
    def test_matches_paper(self, device_name):
        got = measure_latencies(get_device(device_name))
        for level, expect in PAPER_TABLE4[device_name].items():
            assert got[level] == pytest.approx(expect, rel=0.02), \
                (device_name, level)

    def test_paper_ratios(self):
        results = {d: measure_latencies(get_device(d))
                   for d in PAPER_TABLE4}
        l2_l1 = sum(r["L2 Cache"] / r["L1 Cache"]
                    for r in results.values()) / 3
        g_l2 = sum(r["Global"] / r["L2 Cache"]
                   for r in results.values()) / 3
        assert l2_l1 == pytest.approx(6.5, rel=0.1)
        assert g_l2 == pytest.approx(1.9, rel=0.1)


#: one registered device per architecture pack
PACK_DEVICES = ("V100", "RTX4090", "A100", "H800", "B200")

#: the paper's P-chase procedure (§III-A4): 2,048 iterations per probe,
#: the global probe over a buffer 1.25 × the device's real L2
PAPER_ITERS = 2048
PAPER_OVERFILL = 1.25
#: cache-geometry detection at paper scale: longer chases plus two
#: steady-state warm-up passes before every measured capacity loop
PAPER_PROBE_BUDGET = {"capacity_iters": 2048, "warmup_passes": 2,
                      "stride_iters": 1024, "conflict_iters": 1024}


@pytest.mark.parametrize("device_name", PACK_DEVICES)
class TestPaperProcedure:
    """The paper's procedure, kept as an executable spec.

    The shipped probes run shorter: :func:`measure_latencies` shrinks
    the L2 to 2 MiB and chases 256 iterations, and :class:`CacheProbe`
    runs :data:`~repro.memory.cache_study.PROBE_BUDGET`.  That is exact
    only while per-level latency does not depend on array size or
    iteration count; these tests fail the day it does.
    """

    def test_latencies_equal_the_paper_procedure(self, device_name):
        device = get_device(device_name)
        p = PChase(device)
        l2_kib = min(4096, device.cache.l2_size_kib // 2)
        paper = {
            "L1 Cache": p.l1_latency(iters=PAPER_ITERS),
            "Shared": p.shared_latency(iters=PAPER_ITERS),
            "L2 Cache": p.l2_latency(array_kib=l2_kib,
                                     iters=PAPER_ITERS),
            "Global": p.global_latency(iters=PAPER_ITERS,
                                       overfill=PAPER_OVERFILL),
        }
        assert {level: r.mean_latency_clk
                for level, r in paper.items()} == \
            measure_latencies(device)

    def test_detection_at_the_paper_budget(self, device_name):
        device = get_device(device_name)
        paper = CacheProbe(device)
        paper.budget = dict(PAPER_PROBE_BUDGET)
        assert paper.detect() == CacheProbe(device).detect()
