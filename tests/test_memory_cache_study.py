"""Tests: the detection methodology recovers the configured geometry."""

from __future__ import annotations

import pytest

from repro.memory.cache_study import CacheProbe


@pytest.fixture(scope="module")
def probe():
    from repro.arch import get_device
    return CacheProbe(get_device("H800"))


class TestCapacityDetection:
    def test_recovers_l1_size(self, probe):
        detected = probe.detect_l1_capacity()
        assert detected == probe.device.cache.l1_size_bytes

    def test_sweep_steps_up_past_capacity(self, probe):
        l1_kib = probe.device.cache.l1_size_kib
        sweep = probe.capacity_sweep([l1_kib // 2, l1_kib * 2],
                                     iters=512)
        assert sweep[l1_kib // 2] == pytest.approx(
            probe.device.mem_latencies.l1_hit_clk)
        assert sweep[l1_kib * 2] > 2 * sweep[l1_kib // 2]


class TestSectorDetection:
    def test_recovers_fill_granularity(self, probe):
        assert probe.detect_sector_bytes() == \
            probe.device.cache.sector_bytes

    def test_small_strides_amortize(self, probe):
        sweep = probe.stride_sweep([4, 32])
        # 8 accesses share a 32 B sector fill at stride 4
        assert sweep[4] < sweep[32] / 2


class TestAssociativityDetection:
    def test_recovers_ways(self, probe):
        assert probe.detect_l1_ways() == \
            probe.device.cache.l1_associativity

    def test_conflict_cliff(self, probe):
        ways = probe.device.cache.l1_associativity
        sweep = probe.conflict_sweep([ways, ways + 1])
        assert sweep[ways + 1] > 2 * sweep[ways]


class TestFullDetection:
    def test_detect_bundle(self, probe):
        params = probe.detect()
        geo = probe.device.cache
        assert params.l1_capacity_bytes == geo.l1_size_bytes
        assert params.l1_sector_bytes == geo.sector_bytes
        assert params.l1_ways == geo.l1_associativity

    def test_on_second_architecture(self):
        from repro.arch import get_device
        probe = CacheProbe(get_device("RTX4090"))
        assert probe.detect_l1_capacity() == \
            probe.device.cache.l1_size_bytes

