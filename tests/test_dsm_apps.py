"""Tests for the RBC benchmark (Fig 8) and DSM histogram (Fig 9)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.dsm import (
    DsmHistogram,
    HistogramConfig,
    RingCopyBenchmark,
)


class TestRingCopy:
    def test_functional_ring(self, h800):
        rbc = RingCopyBenchmark(h800)
        for cs in (2, 3, 8):
            assert rbc.run_functional(cluster_size=cs, threads=16)
        assert rbc.run_functional(8, 64)

    def test_peak_matches_paper(self, h800):
        peak = RingCopyBenchmark(h800).peak_tbps()
        assert peak == pytest.approx(3.27, rel=0.05)

    def test_cluster_scaling_shape(self, h800):
        rbc = RingCopyBenchmark(h800)
        best = {cs: rbc.measure(cluster_size=cs, block_threads=1024,
                                ilp=8).aggregate_tbps
                for cs in (2, 4, 8, 16)}
        assert best[2] > best[4] > best[8] > best[16]
        assert best[4] == pytest.approx(2.65, rel=0.08)

    def test_ilp_helps_until_saturation(self, h800):
        rbc = RingCopyBenchmark(h800)
        vals = [rbc.measure(cluster_size=2, block_threads=128,
                            ilp=ilp).aggregate_tbps
                for ilp in (1, 2, 4, 8)]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] > 2 * vals[0]

    def test_latency_bound_flag(self, h800):
        rbc = RingCopyBenchmark(h800)
        assert rbc.measure(cluster_size=2, block_threads=64,
                           ilp=1).latency_bound
        assert not rbc.measure(cluster_size=2, block_threads=1024,
                               ilp=8).latency_bound

    def test_block_size_validation(self, h800):
        with pytest.raises(ValueError):
            RingCopyBenchmark(h800).measure(cluster_size=2,
                                            block_threads=16, ilp=1)

    def test_sweep_covers_grid(self, h800):
        res = RingCopyBenchmark(h800).sweep(
            cluster_sizes=(2, 4), block_threads=(128, 1024),
            ilps=(1, 4))
        assert len(res) == 8
        assert len(RingCopyBenchmark(h800).sweep()) == 4 * 4 * 4


class TestHistogramFunctional:
    @pytest.mark.parametrize("cs", [1, 2, 4])
    def test_counts_match_bincount(self, h800, cs):
        hist = DsmHistogram(h800)
        rng = np.random.default_rng(cs)
        data = rng.integers(0, 256, 1500)
        counts = hist.compute(data, HistogramConfig(256, cs))
        assert np.array_equal(counts,
                              np.bincount(data, minlength=256))
        data = rng.integers(0, 1024, 5000)
        counts = hist.compute(data, HistogramConfig(1024, cs, 128))
        assert counts.sum() == 5000

    def test_remote_traffic_fraction(self, h800):
        hist = DsmHistogram(h800)
        data = np.arange(512) % 512
        cfg = HistogramConfig(512, 4)
        hist.compute(data, cfg)
        # with uniform data ~3/4 of increments cross blocks
        assert cfg.remote_fraction == 0.75

    def test_rejects_out_of_range(self, h800):
        hist = DsmHistogram(h800)
        with pytest.raises(ValueError):
            hist.compute(np.array([300]), HistogramConfig(256, 2))

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.integers(0, 63), min_size=1, max_size=300),
           st.sampled_from([1, 2, 4, 8]))
    def test_property_counts(self, values, cs):
        from repro.arch import get_device
        hist = DsmHistogram(get_device("H800"))
        data = np.array(values)
        counts = hist.compute(data, HistogramConfig(64, cs))
        assert counts.sum() == len(values)
        assert np.array_equal(counts, np.bincount(data, minlength=64))


class TestHistogramTiming:
    def test_cs1_drop_at_large_nbins(self, h800):
        hist = DsmHistogram(h800)
        t1024 = hist.measure(HistogramConfig(1024, 1, 512))
        t2048 = hist.measure(HistogramConfig(2048, 1, 512))
        assert t2048.elements_per_second \
            < 0.6 * t1024.elements_per_second
        assert t2048.limiter == "latency"

    def test_clustering_restores_throughput(self, h800):
        hist = DsmHistogram(h800)
        cs1 = hist.measure(HistogramConfig(2048, 1, 512))
        cs2 = hist.measure(HistogramConfig(2048, 2, 512))
        assert cs2.elements_per_second > 1.5 * cs1.elements_per_second

    def test_resident_blocks_shrink_with_bins(self, h800):
        hist = DsmHistogram(h800)
        many = hist.resident_blocks(HistogramConfig(256, 1, 128))
        few = hist.resident_blocks(HistogramConfig(4096, 1, 128))
        assert few < many
        assert len(hist.sweep()) == 5 * 4 * 2

    def test_network_limits_large_clusters(self, h800):
        hist = DsmHistogram(h800)
        r = hist.measure(HistogramConfig(256, 16, 512))
        assert r.limiter == "SM-to-SM network"

    def test_smem_per_block_partitioned(self):
        cfg1 = HistogramConfig(2048, 1, 128)
        cfg4 = HistogramConfig(2048, 4, 128)
        assert cfg4.smem_bytes_per_block \
            == cfg1.smem_bytes_per_block // 4

    def test_validation(self):
        with pytest.raises(ValueError):
            HistogramConfig(1, 1)
        with pytest.raises(ValueError):
            HistogramConfig(64, 0)
        with pytest.raises(ValueError):
            HistogramConfig(64, 1, block_threads=16)
