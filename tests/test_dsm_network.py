"""Tests for the SM-to-SM network and cluster machinery."""

from __future__ import annotations

import numpy as np
import pytest

from repro.dsm import Cluster, SmToSmNetwork
from repro.isa.lowering import UnsupportedInstruction
from repro.obs import ObsSession


class TestNetwork:
    def test_hopper_only(self, a100, rtx4090, h800):
        SmToSmNetwork(h800)
        for d in (a100, rtx4090):
            with pytest.raises(UnsupportedInstruction):
                SmToSmNetwork(d)

    def test_latency_and_l2_comparison(self, h800):
        net = SmToSmNetwork(h800)
        assert net.latency_clk == 180.0
        assert net.latency_vs_l2 == pytest.approx(0.32, abs=0.01)

    def test_contention_decreases_bandwidth(self, h800):
        net = SmToSmNetwork(h800)
        bws = [net.effective_bytes_per_clk_sm(cs)
               for cs in (2, 4, 8, 16)]
        assert all(a > b for a, b in zip(bws, bws[1:]))

    def test_cluster_of_one_has_no_remote_bw(self, h800):
        assert SmToSmNetwork(h800).effective_bytes_per_clk_sm(1) == 0.0

    def test_cluster_size_bounds(self, h800):
        net = SmToSmNetwork(h800)
        with pytest.raises(ValueError):
            net.effective_bytes_per_clk_sm(0)
        with pytest.raises(ValueError, match="exceeds"):
            net.effective_bytes_per_clk_sm(17)

    def test_littles_law_injection(self, h800):
        net = SmToSmNetwork(h800)
        one = net.latency_bound_bytes_per_clk(warps=1, ilp=1)
        assert one == pytest.approx(128 / 180)
        assert net.latency_bound_bytes_per_clk(warps=4, ilp=2) \
            == pytest.approx(8 * one)
        with pytest.raises(ValueError):
            net.latency_bound_bytes_per_clk(warps=0, ilp=1)

    def test_aggregate_units(self, h800):
        net = SmToSmNetwork(h800)
        tbps = net.aggregate_bandwidth_tbps(2)
        per_sm = net.effective_bytes_per_clk_sm(2)
        assert tbps == pytest.approx(
            per_sm * h800.num_sms * h800.clocks.observed_hz / 1e12)


class TestCluster:
    def test_local_and_remote_handles(self, h800):
        c = Cluster(h800, cluster_size=4, smem_bytes_per_block=256)
        local = c.map_shared_rank(0, 0)
        remote = c.map_shared_rank(0, 2)
        assert not local.remote
        assert remote.remote

    def test_remote_write_lands_in_target_block(self, h800):
        c = Cluster(h800, cluster_size=4, smem_bytes_per_block=64)
        c.map_shared_rank(1, 3).write_u32(0, 777)
        assert c.block_smem(3).read_u32(0) == 777
        assert c.block_smem(1).read_u32(0) == 0

    def test_remote_atomic(self, h800):
        c = Cluster(h800, cluster_size=2, smem_bytes_per_block=16)
        h = c.map_shared_rank(0, 1)
        assert h.atomic_add_u32(4, 2) == 0
        assert h.atomic_add_u32(4, 3) == 2
        assert c.block_smem(1).read_u32(4) == 5

    def test_access_accounting(self, h800):
        c = Cluster(h800, cluster_size=2, smem_bytes_per_block=16)
        c.map_shared_rank(0, 0).read_u32(0)
        c.map_shared_rank(0, 1).read_u32(0)
        assert c.local_accesses == 1
        assert c.remote_accesses == 1
        # remote access costs the 180-cycle network trip
        assert c.access_cycles == pytest.approx(
            h800.mem_latencies.shared_clk + 180.0)
        c.reset_stats()
        assert c.total_accesses == 0

    def test_counts_into_the_session_active_when_it_accesses(self, h800):
        # built with no session, accessed inside one: the 180-cycle
        # remote trip lands in the 256 bucket
        c = Cluster(h800, cluster_size=2, smem_bytes_per_block=4096)
        session = ObsSession()
        with session.activate():
            c.map_shared_rank(0, 1).atomic_add_u32(0)
        assert session.counters.as_dict() == {
            "dsm.bytes.remote": 4, "dsm.hops": 1,
            "dsm.latency.remote.le00000256": 1}

    def test_an_ended_session_counts_nothing_more(self, h800):
        session = ObsSession()
        with session.activate():
            c = Cluster(h800, cluster_size=2, smem_bytes_per_block=4096)
            c.map_shared_rank(0, 1).atomic_add_u32(0)
        counted = session.counters.as_dict()
        c.map_shared_rank(0, 1).atomic_add_u32(0)
        c.map_shared_rank(0, 0).read_u32(0)
        assert counted and session.counters.as_dict() == counted

    def test_bulk_read_write(self, h800):
        c = Cluster(h800, cluster_size=2, smem_bytes_per_block=64)
        payload = np.arange(8, dtype=np.uint32)
        c.map_shared_rank(0, 1).write(0, payload)
        back = c.map_shared_rank(1, 1).read(0, 32).view(np.uint32)
        assert np.array_equal(back, payload)

    def test_rank_validation(self, h800):
        c = Cluster(h800, cluster_size=2, smem_bytes_per_block=16)
        with pytest.raises(IndexError):
            c.map_shared_rank(0, 2)
        with pytest.raises(IndexError):
            c.map_shared_rank(-1, 0)
        with pytest.raises(IndexError):
            c.block_smem(5)

    def test_cluster_size_validation(self, h800):
        with pytest.raises(ValueError):
            Cluster(h800, cluster_size=17, smem_bytes_per_block=64)
        with pytest.raises(ValueError):
            Cluster(h800, cluster_size=2, smem_bytes_per_block=0)
        with pytest.raises(ValueError, match="exceeds"):
            Cluster(h800, cluster_size=2,
                    smem_bytes_per_block=300 * 1024)
