"""Tests for occupancy and block scheduling."""

from __future__ import annotations

import pytest

from repro.sm import (
    BlockConfig,
    KernelLaunch,
    occupancy,
    schedule_blocks,
)


class TestBlockConfig:
    def test_warps(self):
        assert BlockConfig(threads=64).warps == 2
        assert BlockConfig(threads=33).warps == 2
        assert BlockConfig(threads=1024).warps == 32

    def test_validation(self):
        with pytest.raises(ValueError):
            BlockConfig(threads=0)
        with pytest.raises(ValueError):
            BlockConfig(threads=2048)
        with pytest.raises(ValueError):
            BlockConfig(threads=64, smem_bytes=-1)


class TestOccupancy:
    def test_thread_limited(self, h800):
        occ = occupancy(h800, BlockConfig(threads=1024,
                                          regs_per_thread=16))
        assert occ.blocks_per_sm == 2
        assert occ.limiter == "threads"

    def test_block_limited(self, h800):
        occ = occupancy(h800, BlockConfig(threads=32,
                                          regs_per_thread=16))
        assert occ.blocks_per_sm == h800.max_blocks_per_sm
        assert occ.limiter == "blocks"

    def test_register_limited(self, h800):
        occ = occupancy(h800, BlockConfig(threads=256,
                                          regs_per_thread=255))
        assert occ.limiter == "registers"
        assert occ.blocks_per_sm == 65536 // (
            (255 * 32 + 255) // 256 * 256 * 8)

    def test_smem_limited(self, h800):
        occ = occupancy(h800, BlockConfig(threads=128, regs_per_thread=16,
                                          smem_bytes=100 * 1024))
        assert occ.limiter == "shared memory"
        assert occ.blocks_per_sm == 2

    def test_smem_too_large(self, h800):
        occ = occupancy(h800, BlockConfig(
            threads=128, smem_bytes=h800.cache.shared_max_kib * 1024 + 1))
        assert occ.blocks_per_sm == 0
        assert not occ.active

    def test_ada_lower_thread_budget(self, rtx4090):
        occ = occupancy(rtx4090, BlockConfig(threads=1024,
                                             regs_per_thread=16))
        assert occ.blocks_per_sm == 1  # 1536 // 1024

    def test_warps_per_sm(self, h800):
        cfg = BlockConfig(threads=256, regs_per_thread=16)
        occ = occupancy(h800, cfg)
        assert occ.warps_per_sm(cfg) == occ.blocks_per_sm * 8


class TestScheduler:
    def test_single_wave(self, h800):
        launch = KernelLaunch(h800.num_sms, BlockConfig(threads=1024))
        sched = schedule_blocks(h800, launch, blocks_per_sm_override=1)
        assert sched.waves == 1
        assert sched.utilization == 1.0

    def test_straggler_wave(self, h800):
        launch = KernelLaunch(h800.num_sms + 1, BlockConfig(threads=1024))
        sched = schedule_blocks(h800, launch, blocks_per_sm_override=1)
        assert sched.waves == 2
        assert sched.utilization == pytest.approx(
            (h800.num_sms + 1) / (2 * h800.num_sms))

    def test_sawtooth_shape(self, h800):
        def util(nb):
            return schedule_blocks(
                h800, KernelLaunch(nb, BlockConfig(threads=1024)),
                blocks_per_sm_override=1,
            ).utilization
        sms = h800.num_sms
        assert util(sms) == 1.0
        assert util(sms + 1) < 0.51
        assert util(2 * sms) == 1.0
        assert util(sms // 2) == pytest.approx(0.5)

    def test_cluster_granularity(self, h800):
        launch = KernelLaunch(32, BlockConfig(threads=1024),
                              cluster_size=8)
        sched = schedule_blocks(h800, launch, blocks_per_sm_override=1)
        assert sched.waves == 1

    def test_cluster_size_validation(self, h800, a100):
        with pytest.raises(ValueError, match="multiple of the cluster"):
            KernelLaunch(10, BlockConfig(threads=64), cluster_size=4)
        launch = KernelLaunch(32, BlockConfig(threads=64),
                              cluster_size=32)
        with pytest.raises(ValueError, match="exceeds"):
            schedule_blocks(h800, launch)

    def test_unrunnable_block_raises(self, h800):
        launch = KernelLaunch(1, BlockConfig(
            threads=128, smem_bytes=10 * 1024 * 1024))
        with pytest.raises(ValueError, match="cannot run"):
            schedule_blocks(h800, launch)

    def test_total_threads(self):
        launch = KernelLaunch(10, BlockConfig(threads=256))
        assert launch.total_threads == 2560
