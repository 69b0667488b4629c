"""Tests for memory-operation descriptors."""

from __future__ import annotations

import pytest

from repro.isa import CacheOp, TmaCopy


class TestCacheOp:
    def test_ca_allocates_both(self):
        assert CacheOp.CACHE_ALL.allocates_l1
        assert CacheOp.CACHE_ALL.allocates_l2

    def test_cg_bypasses_l1(self):
        assert not CacheOp.CACHE_GLOBAL.allocates_l1
        assert CacheOp.CACHE_GLOBAL.allocates_l2

    def test_volatile_bypasses_everything(self):
        assert not CacheOp.VOLATILE.allocates_l1
        assert not CacheOp.VOLATILE.allocates_l2


class TestTmaCopy:
    def test_valid(self):
        t = TmaCopy(tile_bytes=16384, dims=2)
        assert "bulk.tensor.2d" in t.opcode

    def test_multicast_marker(self):
        t = TmaCopy(tile_bytes=1024, multicast=True)
        assert "multicast::cluster" in t.opcode

    def test_validation(self):
        with pytest.raises(ValueError):
            TmaCopy(tile_bytes=0)
        with pytest.raises(ValueError):
            TmaCopy(tile_bytes=64, dims=6)
