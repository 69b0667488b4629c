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
    def test_validation(self):
        with pytest.raises(ValueError):
            TmaCopy(tile_bytes=0)
