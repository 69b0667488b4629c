"""Tests for the DPX dynamic-programming library."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import get_device
from repro.dp import (
    FloydWarshall,
    NeedlemanWunsch,
    SmithWaterman,
    estimate_kernel_time,
)
from repro.dp.graph import INF
from reference import reference_needleman_wunsch, reference_smith_waterman

_DNA = st.text(alphabet="ACGT", min_size=1, max_size=24)


class TestSmithWaterman:
    def test_identical_sequences(self):
        sw = SmithWaterman(match=3, mismatch=-2, gap=4)
        assert sw.score("ACGT", "ACGT") == 12

    def test_disjoint_sequences(self):
        sw = SmithWaterman()
        # no positive-scoring local alignment exists
        assert sw.score("AAAA", "TTTT") == 0

    def test_embedded_motif(self):
        sw = SmithWaterman(match=2, mismatch=-3, gap=5)
        assert sw.score("TTTTACGTACGTTTTT", "GGACGTACGGG") >= 2 * 8 - 5

    def test_matrix_and_accounting(self):
        sw = SmithWaterman()
        res = sw.align("ACGT", "ACG", keep_matrix=True)
        assert res.matrix.shape == (5, 4)
        assert res.cells == 12
        assert res.dpx_calls == 2 * res.cells
        assert res.dpx_calls_per_cell == 2.0

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            SmithWaterman().score("", "ACGT")

    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            SmithWaterman(gap=-1)

    @settings(max_examples=60, deadline=None)
    @given(_DNA, _DNA)
    def test_matches_reference(self, a, b):
        assert SmithWaterman().score(a, b) \
            == reference_smith_waterman(a, b)

    @settings(max_examples=40, deadline=None)
    @given(_DNA, _DNA)
    def test_symmetric(self, a, b):
        sw = SmithWaterman()
        assert sw.score(a, b) == sw.score(b, a)

    @settings(max_examples=40, deadline=None)
    @given(_DNA)
    def test_self_alignment_is_max(self, a):
        sw = SmithWaterman(match=3, mismatch=-2, gap=4)
        assert sw.score(a, a) == 3 * len(a)


class TestNeedlemanWunsch:
    def test_identical(self):
        nw = NeedlemanWunsch(match=1, mismatch=-1, gap=1)
        assert nw.score("GATTACA", "GATTACA") == 7

    def test_pure_gap_cost(self):
        nw = NeedlemanWunsch(match=1, mismatch=-1, gap=2)
        # aligning X against XYY forces two gaps
        assert nw.score("A", "AGG") == 1 - 2 * 2

    def test_global_can_be_negative(self):
        nw = NeedlemanWunsch(match=1, mismatch=-1, gap=1)
        assert nw.score("AAAA", "TTTT") < 0

    @settings(max_examples=60, deadline=None)
    @given(_DNA, _DNA)
    def test_matches_reference(self, a, b):
        assert NeedlemanWunsch().score(a, b) \
            == reference_needleman_wunsch(a, b)

    @settings(max_examples=40, deadline=None)
    @given(_DNA, _DNA)
    def test_local_at_least_global_when_nonneg(self, a, b):
        # SW ≥ max(0, NW): dropping prefixes/suffixes never hurts
        sw = SmithWaterman().score(a, b)
        nw = NeedlemanWunsch().score(a, b)
        assert sw >= max(0, nw)


class TestFloydWarshall:
    def _reference(self, w):
        n = w.shape[0]
        d = np.minimum(w.astype(np.float64), INF)
        np.fill_diagonal(d, 0)
        for k in range(n):
            d = np.minimum(d, d[:, k][:, None] + d[k, :][None, :])
        return d

    def test_path_through_intermediate(self):
        w = FloydWarshall.from_edges(3, [(0, 1, 2), (1, 2, 3)])
        res = FloydWarshall().run(w)
        assert res.distance(0, 2) == 5
        assert res.distance(2, 0) == 5
        assert res.distance(0, 0) == 0

    def test_unreachable(self):
        w = FloydWarshall.from_edges(3, [(0, 1, 1)])
        res = FloydWarshall().run(w)
        assert res.distance(0, 2) is None

    def test_parallel_edges_take_min(self):
        w = FloydWarshall.from_edges(2, [(0, 1, 9), (0, 1, 4)])
        assert FloydWarshall().run(w).distance(0, 1) == 4

    def test_dpx_call_count(self):
        w = FloydWarshall.from_edges(4, [(0, 1, 1)])
        res = FloydWarshall().run(w)
        assert res.dpx_calls == 4 ** 3

    def test_validation(self):
        fw = FloydWarshall()
        with pytest.raises(ValueError):
            fw.run(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            fw.run(np.array([[0, -1], [1, 0]]))
        with pytest.raises(ValueError):
            FloydWarshall.from_edges(2, [(0, 1, -5)])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 8), st.data())
    def test_matches_reference(self, n, data):
        rng_edges = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                      st.integers(0, 50)),
            max_size=20))
        w = FloydWarshall.from_edges(n, rng_edges)
        got = FloydWarshall().run(w).distances
        ref = self._reference(w)
        assert np.array_equal(np.minimum(got, INF), np.minimum(ref,
                                                               INF))

    def test_against_networkx(self):
        nx = pytest.importorskip("networkx")
        g = nx.gnm_random_graph(12, 30, seed=3)
        for u, v in g.edges:
            g[u][v]["weight"] = (u * v) % 7 + 1
        w = FloydWarshall.from_edges(
            12, [(u, v, g[u][v]["weight"]) for u, v in g.edges])
        res = FloydWarshall().run(w)
        ref = dict(nx.all_pairs_dijkstra_path_length(g))
        for u in range(12):
            for v in range(12):
                expect = ref[u].get(v)
                assert res.distance(u, v) == expect


class TestKernelCost:
    def test_hopper_faster(self):
        calls = 10 ** 6
        h = estimate_kernel_time(get_device("H800"), calls)
        a = estimate_kernel_time(get_device("A100"), calls)
        assert h.hardware_dpx and not a.hardware_dpx
        # fused relu op: ~3.7× device-level speedup (hw 1 instr vs
        # 3-instruction emulation, plus clocks)
        assert h.seconds < a.seconds / 3

    def test_zero_calls(self):
        e = estimate_kernel_time(get_device("H800"), 0)
        assert e.seconds == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_kernel_time(get_device("H800"), -1)
        with pytest.raises(ValueError):
            estimate_kernel_time(get_device("H800"), 10,
                                 utilization=0.0)
