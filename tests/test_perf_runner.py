"""Determinism and caching semantics of the parallel runner."""

from __future__ import annotations

from repro.core import list_experiments, run_all, run_experiment
from repro.perf import ResultCache, run_experiments

SUBSET = ["table03_devices", "table06_sass", "fig06_dpx_latency"]


def _renders(results):
    return {name: res.render() for name, res in results.items()}


class TestDeterminism:
    def test_parallel_full_suite_identical_to_serial(self):
        """The acceptance criterion: ``run_all(jobs=4)`` produces the
        same rendered tables and checks as the serial loop."""
        serial = run_all()
        parallel = run_all(jobs=4)
        assert list(parallel) == list(serial)
        assert _renders(parallel) == _renders(serial)

    def test_subset_order_is_request_order(self):
        report = run_experiments(SUBSET[::-1], jobs=2)
        assert list(report.results) == SUBSET[::-1]

    def test_subset_matches_run_experiment(self):
        report = run_experiments(SUBSET, jobs=2)
        for name in SUBSET:
            assert report.results[name].render() == \
                run_experiment(name).render()


class TestCachedRuns:
    def test_second_run_all_hits_and_matches(self, tmp_path):
        cache = ResultCache(tmp_path / "rc")
        first = run_experiments(SUBSET, cache=cache)
        warm = ResultCache(tmp_path / "rc")
        second = run_experiments(SUBSET, cache=warm)
        assert warm.stats.hits == len(SUBSET)
        assert warm.stats.misses == 0
        assert _renders(second.results) == _renders(first.results)
        assert all(t.cached for t in second.profiler.timings)

    def test_cache_shared_between_serial_and_parallel(self, tmp_path):
        run_experiments(SUBSET, jobs=2, cache=ResultCache(tmp_path / "rc"))
        warm = ResultCache(tmp_path / "rc")
        run_experiments(SUBSET, cache=warm)
        assert warm.stats.hits == len(SUBSET)

    def test_profiler_covers_every_experiment(self, tmp_path):
        report = run_experiments(SUBSET,
                                 cache=ResultCache(tmp_path / "rc"))
        assert [t.name for t in report.profiler.timings] == SUBSET
        assert report.profiler.cache_misses == len(SUBSET)
        assert report.passed


class TestValidation:
    def test_unknown_name_fails_fast(self):
        import pytest

        with pytest.raises(KeyError, match="nope"):
            run_experiments(["table99_nope"])

    def test_default_runs_everything(self, tmp_path):
        cache = ResultCache(tmp_path / "rc")
        report = run_experiments(cache=cache)
        assert list(report.results) == list_experiments()


def _square(x):
    """Module-level so the pool can pickle it."""
    return x * x


class TestWorkStealing:
    """parallel_imap / parallel_map: the work-stealing dispatch
    yields every indexed result exactly once and re-merges into input
    order."""

    ITEMS = list(range(23))

    def test_parallel_imap_serial_is_input_order(self):
        from repro.perf import parallel_imap

        pairs = list(parallel_imap(_square, self.ITEMS, jobs=1))
        assert pairs == [(i, i * i) for i in self.ITEMS]

    def test_parallel_imap_fanned_covers_every_index(self):
        from repro.perf import parallel_imap

        pairs = list(parallel_imap(_square, self.ITEMS, jobs=3))
        assert sorted(pairs) == [(i, i * i) for i in self.ITEMS]

    def test_unordered_map_matches_ordered(self):
        # completion order is arbitrary when fanned; the re-merge by
        # index must still match the serial loop exactly
        from repro.perf import parallel_map

        serial = parallel_map(_square, self.ITEMS, jobs=1)
        fanned = parallel_map(_square, self.ITEMS, jobs=2)
        assert fanned == serial == [i * i for i in self.ITEMS]

    def test_empty_and_single_item_short_circuit(self):
        from repro.perf import parallel_imap, parallel_map

        assert list(parallel_imap(_square, [], jobs=4)) == []
        assert parallel_map(_square, [7], jobs=4) == [49]
