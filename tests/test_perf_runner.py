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


def _counted_square(x):
    """Counts ``x`` under its own name in the active session."""
    from repro.obs import session

    session.ACTIVE.counters.add(f"test.item.{x}", x + 1)
    return x * x


class TestWorkStealing:
    """parallel_imap: the one pool helper yields ``(fn(item), dump)``
    in input order, each dump holding only its own item's counters."""

    ITEMS = list(range(23))

    def test_parallel_imap_serial_is_input_order(self):
        from repro.perf import parallel_imap

        pairs = list(parallel_imap(_square, self.ITEMS, jobs=1))
        assert pairs == [(i * i, None) for i in self.ITEMS]

    def test_parallel_imap_fanned_covers_every_index(self):
        from repro.perf import parallel_imap

        pairs = list(parallel_imap(_square, self.ITEMS, jobs=3))
        assert pairs == [(i * i, None) for i in self.ITEMS]

    def test_unordered_map_matches_ordered(self):
        # workers finish in any order; the pairs still come back in
        # input order, dumps included, exactly as the serial loop
        from repro.obs import ObsSession
        from repro.perf import parallel_imap

        runs = {}
        for jobs in (1, 2):
            with ObsSession().activate():
                runs[jobs] = list(parallel_imap(_counted_square,
                                                self.ITEMS, jobs=jobs))
        assert runs[1] == runs[2]

    def test_session_dump_holds_only_its_item(self):
        from repro.obs import ObsSession
        from repro.perf import parallel_imap

        for jobs in (1, 2):
            outer = ObsSession()
            with outer.activate():
                pairs = list(parallel_imap(_counted_square, self.ITEMS,
                                           jobs=jobs))
            assert [out for out, _ in pairs] == \
                [i * i for i in self.ITEMS]
            for i, (_, dump) in enumerate(pairs):
                assert dump == {"counters": {f"test.item.{i}": i + 1},
                                "events": []}
            # the caller merges; nothing reached its bank directly
            assert not outer.counters

    def test_nested_session_traces_only_if_the_caller_does(self):
        from repro.obs import ObsSession, session
        from repro.perf import parallel_imap

        def traced(_x):
            return session.ACTIVE.tracer is not None

        for trace in (False, True):
            with ObsSession(trace=trace).activate():
                pairs = list(parallel_imap(traced, [0, 1], jobs=1))
            assert [out for out, _ in pairs] == [trace, trace]

    def test_empty_and_single_item_short_circuit(self):
        from repro.perf import parallel_imap

        assert list(parallel_imap(_square, [], jobs=4)) == []
        assert list(parallel_imap(_square, [7], jobs=4)) == [(49, None)]
