"""Tests for the result cache and the ``--profile`` table."""

from __future__ import annotations

from repro.core import run_experiment
from repro.perf import Profiler, ResultCache

EXP = "table03_devices"


class TestResultCache:
    def test_miss_then_hit_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path / "rc")
        assert cache.get(EXP) is None
        res = run_experiment(EXP)
        cache.put(EXP, res)
        got = cache.get(EXP)
        assert got is not None
        assert got.render() == res.render()
        assert got.experiment is res.experiment
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "rc")
        cache.put(EXP, run_experiment(EXP))
        cache.path_for(EXP).write_bytes(b"not a pickle")
        assert cache.get(EXP) is None

    def test_truncated_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path / "rc")
        cache.put(EXP, run_experiment(EXP))
        path = cache.path_for(EXP)
        path.write_bytes(path.read_bytes()[:10])
        assert cache.get(EXP) is None

    def test_keys_separate_experiments(self, tmp_path):
        cache = ResultCache(tmp_path / "rc")
        cache.put(EXP, run_experiment(EXP))
        assert cache.get("table06_sass") is None

    def test_default_root_honours_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOPPERDISSECT_CACHE_DIR",
                           str(tmp_path / "from-env"))
        cache = ResultCache()
        cache.put(EXP, run_experiment(EXP))
        assert (tmp_path / "from-env").is_dir()

    def test_clear(self, tmp_path):
        cache = ResultCache(tmp_path / "rc")
        cache.put(EXP, run_experiment(EXP))
        assert cache.clear() == 1
        assert cache.get(EXP) is None


def _profiler() -> Profiler:
    p = Profiler(jobs=2)
    p.add("exp_a", 0.5)
    p.add("exp_b", 0.001, cached=True)
    p.cache_hits, p.cache_misses = 1, 1
    return p


class TestBenchJson:
    def test_render_mentions_cache(self):
        out = _profiler().render()
        assert "exp_a" in out and "cache" in out
        assert "1 cached" in out


class TestDependencyCutKeys:
    """The cache invalidates on the builder's transitive imports, not
    the whole tree."""

    def _edit(self, monkeypatch, module_path_suffix):
        """Make _read_source see one module's source as edited."""
        from repro.perf import cache as cmod

        real = cmod._read_source

        def patched(path):
            data = real(path)
            if str(path).endswith(module_path_suffix):
                return data + b"\n# edited\n"
            return data

        monkeypatch.setattr(cmod, "_read_source", patched)

    def test_te_edit_keeps_memory_experiments_warm(self, tmp_path,
                                                   monkeypatch):
        from repro.perf import ResultCache

        cache = ResultCache(tmp_path / "rc")
        cache.put("table04_mem_latency",
                  run_experiment("table04_mem_latency"))
        cache.put("fig04_te_linear", run_experiment("fig04_te_linear"))

        self._edit(monkeypatch, "te/modules.py")
        warm = ResultCache(tmp_path / "rc")
        assert warm.get("table04_mem_latency") is not None
        assert warm.get("fig04_te_linear") is None

    def test_memory_edit_invalidates_memory_experiments(self, tmp_path,
                                                        monkeypatch):
        from repro.perf import ResultCache

        cache = ResultCache(tmp_path / "rc")
        cache.put("table04_mem_latency",
                  run_experiment("table04_mem_latency"))
        self._edit(monkeypatch, "memory/hierarchy.py")
        warm = ResultCache(tmp_path / "rc")
        assert warm.get("table04_mem_latency") is None

    def test_cut_contents(self):
        from repro.perf import dependency_cut

        cut = dependency_cut("repro.core.experiments.memory")
        assert "repro.core.experiments.memory" in cut
        assert "repro.memory.hierarchy" in cut      # transitive
        assert "repro.te.modules" not in cut        # unrelated
        assert not any(m.startswith("repro.perf") for m in cut)
        assert "repro.core" not in cut              # no hub gluing

    def test_function_level_imports_are_tracked(self):
        # extensions.py imports repro.te inside builder bodies only
        from repro.perf import dependency_cut

        cut = dependency_cut("repro.core.experiments.extensions")
        assert any(m.startswith("repro.te") for m in cut)


class TestContextKeys:
    """The same experiment under different contexts coexists."""

    def test_contexts_do_not_collide(self, tmp_path):
        from repro.core import RunContext
        from repro.perf import ResultCache

        ctx = RunContext(devices=("A100",))
        cache = ResultCache(tmp_path / "rc")
        default_res = run_experiment(EXP)
        sweep_res = run_experiment(EXP, ctx)
        cache.put(EXP, default_res)
        cache.put(EXP, sweep_res, ctx)

        assert cache.path_for(EXP) != cache.path_for(EXP, ctx)
        got_default = cache.get(EXP)
        got_sweep = cache.get(EXP, ctx)
        assert got_default.render() == default_res.render()
        assert got_sweep.render() == sweep_res.render()
        assert got_sweep.context == ctx

    def test_seed_changes_the_key(self, tmp_path):
        from repro.core import RunContext
        from repro.perf import ResultCache

        cache = ResultCache(tmp_path / "rc")
        assert cache.key_for(EXP) != \
            cache.key_for(EXP, RunContext(seed=1))
