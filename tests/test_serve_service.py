"""QueryService — cache tiers, determinism tripwires, CLI loop.

The headline properties under test: one JSONL batch produces
byte-identical prediction streams *and* counter dumps whether it runs
serially or fanned over the pool, and whether the shard cache is cold
or warm (warm hits replay their stored counter deltas).  Plus the
result cache's LRU size guard and the serve CLI round trip.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.obs.session import ObsSession
from repro.perf.cache import ResultCache
from repro.serve import QueryService, parse_query
from repro.serve.service import STATS_SCHEMA


def _batch_lines():
    """A mixed batch: three devices, dedup, an unsupported query, an
    in-stream parse error, a family-level experiment query."""
    lines = []
    for dev in ("H800", "A100", "RTX4090"):
        for m in (256, 512):
            lines.append(json.dumps(
                {"kind": "te.linear", "device": dev,
                 "precision": "fp16",
                 "params": {"m": m, "n": m, "k": m},
                 "id": f"lin-{dev}-{m}"}))
        lines.append(json.dumps(
            {"kind": "mma", "device": dev,
             "params": {"ab": "fp16", "cd": "fp32",
                        "m": 16, "n": 8, "k": 16}}))
    lines.append(lines[0])                      # duplicate
    lines.append(json.dumps(
        {"kind": "wgmma", "device": "V100",
         "params": {"ab": "fp16", "cd": "fp32", "n": 64},
         "id": "unsup"}))
    lines.append("{not json")                   # in-stream error
    lines.append(json.dumps(
        {"kind": "experiment",
         "params": {"name": "table03_devices"}}))
    return lines


def _golden_batch():
    return (Path(__file__).parent / "golden"
            / "serve_batch.jsonl").read_text().splitlines()


def _run(lines, *, jobs, root):
    session = ObsSession()
    with session.activate():
        service = QueryService(cache=ResultCache(root=root),
                               jobs=jobs)
        text = service.answer_lines_text(lines)
    return (text, json.dumps(session.counters.as_dict()),
            json.dumps(session.experiment_counters()), service)


class TestDeterminism:
    def test_serial_vs_parallel_byte_identical(self, tmp_path):
        lines = _batch_lines()
        t1, c1, e1, _ = _run(lines, jobs=1, root=tmp_path / "a")
        t4, c4, e4, _ = _run(lines, jobs=4, root=tmp_path / "b")
        assert t1 == t4
        assert c1 == c4
        assert e1 == e4

    def test_cold_vs_warm_byte_identical(self, tmp_path):
        lines = _batch_lines()
        root = tmp_path / "cache"
        cold = _run(lines, jobs=1, root=root)
        warm = _run(lines, jobs=1, root=root)
        assert cold[:3] == warm[:3]
        # and the warm run really was served from the blob tier
        warm_stats = warm[3].stats.as_dict()
        assert warm_stats.get("serve.cache.blob_hits", 0) > 0
        assert warm_stats.get("serve.cache.shard_misses", 0) == 0

    def test_memo_tier_short_circuits_repeat_batches(self, tmp_path):
        lines = _batch_lines()
        session = ObsSession()
        with session.activate():
            service = QueryService(
                cache=ResultCache(root=tmp_path), jobs=1)
            first = service.answer_lines_text(lines)
            second = service.answer_lines_text(lines)
        assert first == second
        stats = service.stats.as_dict()
        assert stats["serve.cache.memo_hits"] \
            == stats["serve.cache.shard_misses"]

    def test_trace_records_computed_shards_once(self, tmp_path):
        """A computed shard's engine spans join the live trace once;
        the memo and blob tiers replay its counters, never its
        events, and a replayed batch records only its stage spans."""
        lines = _golden_batch()
        root = tmp_path / "cache"

        def traced(service):
            session = ObsSession(trace=True)
            with session.activate():
                text = service.answer_lines_text(lines)
            return (text, session.counters.dump(),
                    [ev.get("cat") for ev in session.tracer.events])

        service = QueryService(cache=ResultCache(root=root))
        cold = traced(service)
        memo = traced(service)
        fresh = QueryService(cache=ResultCache(root=root))
        blob = traced(fresh)
        assert set(cold[2]) - {"serve"}
        for warm in (memo, blob):
            assert warm[2] and set(warm[2]) == {"serve"}
        assert cold[:2] == memo[:2] == blob[:2]
        assert service.stats.as_dict()["serve.cache.memo_hits"] > 0
        assert fresh.stats.as_dict()["serve.cache.blob_hits"] > 0

    def test_warm_trace_validates(self, tmp_path):
        """Serving the golden batch twice against one cache writes a
        schema-valid trace both times, with equal counter dumps."""
        lines = _golden_batch()
        spec = importlib.util.spec_from_file_location(
            "validate_trace", Path(__file__).resolve().parent.parent
            / "benchmarks" / "validate_trace.py")
        validator = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(validator)
        dumps = []
        for run in ("cold", "warm"):
            session = ObsSession(trace=True)
            with session.activate():
                QueryService(cache=ResultCache(root=tmp_path / "rc")) \
                    .answer_lines_text(lines)
            path = session.write_trace(tmp_path / f"{run}.json")
            assert validator.validate_chrome(Path(path)) > 0
            dumps.append(session.counters.dump())
        assert dumps[0] == dumps[1]

    def test_resolve_stage_is_timed(self, tmp_path):
        """Storage keys, tier lookups and stores are a stage of their
        own: a warm batch records a ``serve.resolve`` span and wall
        histogram, and a computed shard's dispatch lies inside it."""
        lines = _golden_batch()
        root = tmp_path / "cache"

        def stage_spans(service):
            session = ObsSession(trace=True)
            with session.activate():
                service.answer_lines_text(lines)
            return {ev["name"]: ev for ev in session.tracer.events
                    if ev.get("cat") == "serve"}

        cold = stage_spans(QueryService(cache=ResultCache(root=root)))
        warm_service = QueryService(cache=ResultCache(root=root))
        warm = stage_spans(warm_service)
        assert "serve.resolve" in warm and "serve.dispatch" not in warm
        assert any(k.startswith("serve.wall.resolve_us.")
                   for k in warm_service.stats_payload()["stats"])
        outer, inner = cold["serve.resolve"], cold["serve.dispatch"]
        assert outer["ts"] <= inner["ts"]
        assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]

    def test_qids_reattach_after_dedup(self, tmp_path):
        q = {"kind": "dsm.bandwidth", "device": "H800",
             "params": {"cluster_size": 4}}
        service = QueryService(cache=None)
        a, b = service.answer_batch([
            parse_query({**q, "id": "first"}),
            parse_query({**q, "id": "second"}),
        ])
        assert a.qid == "first" and b.qid == "second"
        assert a.metrics == b.metrics

    def test_batch_counters_are_input_functions(self, tmp_path):
        lines = _batch_lines()
        _, counters, _, _ = _run(lines, jobs=1, root=tmp_path)
        bank = json.loads(counters)
        assert bank["serve.queries"] == len(lines) - 1  # bad line
        assert bank["serve.errors"] == 1
        assert bank["serve.dedup"] == 1
        assert bank["serve.batches"] == 1
        assert bank["serve.shards"] > 3
        # wall time never enters the deterministic bank
        assert not any(name.startswith("serve.wall")
                       for name in bank)

    def test_stats_payload_shape(self, tmp_path):
        service = QueryService(cache=ResultCache(root=tmp_path))
        service.answer(parse_query(
            {"kind": "mma", "device": "A100",
             "params": {"ab": "fp16", "cd": "fp32",
                        "m": 16, "n": 8, "k": 16}}))
        payload = service.stats_payload()
        assert payload["schema"] == STATS_SCHEMA
        assert any(k.startswith("serve.wall.")
                   for k in payload["stats"])


class TestExperimentFallback:
    def test_family_query_runs_experiment(self, tmp_path):
        p = QueryService(cache=ResultCache(root=tmp_path)).answer(
            parse_query({"kind": "experiment",
                         "params": {"name": "table03_devices"}}))
        assert p.status == "ok"
        assert p.metric("checks_passed") == p.metric("checks_total")
        assert p.metric("rows") > 0

    def test_unknown_name_gets_did_you_mean(self):
        p = QueryService(cache=None).answer(
            parse_query({"kind": "experiment",
                         "params": {"name": "table7_mma"}}))
        assert p.status == "error"
        assert "did you mean" in p.reason
        assert "table07_mma" in p.reason

    def test_pinned_experiment_unsupported_off_device(self):
        p = QueryService(cache=None).answer(parse_query(
            {"kind": "experiment", "device": "A100",
             "params": {"name": "table08_wgmma_dense"}}))
        assert p.status == "unsupported"
        assert "pinned" in p.reason

    def test_derived_context_overrides(self, tmp_path):
        svc = QueryService(cache=ResultCache(root=tmp_path))
        base = svc.answer(parse_query(
            {"kind": "experiment",
             "params": {"name": "table03_devices"}}))
        narrowed = svc.answer(parse_query(
            {"kind": "experiment", "device": "H800",
             "params": {"name": "table03_devices"}}))
        assert narrowed.status == "ok"
        # the single-device context runs fewer per-device checks
        assert narrowed.metric("checks_total") \
            < base.metric("checks_total")


class TestInStreamErrors:
    """One bad line never aborts a batch — the contract REVIEW.md
    caught two crashes against."""

    def test_unknown_device_line_stays_in_stream(self):
        # device validation raises QueryError (not KeyError), so the
        # JSONL loop answers the bad line and keeps streaming
        lines = [
            json.dumps({"kind": "mma", "device": "A1000",
                        "params": {"ab": "fp16", "cd": "fp32",
                                   "m": 16, "n": 8, "k": 16},
                        "id": "bad-dev"}),
            json.dumps({"kind": "mma", "device": "A100",
                        "params": {"ab": "fp16", "cd": "fp32",
                                   "m": 16, "n": 8, "k": 16},
                        "id": "good"}),
        ]
        bad, good = QueryService(cache=None).answer_lines(lines)
        assert bad.status == "error"
        assert bad.qid == "bad-dev"
        assert "did you mean" in bad.reason
        assert good.status == "ok"

    def test_experiment_query_unknown_device_stays_in_stream(self):
        # experiment-kind queries skip device validation at
        # construction; the storage-key derive() must not crash before
        # dispatch's in-stream error path can answer
        lines = [
            json.dumps({"kind": "experiment", "device": "A1000",
                        "params": {"name": "table03_devices"},
                        "id": "bad-dev"}),
            json.dumps({"kind": "dsm.bandwidth", "device": "H800",
                        "params": {"cluster_size": 4},
                        "id": "good"}),
        ]
        bad, good = QueryService(cache=None).answer_lines(lines)
        assert bad.status == "error"
        assert bad.qid == "bad-dev"
        assert "A1000" in bad.reason
        assert good.status == "ok"


class TestMemoBound:
    def _q(self, cluster):
        return parse_query({"kind": "dsm.bandwidth", "device": "H800",
                            "params": {"cluster_size": cluster}})

    def test_memo_is_lru_bounded(self):
        service = QueryService(cache=None, memo_entries=2)
        for cluster in (1, 2, 4, 8):
            service.answer(self._q(cluster))
        assert len(service._memo) == 2
        assert service.stats.as_dict()["serve.memo.evictions"] == 2
        # the newest entries are the survivors: re-asking them hits
        before = service.stats.as_dict().get("serve.cache.memo_hits",
                                             0)
        service.answer(self._q(8))
        assert service.stats.as_dict()["serve.cache.memo_hits"] \
            == before + 1

    def test_memo_env_default(self, monkeypatch):
        from repro.serve.service import (
            _MEMO_DEFAULT,
            default_memo_entries,
        )

        monkeypatch.delenv("HOPPERDISSECT_SERVE_MEMO_MAX_ENTRIES",
                           raising=False)
        assert default_memo_entries() == _MEMO_DEFAULT
        monkeypatch.setenv("HOPPERDISSECT_SERVE_MEMO_MAX_ENTRIES",
                           "7")
        assert default_memo_entries() == 7
        assert QueryService(cache=None).memo_entries == 7
        monkeypatch.setenv("HOPPERDISSECT_SERVE_MEMO_MAX_ENTRIES",
                           "0")
        assert default_memo_entries() is None
        monkeypatch.setenv("HOPPERDISSECT_SERVE_MEMO_MAX_ENTRIES",
                           " ")
        assert default_memo_entries() == _MEMO_DEFAULT
        monkeypatch.setenv("HOPPERDISSECT_SERVE_MEMO_MAX_ENTRIES",
                           "-3")
        assert default_memo_entries() is None
        monkeypatch.setenv("HOPPERDISSECT_SERVE_MEMO_MAX_ENTRIES",
                           "abc")
        with pytest.raises(ValueError,
                           match="HOPPERDISSECT_SERVE_MEMO_MAX_ENTRIES"):
            QueryService(cache=None)

    def test_eviction_does_not_change_answers(self):
        # evictions drop warm-start state only: a churning bounded
        # memo answers identically to an unbounded one
        bounded = QueryService(cache=None, memo_entries=1)
        unbounded = QueryService(cache=None, memo_entries=0)
        clusters = (1, 2, 4, 1, 2, 4)
        a = [bounded.answer(self._q(c)).to_line() for c in clusters]
        b = [unbounded.answer(self._q(c)).to_line() for c in clusters]
        assert a == b
        assert bounded.stats.as_dict()["serve.memo.evictions"] > 0


class TestCacheSizeGuard:
    def _fill(self, cache, n):
        import hashlib

        for i in range(n):
            key = hashlib.sha256(str(i).encode()).hexdigest()
            cache.put_blob("blobtest", key, {"i": i})

    def test_lru_bound_evicts_oldest(self, tmp_path):
        cache = ResultCache(root=tmp_path, max_entries=3)
        self._fill(cache, 5)
        assert len(list(tmp_path.glob("*.pkl"))) == 3
        assert cache.stats.evictions == 2

    def test_reads_refresh_recency(self, tmp_path):
        import os

        cache = ResultCache(root=tmp_path, max_entries=2)
        cache.put_blob("blobtest", "a" * 40, 1)
        cache.put_blob("blobtest", "b" * 40, 2)
        # age "a", then touch it via a read; "b" becomes the LRU
        os.utime(cache.blob_path("blobtest", "a" * 40), (1, 1))
        assert cache.get_blob("blobtest", "a" * 40) == 1
        os.utime(cache.blob_path("blobtest", "b" * 40), (2, 2))
        cache.put_blob("blobtest", "c" * 40, 3)
        assert cache.get_blob("blobtest", "a" * 40) == 1
        assert cache.get_blob("blobtest", "b" * 40) is None

    def test_eviction_counter_fires(self, tmp_path):
        # the session sees the result_cache.* provenance counter only;
        # serve.* tallies stay in the service's private stats bank
        session = ObsSession()
        with session.activate():
            cache = ResultCache(root=tmp_path, max_entries=1)
            self._fill(cache, 3)
        bank = session.counters.as_dict()
        assert bank["result_cache.eviction"] == 2
        assert "serve.cache.evictions" not in bank

    def test_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOPPERDISSECT_CACHE_MAX_ENTRIES", "7")
        assert ResultCache(root=tmp_path).max_entries == 7
        monkeypatch.setenv("HOPPERDISSECT_CACHE_MAX_ENTRIES", "0")
        assert ResultCache(root=tmp_path).max_entries is None
        monkeypatch.delenv("HOPPERDISSECT_CACHE_MAX_ENTRIES")
        assert ResultCache(root=tmp_path).max_entries is None
        monkeypatch.setenv("HOPPERDISSECT_CACHE_MAX_ENTRIES", "")
        assert ResultCache(root=tmp_path).max_entries is None
        monkeypatch.setenv("HOPPERDISSECT_CACHE_MAX_ENTRIES", "-1")
        assert ResultCache(root=tmp_path).max_entries is None
        # a typo used to read as "unbounded" without a word
        monkeypatch.setenv("HOPPERDISSECT_CACHE_MAX_ENTRIES", "abc")
        with pytest.raises(ValueError,
                           match="HOPPERDISSECT_CACHE_MAX_ENTRIES"):
            ResultCache(root=tmp_path)

    def test_bound_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="positive"):
            ResultCache(root=tmp_path, max_entries=0)

    def test_corrupt_blob_is_a_miss(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        path = cache.put_blob("blobtest", "d" * 40, {"x": 1})
        path.write_bytes(b"garbage")
        assert cache.get_blob("blobtest", "d" * 40) is None

    def test_blob_keys_namespace_by_kind(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        cache.put_blob("kind-one", "e" * 40, 1)
        assert cache.get_blob("kind-two", "e" * 40) is None


class TestServeCli:
    def _write_batch(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        path.write_text("\n".join(_batch_lines()) + "\n")
        return path

    def test_serve_round_trip(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("HOPPERDISSECT_CACHE_DIR",
                           str(tmp_path / "cache"))
        batch = self._write_batch(tmp_path)
        out = tmp_path / "out.jsonl"
        stats = tmp_path / "stats.json"
        assert main(["serve", "-i", str(batch), "-o", str(out),
                     "--stats-json", str(stats)]) == 0
        answers = [json.loads(line)
                   for line in out.read_text().splitlines()]
        assert len(answers) == len(_batch_lines())
        by_id = {a.get("id"): a for a in answers if "id" in a}
        assert by_id["unsup"]["status"] == "unsupported"
        assert by_id["lin-H800-256"]["status"] == "ok"
        assert json.loads(stats.read_text())["schema"] == STATS_SCHEMA

    def test_serve_jobs_and_warm_are_byte_identical(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOPPERDISSECT_CACHE_DIR",
                           str(tmp_path / "cache"))
        batch = self._write_batch(tmp_path)
        outs = {}
        for tag, flags in (("serial", []),
                           ("jobs", ["--jobs", "3"]),
                           ("warm", [])):
            out = tmp_path / f"{tag}.jsonl"
            counters = tmp_path / f"{tag}.counters.json"
            metrics = tmp_path / f"{tag}.om.txt"
            assert main(["serve", "-i", str(batch), "-o", str(out),
                         "--counters-json", str(counters),
                         "--metrics", str(metrics), *flags]) == 0
            outs[tag] = (out.read_bytes(), counters.read_bytes(),
                         metrics.read_bytes())
        assert outs["serial"] == outs["jobs"]
        assert outs["serial"] == outs["warm"]

    def test_serve_metrics_include_serve_counters(
            self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HOPPERDISSECT_CACHE_DIR",
                           str(tmp_path / "cache"))
        batch = self._write_batch(tmp_path)
        metrics = tmp_path / "om.txt"
        out = tmp_path / "out.jsonl"
        assert main(["serve", "-i", str(batch), "-o", str(out),
                     "--metrics", str(metrics)]) == 0
        text = metrics.read_text()
        assert "hopperdissect_serve_queries_total" in text
        assert "hopperdissect_serve_batch_size_bucket" in text
        assert 'experiment="serve:te.linear@H800"' in text

    def test_query_one_shot(self, capsys):
        assert main(["query", "mma", "-d", "A100", "--no-cache",
                     "-p", "ab=fp16", "-p", "cd=fp32",
                     "-p", "m=16", "-p", "n=8", "-p", "k=16"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["status"] == "ok"
        assert obj["metrics"]["latency_clk"] > 0

    def test_query_json_form(self, capsys):
        assert main(["query", "--no-cache", "--json",
                     json.dumps({"kind": "dsm.bandwidth",
                                 "device": "V100",
                                 "params": {"cluster_size": 2}})]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["status"] == "unsupported"

    def test_query_unknown_device_suggests(self, capsys):
        rc = main(["query", "mma", "-d", "H80", "--no-cache",
                   "-p", "ab=fp16", "-p", "cd=fp32",
                   "-p", "m=16", "-p", "n=8", "-p", "k=16"])
        assert rc == 2
        assert "did you mean" in capsys.readouterr().err

    def test_query_unknown_experiment_suggests(self, capsys):
        rc = main(["query", "experiment", "--no-cache",
                   "-p", "name=table7_mma"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "did you mean" in out and "table07_mma" in out

    def test_query_bad_params_exit_2(self, capsys):
        assert main(["query", "te.linear", "-d", "H800",
                     "--no-cache", "--precision", "fp16",
                     "-p", "m=64"]) == 2
        assert "requires param" in capsys.readouterr().err
