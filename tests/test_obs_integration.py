"""End-to-end observability guarantees.

The three contracts this file pins down:

* **determinism** — counter dumps are byte-identical between a serial
  run and a ``jobs=N`` process-pool run of the same experiments,
* **zero effect when off** — results computed under an active session
  render identically to results computed with observability off,
* **consistency** — the counter bank agrees with the caches' own
  bookkeeping (what the "counters consistent with the tables"
  acceptance check means mechanically).
"""

from __future__ import annotations

import json

import numpy as np

from repro.arch import get_device
from repro.cli import main
from repro.core.context import RunContext
from repro.core.registry import Experiment, get_experiment
from repro.memory.chase import ChaseEngine
from repro.memory.hierarchy import MemoryHierarchy
from repro.obs import ObsSession
from repro.obs import session as obs_session
from repro.perf import ResultCache, run_experiments

CHEAP = ["ext_coalescing", "ext_trace_simulator"]


class TestSerialParallelDeterminism:
    def _dump(self, jobs: int) -> str:
        session = ObsSession()
        ctx = RunContext()
        with session.activate():
            run_experiments(CHEAP, jobs=jobs, cache=None,
                            context=ctx)
        return session.counters.dump()

    def test_counter_dumps_byte_identical(self):
        assert self._dump(1) == self._dump(2)

    def test_dump_is_nonempty(self):
        dump = json.loads(self._dump(1))
        assert dump.get("exp.completed") == len(CHEAP)
        assert any(k.startswith("sm.") for k in dump)


class TestRunnerCountsCompletions:
    def test_cache_hits_are_not_completions(self, tmp_path):
        """``exp.completed`` counts what the runner computed under any
        active session; a cache hit computes nothing."""
        run_experiments(["table03_devices"],
                        cache=ResultCache(tmp_path / "rc"))
        session = ObsSession()
        with session.activate():
            run_experiments(["table03_devices", "table06_sass"],
                            cache=ResultCache(tmp_path / "rc"))
        orchestration = session.orchestration_counters()
        assert orchestration.get("exp.completed") == 1
        assert orchestration.get("result_cache.hit") == 1


class TestTraceAlignment:
    """Spans recorded under a nested session land on the caller's
    timeline: a sweep's probe spans lie inside the span of the
    experiment that ran them."""

    NAMES = ["table04_mem_latency", "ext_cache_detection"]

    def _spans(self, jobs):
        session = ObsSession(trace=True)
        with session.activate():
            run_experiments(self.NAMES, jobs=jobs, cache=None)
        events = session.tracer.events
        experiments = {ev["name"]: ev for ev in events
                       if ev.get("cat") == "experiment"}
        probes = [ev for ev in events if ev.get("cat") == "probe"]
        assert set(experiments) == set(self.NAMES) and probes
        return experiments, probes

    @staticmethod
    def _inside(inner, outer, eps=0.01):
        """``inner`` within ``outer``, up to timestamp rounding (µs)."""
        return (outer["ts"] - eps <= inner["ts"]
                and inner["ts"] + inner["dur"]
                <= outer["ts"] + outer["dur"] + eps)

    def test_serial_spans_nest_and_do_not_overlap(self):
        experiments, probes = self._spans(jobs=1)
        detection = experiments["ext_cache_detection"]
        assert all(self._inside(p, detection) for p in probes)
        latency = experiments["table04_mem_latency"]
        assert (latency["ts"] + latency["dur"] <= detection["ts"]
                or detection["ts"] + detection["dur"] <= latency["ts"])

    def test_pool_spans_nest_in_their_experiment(self):
        experiments, probes = self._spans(jobs=2)
        detection = experiments["ext_cache_detection"]
        assert all(self._inside(p, detection) for p in probes)


class TestOffMeansOff:
    def test_no_session_active_by_default(self):
        assert obs_session.ACTIVE is None
        assert obs_session.active_counters() is None
        assert obs_session.active_tracer() is None

    def test_results_identical_with_and_without_session(self):
        plain = run_experiments(CHEAP, cache=None).results
        session = ObsSession(trace=True)
        with session.activate():
            observed = run_experiments(CHEAP, cache=None).results
        for name in CHEAP:
            assert plain[name].table.render() \
                == observed[name].table.render()
            assert plain[name].checks == observed[name].checks

    def test_session_deactivates_on_exit(self):
        with ObsSession().activate():
            assert obs_session.ACTIVE is not None
        assert obs_session.ACTIVE is None

    def test_sessions_nest(self):
        outer = ObsSession()
        inner = ObsSession()
        with outer.activate():
            with inner.activate():
                assert obs_session.ACTIVE is inner
            assert obs_session.ACTIVE is outer


class TestCounterConsistency:
    def test_counters_match_cache_stats(self):
        session = ObsSession()
        with session.activate():
            mh = MemoryHierarchy(get_device("H800"))
            for i in range(256):
                mh.load((i % 64) * 128, 32, sm_id=0)
        c = session.counters
        l1 = mh.l1_for_sm(0)
        assert c.get("cache.l1.accesses") == l1.stats.accesses
        assert c.get("cache.l1.hits") == l1.stats.hits
        assert c.get("cache.l2.accesses") == mh.l2.stats.accesses
        assert c.get("mem.loads") == 256
        # every load lands in exactly one level's byte counter
        assert c.total("mem.bytes.") == 256 * 32

    def test_counters_go_to_the_session_active_at_load(self):
        """A hierarchy's loads record into the session active when
        they run, whenever the hierarchy was built: one built with no
        session records like one built inside it, and one chased
        after its session ended adds nothing to that session."""
        device = get_device("H800")
        seq = np.arange(64, dtype=np.int64) * 128

        def chase(mh):
            stats = ChaseEngine(mh).run(seq, 4096)
            assert stats.extrapolated > 0

        inside = ObsSession()
        with inside.activate():
            built_inside = MemoryHierarchy(device)
            chase(built_inside)
        built_outside = MemoryHierarchy(device)
        later = ObsSession()
        with later.activate():
            chase(built_outside)
        bank = inside.counters.as_dict()
        assert bank["cache.l1.accesses"] == 4096
        assert later.counters.as_dict() == bank

        chase(built_inside)
        assert inside.counters.as_dict() == bank

    def test_latency_histogram_covers_every_load(self):
        session = ObsSession()
        with session.activate():
            mh = MemoryHierarchy(get_device("A100"))
            for i in range(64):
                mh.load(i * 128, 32, sm_id=0)
        hist = session.counters.total("mem.latency.")
        assert hist == 64


class TestCliObservability:
    def test_stats_subcommand(self, capsys):
        assert main(["stats", "ext_coalescing"]) == 0
        out = capsys.readouterr().out
        assert "hardware counters" in out
        assert "exp.completed" in out

    def test_run_with_counters_flag(self, capsys):
        assert main(["run", "ext_coalescing", "--no-cache",
                     "--counters"]) == 0
        assert "hardware counters" in capsys.readouterr().out

    def test_run_trace_writes_perfetto_json(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        assert main(["run", "ext_trace_simulator", "--no-cache",
                     "--trace", str(trace)]) == 0
        payload = json.loads(trace.read_text())
        evs = payload["traceEvents"]
        assert evs and any(ev.get("cat") == "issue" for ev in evs)
        names = [ev["args"]["name"] for ev in evs
                 if ev["name"] == "process_name"]
        assert "sim" in names

    def test_trace_jsonl_variant(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main(["stats", "ext_coalescing", "--trace",
                     str(trace)]) == 0
        lines = trace.read_text().splitlines()
        assert lines and all(json.loads(l)["name"] for l in lines)


class TestDevicesAny:
    def _exp(self, **kw) -> Experiment:
        return Experiment(name="x", paper_ref="-", description="-",
                          builder=lambda ctx: None, **kw)

    def test_any_of_one_present_suffices(self):
        e = self._exp(devices_any=("RTX4090", "A100", "H800"))
        assert e.supports(RunContext(devices=("A100",)))
        assert e.supports(RunContext(devices=("H800", "RTX4090")))

    def test_any_of_none_present_fails(self):
        e = self._exp(devices_any=("A100",))
        assert not e.supports(RunContext(devices=("H800",)))

    def test_all_of_still_requires_every_device(self):
        e = self._exp(devices=("A100", "H800"))
        assert not e.supports(RunContext(devices=("A100",)))
        assert e.supports(RunContext(devices=("A100", "H800")))

    def test_pin_note_wording(self):
        assert "any of" in self._exp(devices_any=("A100",)).pin_note()
        assert "pinned to" in self._exp(devices=("A100",)).pin_note()
        assert self._exp().pin_note() == "no device pin"

    def test_cache_detection_runs_on_any_single_testbed_device(self):
        exp = get_experiment("ext_cache_detection")
        assert exp.devices is None
        assert set(exp.devices_any) == {"RTX4090", "A100", "H800",
                                        "B200", "V100"}
        for dev in ("RTX4090", "A100", "H800", "B200", "V100"):
            assert exp.supports(RunContext(devices=(dev,)))
