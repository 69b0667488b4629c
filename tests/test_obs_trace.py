"""Tests for the structured tracer (repro.obs.trace)."""

from __future__ import annotations

import json

from repro.obs.trace import SIM_TRACK, WALL_TRACK, Tracer


class TestTracer:
    def test_complete_event_shape(self):
        t = Tracer()
        t.complete("probe", 10.0, 5.0, cat="sweep",
                   args={"points": 3})
        (ev,) = t.events
        assert ev["ph"] == "X" and ev["ts"] == 10.0 and ev["dur"] == 5.0
        assert ev["pid"] == WALL_TRACK and ev["cat"] == "sweep"
        assert ev["args"] == {"points": 3}

    def test_negative_duration_clamped(self):
        t = Tracer()
        t.complete("x", 0.0, -3.0)
        assert t.events[0]["dur"] == 0.0

    def test_instant_defaults_to_wall_clock(self):
        t = Tracer()
        t.instant("marker")
        ev = t.events[0]
        assert ev["ph"] == "i" and ev["s"] == "t"
        assert ev["ts"] >= 0.0

    def test_sim_track_uses_cycle_timestamps(self):
        t = Tracer()
        t.complete("HMMA", 128.0, 8.0, pid=SIM_TRACK, tid="sched0")
        ev = t.events[0]
        assert ev["pid"] == SIM_TRACK and ev["ts"] == 128.0

    def test_span_measures_wall(self):
        t = Tracer()
        with t.span("work", cat="probe"):
            pass
        (ev,) = t.events
        assert ev["ph"] == "X" and ev["dur"] >= 0.0

    def test_merge_appends_verbatim(self):
        a = Tracer()
        a.instant("local")
        b = Tracer()
        b.complete("shipped", 1.0, 2.0, pid=SIM_TRACK)
        a.merge(b.events)
        assert len(a) == 2
        assert a.events[1]["name"] == "shipped"


class TestChromeExport:
    def _sample(self) -> Tracer:
        t = Tracer()
        t.complete("sweep", 0.0, 10.0, cat="probe")
        t.complete("LDG", 5.0, 2.0, pid=SIM_TRACK, tid="sched1")
        t.instant("cache hit", ts=3.0)
        return t

    def test_payload_is_perfetto_shaped(self):
        payload = self._sample().chrome_payload()
        evs = payload["traceEvents"]
        assert isinstance(evs, list) and evs
        for ev in evs:
            assert {"name", "ph", "pid", "tid"} <= set(ev)
            assert isinstance(ev["pid"], int)
            assert isinstance(ev["tid"], int)
            if ev["ph"] != "M":
                assert isinstance(ev["ts"], (int, float))

    def test_track_metadata_names_both_clock_domains(self):
        payload = self._sample().chrome_payload()
        names = [ev["args"]["name"] for ev in payload["traceEvents"]
                 if ev["name"] == "process_name"]
        assert WALL_TRACK in names and SIM_TRACK in names
        assert "cycle" in payload["otherData"]["clock_note"]

    def test_write_chrome_roundtrip(self, tmp_path):
        path = self._sample().write_chrome(tmp_path / "trace.json")
        payload = json.loads(path.read_text())
        assert payload["traceEvents"]

    def test_write_jsonl_one_event_per_line(self, tmp_path):
        t = self._sample()
        path = t.write_jsonl(tmp_path / "trace.jsonl")
        lines = path.read_text().splitlines()
        assert len(lines) == len(t.events)
        assert all(json.loads(line)["name"] for line in lines)
