"""The counter-regression gate: committed goldens + typed drift.

Every golden in ``tests/golden/counters/`` is a counters/v2 document
of one fresh default-context experiment run.  These tests hold the
live simulator to those baselines through
:func:`repro.obs.diff.diff_payloads` — the same comparison the
``hopperdissect stats --diff`` CLI gate runs in CI — and pin the
drift-report semantics themselves (new/removed/changed kinds,
context mismatch).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.context import RunContext
from repro.obs import ObsSession
from repro.obs.catalog import lookup, uncatalogued
from repro.obs.diff import diff_payloads
from repro.perf import run_experiments

GOLDEN_DIR = Path(__file__).parent / "golden" / "counters"
GOLDEN_FILES = sorted(GOLDEN_DIR.glob("*.json"))


def fresh_payload(name: str) -> dict:
    session = ObsSession()
    ctx = RunContext()
    with session.activate():
        run_experiments([name], jobs=1, cache=None, context=ctx)
    return session.counters_v2_payload(context=ctx)


class TestGoldenBaselines:
    def test_goldens_exist(self):
        assert GOLDEN_FILES, "no committed counter goldens"

    @pytest.mark.parametrize(
        "golden_path", GOLDEN_FILES,
        ids=[p.stem for p in GOLDEN_FILES])
    def test_live_run_matches_golden(self, golden_path):
        baseline = json.loads(golden_path.read_text())
        current = fresh_payload(golden_path.stem)
        report = diff_payloads(baseline, current)
        assert report.passed, "\n" + report.render()

    def test_dropped_counter_fails_the_gate(self):
        """The gate's reason to exist: silently losing a counter —
        e.g. an engine refactor dropping its instrumentation — must
        produce failing ``removed`` drift."""
        golden_path = GOLDEN_DIR / "fig08_dsm_rbc.json"
        baseline = json.loads(golden_path.read_text())
        current = fresh_payload("fig08_dsm_rbc")
        del current["experiments"]["fig08_dsm_rbc"]["dsm.hops"]
        report = diff_payloads(baseline, current)
        assert not report.passed
        kinds = {(d.kind, d.counter) for d in report.drifts}
        assert ("removed", "dsm.hops") in kinds

    def test_new_counter_fails_the_gate(self):
        baseline = json.loads(
            (GOLDEN_DIR / "fig09_dsm_histogram.json").read_text())
        current = fresh_payload("fig09_dsm_histogram")
        current["experiments"]["fig09_dsm_histogram"]["dsm.novel"] = 3
        report = diff_payloads(baseline, current)
        assert {d.kind for d in report.drifts} == {"new"}


class TestCatalogCoverage:
    def test_every_golden_counter_is_catalogued(self):
        """Counters that ship in the committed baselines must have a
        catalog entry — the same net CI's catalog-drift step casts,
        kept here so ``pytest`` alone catches it."""
        names = set()
        for path in GOLDEN_FILES:
            payload = json.loads(path.read_text())
            for bank in payload["experiments"].values():
                names.update(bank)
            names.update(payload["orchestration"])
        assert names, "goldens carry no counters"
        assert uncatalogued(names) == []
        for name in names:
            entry = lookup(name)
            assert entry is not None and entry.description


class TestDriftSemantics:
    BASE = {
        "schema": "hopperdissect.counters/v2",
        "context": "devices=A100;seed=0",
        "labels": {"device": "A100"},
        "experiments": {
            "exp_a": {
                "mem.loads": 100,
                "mem.latency.l2.le00000256": 90,
                "mem.latency.l2.le00000512": 10,
            },
        },
        "orchestration": {"exp.completed": 1},
    }

    def _variant(self, **bank):
        cur = json.loads(json.dumps(self.BASE))
        cur["experiments"]["exp_a"].update(bank)
        for k, v in list(cur["experiments"]["exp_a"].items()):
            if v is None:
                del cur["experiments"]["exp_a"][k]
        return cur

    def test_identical_is_clean(self):
        report = diff_payloads(self.BASE, self._variant())
        assert report.passed and not report.drifts
        assert "clean" in report.render()

    def test_context_mismatch_fails(self):
        cur = self._variant()
        cur["context"] = "devices=H800;seed=0"
        report = diff_payloads(self.BASE, cur)
        assert not report.passed
        assert report.drifts[0].kind == "context"
        assert "context mismatch" in report.render()

    def test_orchestration_bank_is_gated_too(self):
        cur = self._variant()
        cur["orchestration"]["exp.completed"] = 2
        report = diff_payloads(self.BASE, cur)
        assert not report.passed
        [d] = report.drifts
        assert (d.kind, d.experiment, d.counter, d.baseline,
                d.current) == \
            ("changed", "_orchestration", "exp.completed", 1, 2)
