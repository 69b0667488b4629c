"""The fuzz subsystem: generator determinism, the invariant oracle,
shrinking, replay, and the serial-vs-parallel contract.

The acceptance story lives here end to end:

* a fixed seed over the registered devices reports **zero**
  violations (the CI ``fuzz-smoke`` job runs the same sweep bigger);
* a *known-bad* device — an H800 whose DSM pack is given a negative
  contention coefficient via ``with_overrides(pack=...)``, so fabric
  bandwidth *rises* with cluster size — is injected test-only,
  convicted by ``dsm_contention_monotone``, shrunk to a two-query
  repro, written to disk and replayed to the very same violation;
* ``run_fuzz(jobs=2)`` returns the identical violation list and
  counter dump as the serial run.
"""

from __future__ import annotations

import json
import pickle
from dataclasses import replace

import pytest

from repro.arch import get_device, register_device
from repro.arch.packs import DsmCalibration
from repro.arch.registry import DEVICES
from repro.fuzz import (
    Scenario,
    ScenarioGenerator,
    check_scenario,
    load_repro,
    replay_repro,
    run_fuzz,
    shrink_scenario,
    write_repro,
)
from repro.obs.catalog import uncatalogued
from repro.obs.session import ObsSession
from repro.serve.schema import parse_query

_SEED = 2026


@pytest.fixture
def bad_dsm_device():
    """An H800 whose SM-to-SM contention coefficient is negative —
    a legal, registrable spec whose aggregate fabric bandwidth
    *increases* with cluster size.  Test-only; deregistered on
    teardown."""
    h800 = get_device("H800")
    bad = h800.with_overrides(
        name="H800BAD",
        pack=replace(
            h800.pack,
            dsm=DsmCalibration(
                link_bytes_per_clk=h800.pack.dsm.link_bytes_per_clk,
                contention_alpha=-0.04)))
    register_device(bad)
    yield bad
    DEVICES.pop("H800BAD", None)


# -- generator ---------------------------------------------------------------


class TestGenerator:
    def test_same_seed_same_scenarios(self):
        a = list(ScenarioGenerator(_SEED).generate(10))
        b = list(ScenarioGenerator(_SEED).generate(10))
        assert a == b

    def test_scenarios_differ_across_indices_and_seeds(self):
        gen = ScenarioGenerator(_SEED)
        assert gen.scenario(0) != gen.scenario(1)
        other = ScenarioGenerator(_SEED + 1).scenario(0)
        assert other != gen.scenario(0)

    def test_payload_round_trip(self):
        # the pool ships scenarios pickled, as they are
        scenario = ScenarioGenerator(_SEED).scenario(3)
        again = pickle.loads(pickle.dumps(scenario))
        assert again == scenario
        assert [q.qid for q in again.queries] == \
            [q.qid for q in scenario.queries]

    def test_lineups_stay_inside_the_pool(self):
        gen = ScenarioGenerator(_SEED, devices=("A100", "H800"))
        for s in gen.generate(8):
            assert set(s.devices) <= {"A100", "H800"}
            for q in s.queries:
                assert q.device in ("A100", "H800")

    def test_unknown_device_rejected(self):
        with pytest.raises(KeyError):
            ScenarioGenerator(_SEED, devices=("H801",))

    def test_capability_gaps_are_planted(self):
        """Scenarios deliberately ask for capabilities a device may
        lack — the 'always unsupported, never raise' probe."""
        kinds = set()
        for s in ScenarioGenerator(_SEED,
                                   devices=("V100",)).generate(12):
            kinds.update(q.kind for q in s.queries)
        assert "wgmma" in kinds
        assert "dsm.bandwidth" in kinds


# -- oracle over healthy devices ---------------------------------------------


class TestOracleHealthy:
    def test_registered_devices_fuzz_clean(self):
        report = run_fuzz(_SEED, 40)
        assert report.passed, report.summary()
        assert report.scenarios == 40
        assert report.queries > 0
        assert report.checks > 0
        assert report.status_counts.get("ok", 0) > 0
        # capability gaps answered structurally, never raised
        assert "error" not in report.status_counts

    def test_fuzz_counters_are_catalogued(self):
        sess = ObsSession()
        with sess.activate():
            run_fuzz(_SEED, 6)
        bank = sess.counters.as_dict()
        assert bank["fuzz.scenarios"] == 6
        assert bank["fuzz.queries"] > 0
        assert "fuzz.violations" not in bank
        assert uncatalogued(bank) == []

    def test_serial_matches_jobs(self):
        def sweep(jobs):
            sess = ObsSession()
            with sess.activate():
                report = run_fuzz(_SEED, 8, jobs=jobs)
            return (report.violations, report.status_counts,
                    sess.counters.dump())

        assert sweep(1) == sweep(2)

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            run_fuzz(_SEED, -1)
        report = run_fuzz(_SEED, 0)
        assert report.scenarios == 0 and report.passed


# -- injection, shrinking, replay --------------------------------------------


class TestInjection:
    def test_bad_pack_is_convicted(self, bad_dsm_device):
        report = run_fuzz(7, 10, devices=("H800BAD",), shrink=False)
        assert not report.passed
        assert {v.invariant for v in report.violations} == \
            {"dsm_contention_monotone"}

    def test_shrinks_to_minimal_repro_and_replays(self, bad_dsm_device,
                                                  tmp_path):
        report = run_fuzz(7, 10, devices=("H800BAD",),
                          repro_dir=tmp_path, max_repros=1)
        assert not report.passed
        assert len(report.repro_paths) == 1
        path = report.repro_paths[0]

        scenario, invariant = load_repro(path)
        assert invariant == "dsm_contention_monotone"
        # minimal: exactly the offending adjacent pair survives ddmin
        assert len(scenario.queries) == 2
        assert all(q.kind == "dsm.bandwidth" for q in scenario.queries)
        assert scenario.devices == ("H800BAD",)

        replayed = replay_repro(path)
        assert [v.invariant for v in replayed.violations] == \
            [invariant]
        # the repro header records the shrunk violation; replay
        # reproduces it verbatim
        header = json.loads(
            open(path).read().splitlines()[0])
        assert replayed.violations[0].message == header["message"]
        # ... and the original sweep convicted the same scenario for
        # the same invariant
        assert any(v.scenario_index == scenario.index
                   and v.invariant == invariant
                   for v in report.violations)

    def test_shrink_scenario_directly(self, bad_dsm_device):
        scenario = Scenario(
            index=0, seed=0, devices=("H800BAD",),
            queries=tuple(
                parse_query({"kind": "dsm.bandwidth",
                             "device": "H800BAD",
                             "params": {"cluster_size": cs}})
                for cs in (1, 2, 4, 8, 16)
            ) + tuple(
                parse_query({"kind": "mma", "device": "H800BAD",
                             "params": {"ab": "fp16", "cd": "fp32",
                                        "m": 16, "n": 8, "k": 16}})
                for _ in range(3)))
        violation = check_scenario(scenario, deep=True).violations[0]
        small, final = shrink_scenario(scenario, violation)
        assert final.invariant == violation.invariant
        assert len(small.queries) == 2
        assert {q.param("cluster_size") for q in small.queries} <= \
            {2, 4, 8, 16}

    def test_write_and_load_round_trip(self, bad_dsm_device, tmp_path):
        scenario = Scenario(
            index=5, seed=9, devices=("H800BAD",),
            queries=(parse_query({"kind": "dsm.bandwidth",
                                  "device": "H800BAD",
                                  "params": {"cluster_size": 2}}),))
        from repro.fuzz import Violation

        v = Violation(invariant="dsm_contention_monotone",
                      scenario_index=5, seed=9, message="m")
        path = write_repro(tmp_path / "r.jsonl", scenario, v)
        again, invariant = load_repro(path)
        assert again == scenario
        assert invariant == "dsm_contention_monotone"

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"schema":"nope"}\n')
        with pytest.raises(ValueError, match="schema"):
            load_repro(path)


# -- oracle internals --------------------------------------------------------


class TestOracleMechanics:
    def test_deep_pass_sampling_is_deterministic(self):
        scenario = ScenarioGenerator(_SEED).scenario(4)
        a = check_scenario(scenario)
        b = check_scenario(scenario)
        assert a == b

    def test_report_payload_round_trip(self):
        from repro.fuzz import ScenarioReport

        # the pool ships reports back pickled, as they are
        report = check_scenario(ScenarioGenerator(_SEED).scenario(1))
        again = pickle.loads(pickle.dumps(report))
        assert isinstance(again, ScenarioReport)
        assert again == report

    def test_lineage_checked_from_lineup_alone(self):
        """A scenario with no queries still checks the spec lineage
        of its device lineup."""
        scenario = Scenario(index=0, seed=0,
                            devices=("V100", "A100", "H800", "B200"),
                            queries=())
        report = check_scenario(scenario, deep=True)
        assert report.violations == []
        assert report.n_checks > 0
