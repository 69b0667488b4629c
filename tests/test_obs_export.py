"""The labeled export layer: OpenMetrics + counters/v2.

Pins the two properties the export exists for:

* **byte-determinism** — serial and ``--jobs N`` runs render the very
  same OpenMetrics text and counters/v2 JSON, across every registered
  device (the labels ride the process-pool merge losslessly);
* **faithful labeling** — the per-experiment banks round-trip through
  the v2 document exactly, the orchestration remainder accounts for
  every counter the experiments didn't fire, and the OpenMetrics
  rendering is structurally valid (cumulative buckets, ``# EOF``,
  escaped labels).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch import list_devices
from repro.core import run_all
from repro.core.context import RunContext
from repro.obs import ObsSession
from repro.obs.export import (
    ORCHESTRATION,
    context_labels,
    load_counters_v2,
    metric_name,
    render_counters_v2,
    render_openmetrics,
)
from repro.perf import run_experiments

#: fast, supported on every registered device, and counter-emitting —
#: so the per-device determinism sweep always has labeled banks to
#: compare
CHEAP = ["table04_mem_latency", "ext_cache_detection"]


def run_session(jobs: int, devices=None) -> ObsSession:
    session = ObsSession()
    kwargs = {"devices": tuple(devices)} if devices else {}
    ctx = RunContext(**kwargs)
    with session.activate():
        run_experiments(CHEAP, jobs=jobs, cache=None, context=ctx)
    session.context = ctx   # stash for the assertions
    return session


class TestExportDeterminism:
    @pytest.mark.parametrize("device", list_devices())
    def test_serial_vs_pool_byte_identical(self, device):
        serial = run_session(1, devices=[device])
        fanned = run_session(4, devices=[device])
        s_banks = serial._labeled_banks()
        f_banks = fanned._labeled_banks()
        s_labels = context_labels(serial.context)
        assert render_openmetrics(s_banks, labels=s_labels) == \
            render_openmetrics(f_banks,
                               labels=context_labels(fanned.context))
        assert render_counters_v2(
            serial.experiment_counters(),
            serial.orchestration_counters(),
            labels=s_labels, context=serial.context,
        ) == render_counters_v2(
            fanned.experiment_counters(),
            fanned.orchestration_counters(),
            labels=context_labels(fanned.context),
            context=fanned.context,
        )

    def test_files_byte_identical(self, tmp_path):
        paths = {}
        for jobs in (1, 4):
            s = run_session(jobs)
            om = tmp_path / f"j{jobs}.prom"
            v2 = tmp_path / f"j{jobs}.json"
            s.write_openmetrics(om, context=s.context)
            s.write_counters_v2(v2, context=s.context)
            paths[jobs] = (om.read_bytes(), v2.read_bytes())
        assert paths[1] == paths[4]

    def test_run_all_banks_match_across_jobs(self):
        """``run_all`` — the ``report`` command — files every
        experiment's counters under its own bank at ``jobs=1`` exactly
        as it does at ``jobs=2``."""
        banks = {}
        for jobs in (1, 2):
            session = ObsSession()
            ctx = RunContext(devices=("A100",))
            with session.activate():
                run_all(jobs=jobs, context=ctx)
            banks[jobs] = (session.experiment_counters(),
                           session.orchestration_counters())
        assert banks[1][0], "no experiment banks"
        assert banks[1] == banks[2]

    def test_every_experiment_gets_a_bank(self):
        s = run_session(1)
        assert sorted(s.per_experiment) == sorted(CHEAP)
        for name in CHEAP:
            assert s.per_experiment[name], f"empty bank for {name}"

    def test_orchestration_plus_banks_equals_flat(self):
        s = run_session(1)
        total = dict(s.orchestration_counters())
        for bank in s.per_experiment.values():
            for k, v in bank.as_dict().items():
                total[k] = total.get(k, 0) + v
        assert total == s.counters.as_dict()

    def test_exp_completed_is_orchestration(self):
        s = run_session(1)
        assert s.orchestration_counters()["exp.completed"] == \
            len(CHEAP)
        for bank in s.per_experiment.values():
            assert "exp.completed" not in bank.as_dict()


class TestOpenMetricsShape:
    BANKS = {
        "exp_a": {"mem.loads": 3,
                  "mem.latency.l2.le00000256": 2,
                  "mem.latency.l2.le00001024": 1},
        ORCHESTRATION: {"exp.completed": 1},
    }

    def test_counter_sample(self):
        text = render_openmetrics(self.BANKS,
                                  labels={"device": "A100"})
        assert "# TYPE hopperdissect_mem_loads counter" in text
        assert ('hopperdissect_mem_loads_total{device="A100",'
                'experiment="exp_a"} 3') in text

    def test_histogram_buckets_are_cumulative(self):
        text = render_openmetrics(self.BANKS)
        assert ('hopperdissect_mem_latency_l2_bucket{'
                'experiment="exp_a",le="256"} 2') in text
        assert ('hopperdissect_mem_latency_l2_bucket{'
                'experiment="exp_a",le="1024"} 3') in text
        assert ('hopperdissect_mem_latency_l2_bucket{'
                'experiment="exp_a",le="+Inf"} 3') in text
        assert ('hopperdissect_mem_latency_l2_count{'
                'experiment="exp_a"} 3') in text

    def test_ends_with_eof(self):
        assert render_openmetrics(self.BANKS).endswith("# EOF\n")

    def test_orchestration_label(self):
        text = render_openmetrics(self.BANKS)
        assert ('hopperdissect_exp_completed_total{'
                'experiment="_orchestration"} 1') in text

    def test_label_escaping(self):
        text = render_openmetrics(
            {"e": {"x": 1}}, labels={"device": 'A"\\\n'})
        assert '\\"' in text and "\\\\" in text and "\\n" in text
        assert "\n\\" not in text.replace("\\n", "")

    def test_metric_name_sanitizes(self):
        assert metric_name("dsm.hops") == "hopperdissect_dsm_hops"
        assert metric_name("weird-name!") == \
            "hopperdissect_weird_name_"

    def test_deep_tail_buckets_numeric_order(self):
        banks = {"e": {"lat.le134217728": 1, "lat.le1073741824": 2,
                       "lat.le00000256": 4}}
        text = render_openmetrics(banks)
        i256 = text.index('le="256"')
        i27 = text.index('le="134217728"')
        i30 = text.index('le="1073741824"')
        assert i256 < i27 < i30
        # cumulative across the numeric order
        assert 'le="1073741824"} 7' in text
        assert 'le="+Inf"} 7' in text


class TestCountersV2Shape:
    def test_key_order_and_schema(self, tmp_path):
        text = render_counters_v2(
            {"b_exp": {"x": 1}, "a_exp": {"y": 2}},
            {"exp.completed": 2},
            labels={"fidelity": "fast", "device": "A100"},
            context="tok")
        payload = json.loads(text)
        assert list(payload) == ["schema", "context", "labels",
                                 "experiments", "orchestration"]
        assert payload["schema"] == "hopperdissect.counters/v2"
        assert payload["context"] == "tok"
        assert list(payload["experiments"]) == ["a_exp", "b_exp"]
        assert list(payload["labels"]) == ["device", "fidelity"]
        path = tmp_path / "v2.json"
        path.write_text(text)
        assert load_counters_v2(path) == payload

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema":"hopperdissect.counters/v1"}\n')
        with pytest.raises(ValueError, match="expected schema"):
            load_counters_v2(path)

    def test_bucket_keys_numeric_order(self):
        text = render_counters_v2(
            {"e": {"lat.le1073741824": 2, "lat.le134217728": 1}},
            {}, context=None)
        bank = json.loads(text)["experiments"]["e"]
        assert list(bank) == ["lat.le134217728", "lat.le1073741824"]


names = st.text(
    alphabet=st.sampled_from("abcdefgh._"), min_size=1, max_size=12,
).filter(lambda s: not s.startswith(".") and ".." not in s)
banks_strategy = st.dictionaries(
    st.text(alphabet=st.sampled_from("abcxyz_"), min_size=1,
            max_size=8),
    st.dictionaries(names, st.integers(min_value=0, max_value=10**9),
                    max_size=6),
    min_size=0, max_size=4)


class TestLabeledMergeRoundTrip:
    @given(banks=banks_strategy)
    @settings(max_examples=60, deadline=None)
    def test_merge_then_render_round_trips(self, banks):
        """Worker deltas merged under experiment attribution come back
        out of the v2 document exactly — whatever the names, values
        and merge order."""
        session = ObsSession()
        for exp in sorted(banks, reverse=True):  # adversarial order
            session.merge({"counters": dict(banks[exp])},
                          experiment=exp)
        payload = json.loads(render_counters_v2(
            session.experiment_counters(),
            session.orchestration_counters()))
        expected = {exp: dict(bank)
                    for exp, bank in banks.items() if bank}
        assert {e: dict(b) for e, b in
                payload["experiments"].items()} == expected
        assert list(payload["experiments"]) == sorted(expected)
        assert payload["orchestration"] == {}

    @given(banks=banks_strategy, split=st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_merge_grouping_is_invariant(self, banks, split):
        """Splitting one experiment's delta into several merges (what
        re-runs or resumed sessions do) changes nothing."""
        once = ObsSession()
        twice = ObsSession()
        for exp, bank in banks.items():
            once.merge({"counters": dict(bank)}, experiment=exp)
            items = sorted(bank.items())
            cut = split % (len(items) + 1)
            twice.merge({"counters": dict(items[:cut])},
                        experiment=exp)
            twice.merge({"counters": dict(items[cut:])},
                        experiment=exp)
        assert render_counters_v2(
            once.experiment_counters(),
            once.orchestration_counters()) == render_counters_v2(
            twice.experiment_counters(),
            twice.orchestration_counters())
