"""Self-test of the benchmark.

    PYTHONPATH=src python -m pytest bench -q

The smoke runs call each workload directly with one set-up and one
iteration, so they take about a minute in total.
"""

from __future__ import annotations

import hashlib
import json
import re

import pytest

import layers
import run
from workloads import DEVICES, FOOTPRINTS_KIB, WORKLOADS, make_batch, \
    output_failures

SPEC = run.load_spec()


def test_spec_names_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(WORKLOADS)
    metrics = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(metrics) == len(set(metrics))
    for name in names + metrics:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)
    assert "setup_s" in [m["name"] for m in SPEC["end_to_end"]]


def test_batch_is_deterministic_and_mixed():
    a, b = make_batch(0), make_batch(0)
    assert a.text.encode() == b.text.encode()
    assert make_batch(1).sha256 != a.sha256
    summary = a.summary()
    assert 1900 <= summary["lines"] <= 2200
    assert 0.28 <= summary["repeated_frac"] <= 0.32
    assert 0.005 <= summary["malformed"] / summary["lines"] <= 0.02
    good = [json.loads(line) for i, line in enumerate(a.lines)
            if i not in set(a.malformed)]
    kinds = {q["kind"] for q in good}
    assert len(kinds) == 7
    assert {q["device"].upper() for q in good if "device" in q} \
        == set(DEVICES)
    assert any("device" not in q for q in good if q["kind"] == "experiment")
    footprints = {q["params"]["footprint_kib"] for q in good
                  if q["kind"] == "memory.latency"}
    assert footprints == set(FOOTPRINTS_KIB)


def test_failed_exit_and_changed_digest_count_as_failed(tmp_path):
    runner = run.Runner(tmp_path, tmp_path / "pycache")
    inv = runner.cli(["no-such-command"], tmp_path)
    assert inv.exit_code != 0
    runner.check(inv, "bad")
    assert runner.attempted == 1 and len(runner.failures) == 1

    out = b"[PASS] fine\n"
    same = hashlib.sha256(out).hexdigest()
    assert output_failures(["run"], 0, out, same) == []
    assert output_failures(["run"], 0, out + b"x\n", same)
    assert output_failures(["run"], 0, b"[FAIL] broken\n")
    assert output_failures(["report"], 0, b"**Summary: 3/4 findings**\n")


def test_serve_answers_are_checked_per_line():
    batch = make_batch(0)
    bad = set(batch.malformed)
    answers = [json.dumps({"status": "error" if i in bad else "ok"})
               for i in range(len(batch.lines))]
    text = ("\n".join(answers) + "\n").encode()
    assert output_failures(["serve"], 0, text, batch=batch) == []
    first_bad = min(bad)
    answers[first_bad] = json.dumps({"status": "ok"})
    text = ("\n".join(answers) + "\n").encode()
    assert output_failures(["serve"], 0, text, batch=batch)


def test_self_time_excludes_children():
    spans = layers.Spans([{"missing": [], "spans": [
        ["perf.cache.get", 0, 100, 1, 0, {"hit": True}],
        ["perf.cache.key", 10, 40, 2, 1, None],
        ["perf.cache.key", 50, 60, 3, 1, None],
    ]}])
    assert spans.total["perf.cache.get"] == pytest.approx(100e-9)
    assert spans.self_s["perf.cache.get"] == pytest.approx(60e-9)
    m = layers.span_metrics(spans)
    assert m["perf.cache.key_calls"] == 2 and m["perf.cache.hits"] == 1


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_smoke(name, tmp_path):
    result = run.measure(name, 0, 0, True, tmp_path, setup_reps=1,
                         max_iters=1)
    assert result["failures"] == [] and result["failed"] == 0
    assert result["iterations"] == 1
    run.check_names(result, SPEC)
    assert all(v > 0 for v in result["end_to_end"].values())
    assert result["missing"] == []
    assert (tmp_path / f"trace-{name}.json").is_file()
