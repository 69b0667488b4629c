"""In-stream error handling, exhaustively across every query kind.

The serve contract: **one bad line never aborts a batch**.  Malformed
JSON, unknown devices, out-of-domain params — each is answered with a
``status="error"`` prediction *in position*, the client tag echoed,
and every well-formed neighbour in the stream still gets its real
answer.  This suite drives a bad line of every flavour through every
kind, always sandwiched between good queries.
"""

from __future__ import annotations

import json

import pytest

from repro.serve import QueryService
from repro.serve.schema import KINDS

#: a known-good query per kind (cheap, supported on its device)
_GOOD = {
    "te.linear": {"kind": "te.linear", "device": "H800",
                  "precision": "fp16",
                  "params": {"m": 64, "n": 64, "k": 64}},
    "llm.generate": {"kind": "llm.generate", "device": "H800",
                     "precision": "fp16",
                     "params": {"model": "llama-3B", "batch": 1}},
    "mma": {"kind": "mma", "device": "A100",
            "params": {"ab": "fp16", "cd": "fp32",
                       "m": 16, "n": 8, "k": 16}},
    "wgmma": {"kind": "wgmma", "device": "H800",
              "params": {"ab": "fp16", "cd": "fp32", "n": 64}},
    "memory.latency": {"kind": "memory.latency", "device": "A100",
                       "params": {"footprint_kib": 16}},
    "dsm.bandwidth": {"kind": "dsm.bandwidth", "device": "H800",
                      "params": {"cluster_size": 2}},
    "experiment": {"kind": "experiment",
                   "params": {"name": "no_such_experiment"}},
}

#: a bad-params variant per kind (schema-level rejection)
_BAD_PARAMS = {
    "te.linear": {"kind": "te.linear", "device": "H800",
                  "precision": "fp16",
                  "params": {"m": 0, "n": 64, "k": 64}},
    "llm.generate": {"kind": "llm.generate", "device": "H800",
                     "precision": "fp16",
                     "params": {"model": "llama-3B", "batch": -2}},
    "mma": {"kind": "mma", "device": "A100",
            "params": {"ab": "fp16", "cd": "fp32",
                       "m": 16, "n": 8, "k": 16, "sparse": "yes"}},
    "wgmma": {"kind": "wgmma", "device": "H800",
              "params": {"ab": "fp16", "cd": "fp32", "n": 64,
                         "a_source": "tt"}},
    "memory.latency": {"kind": "memory.latency", "device": "A100",
                       "params": {"footprint_kib": 16,
                                  "stride_bytes": 1}},
    "dsm.bandwidth": {"kind": "dsm.bandwidth", "device": "H800",
                      "params": {"cluster_size": 999}},
    "experiment": {"kind": "experiment",
                   "params": {"name": "table07_mma", "seed": -1}},
}


def _lines(middle: str) -> list:
    """The bad line under test, sandwiched mid-batch."""
    return [
        json.dumps({**_GOOD["mma"], "id": "head"}),
        middle,
        json.dumps({**_GOOD["wgmma"], "id": "tail"}),
    ]


def _answer(lines):
    predictions = QueryService(cache=None).answer_lines(lines)
    assert len(predictions) == len(lines)
    head, bad, tail = predictions
    # the neighbours always get their real answers
    assert head.qid == "head" and head.status == "ok"
    assert tail.qid == "tail" and tail.status == "ok"
    return bad


@pytest.mark.parametrize("kind", KINDS)
def test_bad_params_answered_in_stream(kind):
    bad = _answer(_lines(json.dumps(
        {**_BAD_PARAMS[kind], "id": "bad"})))
    assert bad.status == "error"
    assert bad.qid == "bad"
    assert bad.reason


@pytest.mark.parametrize("kind",
                         [k for k in KINDS if k != "experiment"])
def test_unknown_device_answered_in_stream(kind):
    payload = {**_GOOD[kind], "device": "H801", "id": "bad"}
    bad = _answer(_lines(json.dumps(payload)))
    assert bad.status == "error"
    assert bad.qid == "bad"
    assert "did you mean" in bad.reason


#: an unknown param per kind, plus ``fidelity`` on ``experiment``,
#: which older clients still send
_UNKNOWN_PARAMS = [pytest.param(kind, "warp", 1, id=kind)
                   for kind in KINDS] + [
    pytest.param("experiment", "fidelity", "full",
                 id="experiment-fidelity")]


@pytest.mark.parametrize("kind, name, value", _UNKNOWN_PARAMS)
def test_unknown_param_answered_in_stream(kind, name, value):
    payload = dict(_GOOD[kind])
    payload["params"] = {**payload["params"], name: value}
    bad = _answer(_lines(json.dumps({**payload, "id": "bad"})))
    assert bad.status == "error"
    assert bad.qid == "bad"
    assert name in bad.reason


def test_malformed_json_mid_batch():
    bad = _answer(_lines("{this is not json"))
    assert bad.status == "error"
    assert "bad JSON" in bad.reason


def test_unknown_experiment_name_stays_in_stream():
    """Family queries route through the runner fallback — an unknown
    name is still a per-line error, not an exception."""
    bad = _answer(_lines(json.dumps(
        {**_GOOD["experiment"], "id": "bad"})))
    assert bad.status == "error"
    assert bad.qid == "bad"
    assert "no_such_experiment" in bad.reason


def test_every_kind_has_fixtures():
    assert set(_GOOD) == set(KINDS)
    assert set(_BAD_PARAMS) == set(KINDS)


def test_all_kinds_of_bad_in_one_batch():
    """Seven bad lines of seven flavours in one stream: each is
    answered in position, the batch never aborts."""
    lines = [json.dumps({**_GOOD["mma"], "id": "g0"})]
    lines += [json.dumps({**_BAD_PARAMS[k], "id": f"bad-{k}"})
              for k in KINDS]
    lines.append(json.dumps({**_GOOD["te.linear"], "id": "g1"}))
    predictions = QueryService(cache=None).answer_lines(lines)
    assert len(predictions) == len(lines)
    assert predictions[0].status == "ok"
    assert predictions[-1].status == "ok"
    for p, kind in zip(predictions[1:-1], KINDS):
        assert p.status == "error", kind
        assert p.qid == f"bad-{kind}"
