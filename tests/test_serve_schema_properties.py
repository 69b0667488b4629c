"""Canonicalization properties of the serve schema.

:meth:`Query.canonical` claims "equal questions render to equal
bytes" — this suite makes the claim a property over all seven query
kinds: canonicalization is idempotent, ``key()`` is insensitive to
param order, device-name case and the client ``id`` tag, and an
explicitly spelled default equals an omission (for defaults that are
real values — the ``None`` defaults of ``experiment`` deliberately
stay out of the canonical form, pinned separately below).  The
planner dedups on a query's value, so value equality must coincide
with canonical-form equality.

The response side: :meth:`Prediction.to_line` splices the client tag
into a memoized tag-free line, and must equal one ``json.dumps`` of
the whole payload (:func:`reference.prediction_line`) for every
prediction and every tag, copies of copies included.
"""

from __future__ import annotations

import json
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import prediction_line
from repro.serve.schema import (
    KIND_PARAMS,
    KINDS,
    Prediction,
    Query,
    parse_query,
    parse_query_line,
)
from strategies import json_text, predictions, query_payloads

_SETTINGS = settings(max_examples=200, derandomize=True,
                     deadline=None)


@_SETTINGS
@given(payload=query_payloads())
def test_canonical_is_idempotent(payload):
    q = parse_query(payload)
    again = parse_query_line(q.canonical())
    assert again.canonical() == q.canonical()
    assert again.key() == q.key()


@_SETTINGS
@given(payload=query_payloads())
def test_key_ignores_param_order(payload):
    q = parse_query(payload)
    shuffled = dict(payload)
    shuffled["params"] = dict(
        reversed(list(payload.get("params", {}).items())))
    assert parse_query(shuffled).key() == q.key()


@_SETTINGS
@given(payload=query_payloads())
def test_key_ignores_client_tag_and_device_case(payload):
    q = parse_query(payload)
    relabeled = dict(payload)
    relabeled["id"] = "another-tag"
    if "device" in relabeled:
        relabeled["device"] = relabeled["device"].lower()
    other = parse_query(relabeled)
    assert other.key() == q.key()
    # the tag survives on the query itself, outside identity
    assert other.qid == "another-tag"


@_SETTINGS
@given(payload=query_payloads())
def test_canonical_round_trips_the_wire_form(payload):
    q = parse_query(payload)
    wire = json.loads(q.canonical())
    assert parse_query(wire) == q


_MINIMAL = {
    "te.linear": {"device": "H800", "precision": "fp16",
                  "params": {"m": 64, "n": 64, "k": 64}},
    "llm.generate": {"device": "H800", "precision": "fp8",
                     "params": {"model": "llama-3B"}},
    "mma": {"device": "A100",
            "params": {"ab": "fp16", "cd": "fp32",
                       "m": 16, "n": 8, "k": 16}},
    "wgmma": {"device": "H800",
              "params": {"ab": "fp16", "cd": "fp32", "n": 64}},
    "memory.latency": {"device": "A100",
                       "params": {"footprint_kib": 256}},
    "dsm.bandwidth": {"device": "H800",
                      "params": {"cluster_size": 4}},
    "experiment": {"params": {"name": "table07_mma"}},
}


@pytest.mark.parametrize("kind", KINDS)
def test_explicit_default_equals_omission(kind):
    """Spelling out a (non-``None``) default answers the same
    question as leaving it out."""
    base = dict(_MINIMAL[kind])
    omitted = parse_query({"kind": kind, **base})
    params = dict(base["params"])
    explicit_any = False
    for name, (_required, default, _check) in KIND_PARAMS[kind].items():
        if default is not None and name not in params:
            params[name] = default
            explicit_any = True
    explicit = parse_query({"kind": kind, **base, "params": params})
    assert explicit.key() == omitted.key()
    assert explicit.canonical() == omitted.canonical()
    if not explicit_any:
        # kinds without real defaults still canonicalize stably
        assert omitted == explicit


def test_none_defaults_stay_out_of_canonical_form():
    """``experiment`` seed defaults to "inherit from the service
    context" — an explicit value must *not* collapse onto the
    omission."""
    plain = parse_query({"kind": "experiment",
                         "params": {"name": "table07_mma"}})
    pinned = parse_query({"kind": "experiment",
                          "params": {"name": "table07_mma",
                                     "seed": 0}})
    assert "seed" not in json.loads(plain.canonical()).get(
        "params", {})
    assert pinned.key() != plain.key()


def test_every_kind_has_a_minimal_fixture():
    assert set(_MINIMAL) == set(KINDS)


def test_query_equality_tracks_key():
    a = parse_query({"kind": "mma", "device": "a100",
                     "params": {"ab": "fp16", "cd": "fp32",
                                "m": 16, "n": 8, "k": 16,
                                "sparse": False}})
    b = Query(kind="mma", device="A100",
              params=(("cd", "fp32"), ("ab", "fp16"),
                      ("m", 16), ("n", 8), ("k", 16)))
    assert a == b
    assert a.key() == b.key()


def _respelled(payload: dict) -> dict:
    """The same question: params reversed, device lower-cased, another
    client tag."""
    out = dict(payload, id="respelled")
    out["params"] = dict(reversed(list(payload["params"].items())))
    if "device" in out:
        out["device"] = out["device"].lower()
    return out


@_SETTINGS
@given(data=st.data())
def test_query_equality_is_canonical_equality(data):
    """The planner's dedup key: equal values ⇔ equal canonical forms,
    and equal queries hash equal."""
    kind = data.draw(st.sampled_from(KINDS))
    first = data.draw(query_payloads(kind))
    second = _respelled(first) if data.draw(st.booleans()) \
        else data.draw(query_payloads(kind))
    a, b = parse_query(first), parse_query(second)
    assert (a == b) == (a.canonical() == b.canonical())
    if a == b:
        assert hash(a) == hash(b)


_TAGS = st.one_of(st.none(), json_text)


@_SETTINGS
@given(prediction=predictions(), tags=st.lists(_TAGS, max_size=3))
def test_to_line_equals_encoding_the_whole_payload(prediction, tags):
    chain = [prediction]
    for tag in tags:
        chain.append(chain[-1].with_qid(tag))
    for p in chain:
        assert p.to_line() == prediction_line(p)
        json.loads(p.to_line())


@_SETTINGS
@given(prediction=predictions(), tag=_TAGS)
def test_with_qid_keeps_every_other_field(prediction, tag):
    before = prediction_line(prediction)
    copy = prediction.with_qid(tag)
    assert copy.qid == tag
    for f in fields(Prediction):
        if f.name != "qid":
            assert getattr(copy, f.name) is getattr(prediction, f.name)
    assert prediction.to_line() == before
    copy.with_qid("another").to_line()
    assert prediction.to_line() == before
