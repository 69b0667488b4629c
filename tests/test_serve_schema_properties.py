"""Canonicalization properties of the serve schema.

:meth:`Query.canonical` claims "equal questions render to equal
bytes" — this suite makes the claim a property over all seven query
kinds: canonicalization is idempotent, ``key()`` is insensitive to
param order, device-name case and the client ``id`` tag, and an
explicitly spelled default equals an omission (for defaults that are
real values — the ``None`` defaults of ``experiment`` deliberately
stay out of the canonical form, pinned separately below).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings

from repro.fuzz.strategies import query_payloads
from repro.serve.schema import (
    KIND_PARAMS,
    KINDS,
    Query,
    parse_query,
    parse_query_line,
)

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
