"""The typed query/prediction schema of the cost-oracle service.

A :class:`Query` is one *what-if* question against the simulator:
"on this device, at this precision, how fast is this kernel / LLM
config / experiment family?".  Queries are frozen, validated at
construction, and **canonically serializable** — :meth:`Query.canonical`
renders the same question to the same bytes no matter how the caller
spelled it (key order, case of the device name, int-vs-float of a
size), which is what makes query de-duplication and content-addressed
caching sound.

A :class:`Prediction` is the answer: a status (``ok`` /
``unsupported`` / ``oom`` / ``error``), a flat ``metrics`` map of
named floats, and a human-readable ``reason`` when the status is not
``ok``.  Unsupported *capability* combinations (wgmma on Volta, FP8 on
Ampere) are first-class answers, never exceptions — the service keeps
streaming.  Predictions serialize to canonical JSONL lines, so
identical query batches produce byte-identical prediction streams
(the property the serial-vs-parallel and cold-vs-warm determinism
tests pin).

The schema is deliberately flat: ``params`` is a string→scalar map
whose legal keys are declared per kind in :data:`KIND_PARAMS`.  That
keeps the JSONL wire format trivial (one object per line) while the
per-kind validators reject typos and out-of-domain values up front
with a :class:`QueryError` naming the field.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from repro.arch import get_device

__all__ = [
    "KINDS",
    "KIND_PARAMS",
    "Query",
    "Prediction",
    "QueryError",
    "parse_query",
    "parse_query_line",
]

#: schema tag stamped into serialized predictions; bump on breaking
#: shape changes (mirrors the ``hopperdissect.counters/vN`` convention)
PREDICTION_SCHEMA = "hopperdissect.prediction/v1"

#: the one encoder behind every canonical query form and response
#: line: sorted keys, compact separators (``json.dumps`` with those
#: options builds a fresh encoder per call)
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


class QueryError(ValueError):
    """A malformed query: unknown kind, bad field, out-of-domain value.

    Raised at parse/validation time only — a well-formed query for an
    *unsupported capability* is answered with a structured
    ``Prediction(status="unsupported")`` instead.
    """


def _pos_int(name: str, lo: int = 1, hi: int = 2 ** 24):
    def check(v):
        if not isinstance(v, int) or isinstance(v, bool) \
                or not lo <= v <= hi:
            raise QueryError(
                f"param {name!r} must be an integer in "
                f"[{lo}, {hi}], got {v!r}")
        return v
    return check


def _choice(name: str, *options: str):
    def check(v):
        if not isinstance(v, str) or v.lower() not in options:
            raise QueryError(
                f"param {name!r} must be one of {sorted(options)}, "
                f"got {v!r}")
        return v.lower()
    return check


def _flag(name: str):
    def check(v):
        if not isinstance(v, bool):
            raise QueryError(
                f"param {name!r} must be a boolean, got {v!r}")
        return v
    return check


def _ident(name: str):
    def check(v):
        if not isinstance(v, str) or not v:
            raise QueryError(
                f"param {name!r} must be a non-empty string, "
                f"got {v!r}")
        return v
    return check


#: per-kind parameter spec: name -> (required, default, validator).
#: Validators normalise (lower-case choices) as well as check, so the
#: canonical form of a query is spelling-independent.
KIND_PARAMS: Dict[str, Dict[str, Tuple[bool, Any, Any]]] = {
    # one te.Linear GEMM (m x k) @ (k x n) at a precision
    "te.linear": {
        "m": (True, None, _pos_int("m")),
        "n": (True, None, _pos_int("n")),
        "k": (True, None, _pos_int("k")),
    },
    # decode-only LLM generation throughput (paper Table XII shape)
    "llm.generate": {
        "model": (True, None, _ident("model")),
        "batch": (False, 8, _pos_int("batch", 1, 4096)),
        "input_len": (False, 128, _pos_int("input_len", 1, 65536)),
        "output_len": (False, 128, _pos_int("output_len", 1, 65536)),
    },
    # one warp-level mma instruction (paper Table VII shape grid)
    "mma": {
        "ab": (True, None, _ident("ab")),
        "cd": (True, None, _ident("cd")),
        "m": (True, None, _pos_int("m", 1, 256)),
        "n": (True, None, _pos_int("n", 1, 256)),
        "k": (True, None, _pos_int("k", 1, 256)),
        "sparse": (False, False, _flag("sparse")),
    },
    # one warp-group wgmma instruction (paper Tables VIII-X)
    "wgmma": {
        "ab": (True, None, _ident("ab")),
        "cd": (True, None, _ident("cd")),
        "n": (True, None, _pos_int("n", 8, 256)),
        "sparse": (False, False, _flag("sparse")),
        "a_source": (False, "ss", _choice("a_source", "ss", "rs")),
    },
    # pointer-chase latency of a footprint at a stride
    "memory.latency": {
        "footprint_kib": (True, None,
                          _pos_int("footprint_kib", 1, 4096)),
        "stride_bytes": (False, 128,
                         _pos_int("stride_bytes", 4, 65536)),
    },
    # SM-to-SM fabric bandwidth/latency at a cluster size
    "dsm.bandwidth": {
        "cluster_size": (True, None, _pos_int("cluster_size", 1, 64)),
    },
    # a whole registered experiment family (falls back to the
    # experiment runner + result cache, not the point-query grid path)
    "experiment": {
        "name": (True, None, _ident("name")),
        "seed": (False, None, _pos_int("seed", 0, 2 ** 31)),
    },
}

KINDS: Tuple[str, ...] = tuple(sorted(KIND_PARAMS))

#: per kind: the legal param names, and each param's spec in name
#: order (the order of the canonical form) — built once, walked per
#: query
_PARAM_TABLES = {
    kind: (frozenset(spec),
           tuple((name,) + spec[name] for name in sorted(spec)))
    for kind, spec in KIND_PARAMS.items()
}


def _validated_params(kind: str, params: Mapping[str, Any]) \
        -> Tuple[Tuple[str, Any], ...]:
    legal, ordered = _PARAM_TABLES[kind]
    unknown = params.keys() - legal
    if unknown:
        raise QueryError(
            f"unknown param(s) {sorted(unknown)} for kind {kind!r}; "
            f"legal params: {sorted(legal)}")
    out = []
    for name, required, default, check in ordered:
        if name in params:
            out.append((name, check(params[name])))
        elif required:
            raise QueryError(
                f"kind {kind!r} requires param {name!r}")
        elif default is not None:
            # None defaults mean "inherit from the service context"
            # (experiment seed) and stay out of the canonical
            # form so an explicit default and an omission differ only
            # when they should
            out.append((name, default))
    return tuple(out)


@dataclass(frozen=True)
class Query:
    """One typed what-if question.

    ``device`` is a registered device name (canonicalised to upper
    case); ``precision`` applies to the compute kinds and is one of
    ``fp32/fp16/bf16/fp8`` (te/llm) or ignored for kinds that carry
    dtypes in ``params``.  ``qid`` is an opaque client tag echoed on
    the prediction — excluded from identity, so two clients asking the
    same question under different tags share one computation.
    """

    kind: str
    device: str = ""
    precision: Optional[str] = None
    #: a mapping or ``(name, value)`` pairs; stored validated, as pairs
    #: in name order
    params: Union[Mapping[str, Any], Tuple[Tuple[str, Any], ...]] = ()
    qid: Optional[str] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in KIND_PARAMS:
            raise QueryError(
                f"unknown query kind {self.kind!r}; legal kinds: "
                f"{list(KINDS)}")
        if self.kind != "experiment":
            if not self.device:
                raise QueryError(
                    f"kind {self.kind!r} requires a device")
            try:
                get_device(self.device)
            except KeyError as exc:
                # the registry's did-you-mean message, re-raised as a
                # parse error so answer_lines keeps it in-stream
                raise QueryError(
                    exc.args[0] if exc.args else str(exc)) from None
            object.__setattr__(self, "device", self.device.upper())
        elif self.device:
            object.__setattr__(self, "device", self.device.upper())
        if self.precision is not None:
            p = str(self.precision).lower()
            if p not in ("fp32", "fp16", "bf16", "fp8"):
                raise QueryError(
                    f"unknown precision {self.precision!r}; expected "
                    "fp32/fp16/bf16/fp8")
            object.__setattr__(self, "precision", p)
        elif self.kind in ("te.linear", "llm.generate"):
            raise QueryError(
                f"kind {self.kind!r} requires a precision")
        params = self.params
        object.__setattr__(
            self, "params",
            _validated_params(self.kind, params
                              if isinstance(params, dict)
                              else dict(params)))

    # -- convenience access -------------------------------------------------

    def param(self, name: str, default: Any = None) -> Any:
        for key, value in self.params:
            if key == name:
                return value
        return default

    # -- canonical identity -------------------------------------------------

    def to_payload(self, *, with_qid: bool = True) -> Dict[str, Any]:
        """The JSONL wire form (plain dict, canonical field values)."""
        payload: Dict[str, Any] = {"kind": self.kind}
        if self.device:
            payload["device"] = self.device
        if self.precision is not None:
            payload["precision"] = self.precision
        if self.params:
            payload["params"] = dict(self.params)
        if with_qid and self.qid is not None:
            payload["id"] = self.qid
        return payload

    def canonical(self) -> str:
        """Canonical serialization: sorted keys, compact separators,
        the client tag excluded — equal questions render to equal
        bytes.  Memoized: the fields are frozen, and the shard's
        content key and :meth:`key` may each render the same query."""
        cached = self.__dict__.get("_canonical")
        if cached is None:
            cached = _encode(self.to_payload(with_qid=False))
            object.__setattr__(self, "_canonical", cached)
        return cached

    def key(self) -> str:
        """Content digest of the canonical form — the dedup/cache
        identity of the question itself (the service layers version
        and device-spec digests on top for storage keys)."""
        return hashlib.sha256(self.canonical().encode()).hexdigest()


#: the legal top-level fields of a wire query
_QUERY_FIELDS = frozenset({"kind", "device", "precision", "params", "id"})


def parse_query(obj: Any) -> Query:
    """Build a :class:`Query` from a decoded JSON object."""
    if not isinstance(obj, dict):
        raise QueryError(f"query must be a JSON object, got "
                         f"{type(obj).__name__}")
    unknown = obj.keys() - _QUERY_FIELDS
    if unknown:
        raise QueryError(
            f"unknown query field(s) {sorted(unknown)}; legal fields: "
            f"{sorted(_QUERY_FIELDS)}")
    if "kind" not in obj:
        raise QueryError("query needs a 'kind' field")
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise QueryError("'params' must be an object")
    qid = obj.get("id")
    if qid is not None and not isinstance(qid, str):
        raise QueryError("'id' must be a string")
    return Query(
        kind=str(obj["kind"]),
        device=str(obj.get("device", "") or ""),
        precision=obj.get("precision"),
        params=params,
        qid=qid,
    )


def parse_query_line(line: str) -> Query:
    """Parse one JSONL request line."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise QueryError(f"bad JSON: {exc}") from None
    return parse_query(obj)


@dataclass(frozen=True)
class Prediction:
    """The service's answer to one :class:`Query`.

    ``metrics`` maps metric name → float (already-rounded model
    outputs; canonical JSON float repr keeps equal values
    byte-identical).  ``status`` is ``ok``, ``unsupported`` (the
    device lacks the capability — the reason names the gate),
    ``oom`` (the LLM config exceeds device memory) or ``error``
    (malformed request answered in-stream).
    """

    status: str
    kind: str = ""
    device: str = ""
    metrics: Tuple[Tuple[str, float], ...] = ()
    reason: Optional[str] = None
    qid: Optional[str] = field(default=None, compare=False)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def metric(self, name: str, default: float = float("nan")) -> float:
        for key, value in self.metrics:
            if key == name:
                return value
        return default

    def with_qid(self, qid: Optional[str]) -> "Prediction":
        """This answer under the client tag ``qid``.  The copy shares
        the tag-free line encoded here, so every caller asking the same
        question reuses one encoding."""
        self._halves()
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__, qid=qid)
        return twin

    def to_payload(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "schema": PREDICTION_SCHEMA,
            "status": self.status,
            "kind": self.kind,
        }
        if self.device:
            payload["device"] = self.device
        if self.metrics:
            payload["metrics"] = dict(self.metrics)
        if self.reason is not None:
            payload["reason"] = self.reason
        if self.qid is not None:
            payload["id"] = self.qid
        return payload

    def to_line(self) -> str:
        """The canonical JSONL response line (sorted keys, compact) —
        equal predictions serialize byte-identically.  The tag goes
        where sorting puts it: after ``"device"`` and before
        ``"kind"``, which every line carries."""
        head, tail = self._halves()
        if self.qid is None:
            return head + tail
        return f'{head}"id":{_encode(self.qid)},{tail}'

    def _halves(self) -> Tuple[str, str]:
        """The tag-free line split where the tag belongs.  Memoized:
        the fields are frozen and the tag is not among them."""
        halves = self.__dict__.get("_line")
        if halves is None:
            payload = self.to_payload()
            payload.pop("id", None)
            line = _encode(payload)
            # '{"device":' + the encoded device + ','
            at = 11 + len(_encode(self.device)) if self.device else 1
            halves = (line[:at], line[at:])
            object.__setattr__(self, "_line", halves)
        return halves

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "Prediction":
        return cls(
            status=str(payload["status"]),
            kind=str(payload.get("kind", "")),
            device=str(payload.get("device", "")),
            metrics=tuple(payload.get("metrics", {}).items()),
            reason=payload.get("reason"),
            qid=payload.get("id"),
        )

    @classmethod
    def unsupported(cls, query: Query, reason: str) -> "Prediction":
        return cls(status="unsupported", kind=query.kind,
                   device=query.device, reason=reason, qid=query.qid)

    @classmethod
    def error(cls, reason: str, *, kind: str = "",
              device: str = "", qid: Optional[str] = None) \
            -> "Prediction":
        return cls(status="error", kind=kind, device=device,
                   reason=reason, qid=qid)
