"""``repro.serve`` — the simulator as an interactive cost oracle.

The experiment stack answers *families* of questions (build Table VII,
sweep the memory hierarchy); this package answers *point* questions —
"how long does this GEMM take on an H800 at FP8?" — interactively and
in bulk, over the same device models, without running any experiment
builder.

Layers, bottom up:

* :mod:`~repro.serve.schema` — the typed, canonically-serializable
  :class:`Query`/:class:`Prediction` wire format;
* :mod:`~repro.serve.oracle` — warm per-device models answering
  ordered groups of same-kind queries through the vectorized engines;
* :mod:`~repro.serve.planner` — de-duplication and coalescing of a
  batch into per-(kind, device) shards;
* :mod:`~repro.serve.dispatch` — shards onto the process pool, fresh
  nested observability session per shard, deltas merged in plan order;
* :mod:`~repro.serve.service` — the cache tiers (in-process memo +
  persistent blob tier with counter-delta replay) and the JSONL
  request loop behind ``hopperdissect serve`` / ``query``.

Everything here is *read-only* over the architecture packs: a query
can never change what an experiment would compute, and the
serial-vs-parallel / cold-vs-warm determinism tests pin that the
service's caching and fan-out change wall time only.
"""

from repro.serve.planner import Plan, Shard, plan_queries
from repro.serve.schema import (
    KINDS,
    Prediction,
    Query,
    QueryError,
    parse_query,
    parse_query_line,
)
from repro.serve.service import QueryService

__all__ = [
    "KINDS",
    "CostOracle",
    "Plan",
    "Shard",
    "Prediction",
    "Query",
    "QueryError",
    "QueryService",
    "parse_query",
    "parse_query_line",
    "plan_queries",
]


def __getattr__(name: str):
    # the oracle pulls in numpy and the engines; a batch answered from
    # the blob tier never needs it, so it loads on first access
    if name == "CostOracle":
        from repro.serve.oracle import CostOracle

        return CostOracle
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
