"""The batching planner — from a query stream to vectorized shards.

The service's unit of dispatch is the **shard**: all unique queries of
one kind against one device, in first-appearance order.  Coalescing by
``(device, kind)`` is what lets the oracle route a shard onto a single
vectorized engine call (one ``linear_seconds_batch``, one
:class:`~repro.tensorcore.timing.MmaSweep`) instead of N point calls,
and partitioning by device is what lets the dispatch layer fan shards
out across the process pool with no shared state.

De-duplication happens here, against the whole batch: equal queries
collapse onto one computation, and the plan's ``expansion`` maps every
input position back to its (shard, slot) so the answer stream comes
back in input order with each caller's own ``id`` tag re-attached.
Equality is the query's value with the ``id`` tag left out.  The
validators fix each param's type and spelling, so two queries are
equal exactly when their :meth:`~repro.serve.schema.Query.canonical`
forms are; the canonical form is rendered once per distinct query, to
key its shard (:meth:`Shard.content_key`).

Everything is deterministic in the input stream alone: shard order is
(kind, device) sorted, slot order is first appearance.  Two runs over
the same JSONL batch therefore build byte-identical plans — the
foundation under the serial-vs-parallel and cold-vs-warm tripwires.

Family-level queries (``kind == "experiment"``) do not shard per
device; they group by their derived run-context parameters instead and
fall back to the experiment runner (see
:mod:`repro.serve.service`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.serve.schema import Query

__all__ = ["Shard", "Plan", "plan_queries"]


@dataclass
class Shard:
    """All unique queries of one (kind, device) — one dispatch unit."""

    kind: str
    device: str
    queries: List[Query] = field(default_factory=list)
    _seen: Dict[Query, int] = field(default_factory=dict, repr=False)

    def slot_for(self, query: Query) -> int:
        """The slot answering ``query``, appending it when new."""
        slot = self._seen.get(query)
        if slot is None:
            slot = self._seen[query] = len(self.queries)
            self.queries.append(query)
        return slot

    def content_key(self) -> str:
        """Content digest of the shard's question set — the identity
        the prediction-cache tier stores shard answers under.  Covers
        the unique canonical queries in slot order (slot order matters:
        cached counter deltas replay against it)."""
        h = hashlib.sha256()
        h.update(f"{self.kind}@{self.device}\n".encode())
        for q in self.queries:
            h.update(q.canonical().encode())
            h.update(b"\n")
        return h.hexdigest()


@dataclass
class Plan:
    """The batch's execution shape.

    ``shards`` in deterministic (kind, device) order; ``expansion``
    maps each input position to ``(shard_index, slot)``; ``errors``
    holds per-position parse/validation failures answered in-stream
    (position → reason) so one bad line never aborts a batch.
    """

    shards: List[Shard]
    expansion: List[Tuple[int, int]]
    n_queries: int
    n_duplicates: int


def plan_queries(queries: Sequence[Query]) -> Plan:
    """Group ``queries`` into deduplicated per-(kind, device) shards."""
    shards: Dict[Tuple[str, str], Shard] = {}
    placements: List[Tuple[Tuple[str, str], int]] = []
    duplicates = 0
    for q in queries:
        group = (q.kind, q.device)
        shard = shards.get(group)
        if shard is None:
            shard = shards[group] = Shard(kind=q.kind, device=q.device)
        before = len(shard.queries)
        slot = shard.slot_for(q)
        if len(shard.queries) == before:
            duplicates += 1
        placements.append((group, slot))
    ordered = sorted(shards)
    index_of = {group: i for i, group in enumerate(ordered)}
    return Plan(
        shards=[shards[g] for g in ordered],
        expansion=[(index_of[g], slot) for g, slot in placements],
        n_queries=len(queries),
        n_duplicates=duplicates,
    )
