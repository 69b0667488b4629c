"""The query service — plan, cache, dispatch, merge, expand.

:class:`QueryService` is the long-lived object behind ``hopperdissect
serve``/``query``: it takes a batch of :class:`~repro.serve.schema.Query`
objects (or raw JSONL lines), coalesces them into per-(kind, device)
shards (:mod:`repro.serve.planner`), answers each shard once
(:mod:`repro.serve.dispatch`) and expands the answers back to input
order with each caller's ``id`` tag re-attached.

Two cache tiers sit between planning and dispatch, both addressed by a
**storage key** layered over the shard's content digest (package
version, base-context token, device-spec digest, observability mode,
and — for family shards — the experiment tier's keys):

* an in-process **memo** — the warm-service fast path;
* the persistent blob tier of the shared content-addressed
  :class:`~repro.perf.cache.ResultCache` — what makes a cold process
  warm-start from a previous run's answers.  The cache mixes its
  source digest into every blob address, so an edit to any
  non-orchestration ``repro`` module re-keys every stored shard; the
  memo lives and dies with one process and needs no source in its
  key.

A cached entry stores the prediction payloads *and* the shard's
counter delta; warm hits **replay** the stored delta into the live
session exactly where a fresh compute would have merged its own.
That — plus keeping the cache probes themselves out of the session
(they run under a muted session, tallied in the service's private
``stats`` bank instead, because hit/miss sequences are precisely what
cold and warm runs do *not* share) — is why cold-vs-warm and
serial-vs-parallel runs of one batch produce byte-identical prediction
streams *and* counter dumps.

The session bank only ever receives values that are pure functions of
the input stream (``serve.queries``, ``serve.batch.size``, the per-shard
model counters); wall-clock stage latencies (``serve.wall.*``) and
cache-tier tallies live in the private ``stats`` bank, surfaced via
:meth:`QueryService.stats_payload` (CLI ``--stats-json``) — the same
wall-time-never-enters-counter-banks rule the rest of the repo holds.
"""

from __future__ import annotations

import hashlib
import json
import time
from collections import OrderedDict
from contextlib import contextmanager
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.context import DEFAULT_CONTEXT, RunContext
from repro.obs import session as _obs
from repro.obs.counters import CounterSet
from repro.serve.dispatch import dispatch_shards, shard_label
from repro.serve.planner import Plan, Shard, plan_queries
from repro.serve.schema import (
    Prediction,
    Query,
    QueryError,
    parse_query_line,
)

__all__ = ["QueryService", "STATS_SCHEMA", "default_memo_entries"]

#: schema tag of the ``--stats-json`` payload
STATS_SCHEMA = "hopperdissect.serve.stats/v1"

#: default bound of the in-process memo (shard entries, LRU) — an
#: always-on service must not grow either cache tier without limit
_MEMO_DEFAULT = 512


def default_memo_entries() -> Optional[int]:
    """``$HOPPERDISSECT_SERVE_MEMO_MAX_ENTRIES`` — the warm-tier
    sibling of the on-disk tier's ``$HOPPERDISSECT_CACHE_MAX_ENTRIES``,
    read by the same parser.  Unset means the bounded default; ``0``
    means unbounded (an explicit opt-out)."""
    from repro.perf.cache import env_bound

    return env_bound("HOPPERDISSECT_SERVE_MEMO_MAX_ENTRIES",
                     _MEMO_DEFAULT)

#: blob-tier namespace of shard-level prediction entries
_BLOB_KIND = "serve-shard"

#: one resolved entry: (predictions in slot order, counter delta).
#: The blob tier stores the payload form of the same pair; payload
#: encode/decode is the identity on canonical predictions, so memo
#: hits, blob hits and fresh computes expand identically.
_Entry = Tuple[List[Prediction], Optional[Dict[str, Any]]]


@contextmanager
def _muted():
    """Run with no active session — cache probes under here reach the
    service's private stats only, never the deterministic bank."""
    previous = _obs.ACTIVE
    _obs.ACTIVE = None
    try:
        yield
    finally:
        _obs.ACTIVE = previous


class QueryService:
    """A warm batch-answering front end over the device models.

    ``cache=None`` disables the persistent tier (the in-process memo
    still dedups repeat batches); ``jobs`` fans un-cached shards over
    the process pool.  ``context`` is the base
    :class:`~repro.core.context.RunContext` family-level queries
    derive from (hook dropped — the service owns observability).
    """

    def __init__(self, *, context: Optional[RunContext] = None,
                 cache: Optional[Any] = None, jobs: int = 1,
                 memo_entries: Optional[int] = None) -> None:
        self.context = (DEFAULT_CONTEXT if context is None
                        else context).without_hook()
        self.cache = cache
        self.jobs = max(1, int(jobs))
        if memo_entries is None:
            memo_entries = default_memo_entries()
        elif memo_entries <= 0:
            memo_entries = None
        self.memo_entries = memo_entries
        #: private bank: cache-tier tallies + wall-stage histograms.
        #: Deliberately not the session's — see the module docstring.
        self.stats = CounterSet()
        self._memo: "OrderedDict[str, _Entry]" = OrderedDict()
        #: derives experiment-family keys (see _experiment_key)
        self._keys: Optional[Any] = None

    # -- the memo tier ------------------------------------------------------

    def _memo_get(self, key: str) -> Optional[_Entry]:
        entry = self._memo.get(key)
        if entry is not None:
            self._memo.move_to_end(key)
        return entry

    def _memo_put(self, key: str, entry: _Entry) -> _Entry:
        """Insert under the LRU bound; evictions only drop warm-start
        state, never answers, so the bound cannot affect output."""
        self._memo[key] = entry
        self._memo.move_to_end(key)
        if self.memo_entries is not None:
            while len(self._memo) > self.memo_entries:
                self._memo.popitem(last=False)
                self.stats.add("serve.memo.evictions")
        return entry

    # -- storage keys -------------------------------------------------------

    def _storage_key(self, shard: Shard, obs: bool) -> str:
        """The cache identity of one shard's answers.

        Layers everything that can change a prediction *or* its
        counter delta over the shard's content digest; ``obs`` is part
        of the key because entries cached with observability off carry
        no delta to replay.
        """
        import repro
        from repro.perf.cache import device_digest

        devices = (shard.device,) if shard.device \
            else self.context.devices
        h = hashlib.sha256()
        h.update(f"version={repro.__version__}\n".encode())
        h.update(f"context={self.context.token()}\n".encode())
        try:
            h.update(f"devices={device_digest(devices)}\n".encode())
        except KeyError:
            # unknown device on an experiment-kind shard (point-query
            # devices are validated at construction): key on the raw
            # names so the shard still dispatches and the in-stream
            # error path answers it
            h.update(f"devices=unknown:{','.join(devices)}\n"
                     .encode())
        h.update(f"obs={int(obs)}\n".encode())
        h.update(f"content={shard.content_key()}\n".encode())
        if shard.kind == "experiment":
            # family answers depend on the experiment's builder and
            # derived context: reuse the experiment tier's keys
            for q in shard.queries:
                h.update(self._experiment_key(q).encode())
                h.update(b"\n")
        return h.hexdigest()

    def _experiment_key(self, query: Query) -> str:
        from repro.core.registry import get_experiment

        name = query.param("name")
        try:
            get_experiment(name)
        except KeyError:
            return f"unknown={name}"
        try:
            ctx = self.context.derive(
                devices=(query.device,) if query.device else None,
                seed=query.param("seed"))
        except (KeyError, ValueError) as exc:
            # underivable context (unknown device — experiment-kind
            # queries skip device validation at construction): a
            # stable sentinel keeps the shard dispatchable so the
            # in-stream error path answers the query
            return f"badctx={exc}"
        if self._keys is None:
            from repro.perf.cache import CacheKeys, ResultCache

            # the service cache's keys share its source digest;
            # without one, the tree is hashed here, on the first
            # family shard only
            self._keys = self.cache if isinstance(
                self.cache, ResultCache) else CacheKeys()
        return f"experiment={self._keys.key_for(name, ctx)}"

    # -- the batch path -----------------------------------------------------

    def answer_batch(self, queries: Sequence[Query]) \
            -> List[Prediction]:
        """Answer ``queries`` in input order (tags re-attached)."""
        t_total = time.perf_counter()
        sess = _obs.ACTIVE
        queries = list(queries)
        plan = self._plan(queries, sess)
        entries = self._resolve(plan, sess is not None)
        predictions = self._merge_and_expand(plan, entries, queries,
                                             sess)
        self._wall("serve.wall.total_us", t_total)
        return predictions

    def answer(self, query: Query) -> Prediction:
        """Point-query convenience: a batch of one."""
        return self.answer_batch([query])[0]

    def _plan(self, queries: List[Query], sess) -> Plan:
        t0 = time.perf_counter()
        plan = plan_queries(queries)
        if sess is not None:
            # functions of the input stream alone — deterministic
            sess.counters.add("serve.queries", len(queries))
            sess.counters.add("serve.batches")
            sess.counters.observe("serve.batch.size",
                                  float(len(queries)))
            sess.counters.add("serve.shards", len(plan.shards))
            if plan.n_duplicates:
                sess.counters.add("serve.dedup", plan.n_duplicates)
        self._wall("serve.wall.plan_us", t0)
        return plan

    def _resolve(self, plan: Plan, obs: bool) -> List[_Entry]:
        """Each shard's entry, via memo → blob tier → dispatch."""
        entries: List[Optional[_Entry]] = [None] * len(plan.shards)
        keys = [self._storage_key(s, obs) for s in plan.shards]
        missing: List[int] = []
        for i, key in enumerate(keys):
            entry = self._memo_get(key)
            if entry is not None:
                self.stats.add("serve.cache.memo_hits")
                entries[i] = entry
                continue
            if self.cache is not None:
                with _muted():
                    blob = self.cache.get_blob(_BLOB_KIND, key)
                if blob is not None:
                    self.stats.add("serve.cache.blob_hits")
                    entries[i] = self._memo_put(key, (
                        [Prediction.from_payload(p) for p in blob[0]],
                        blob[1],
                    ))
                    continue
            self.stats.add("serve.cache.shard_misses")
            missing.append(i)
        if missing:
            t0 = time.perf_counter()
            results = dispatch_shards(
                [plan.shards[i] for i in missing],
                jobs=self.jobs, context=self.context)
            self._wall("serve.wall.dispatch_us", t0)
            for i, result in zip(missing, results):
                entry: _Entry = (result.predictions, result.dump)
                entries[i] = self._memo_put(keys[i], entry)
                if self.cache is not None:
                    before = self.cache.stats.evictions
                    with _muted():
                        self.cache.put_blob(
                            _BLOB_KIND, keys[i],
                            [[p.to_payload()
                              for p in result.predictions],
                             result.dump])
                    evicted = self.cache.stats.evictions - before
                    if evicted:
                        self.stats.add("serve.cache.evictions",
                                       evicted)
        return [e for e in entries if e is not None]

    def _merge_and_expand(self, plan: Plan, entries: List[_Entry],
                          queries: List[Query], sess) \
            -> List[Prediction]:
        t0 = time.perf_counter()
        shard_predictions: List[List[Prediction]] = []
        for shard, (predictions, dump) in zip(plan.shards, entries):
            shard_predictions.append(predictions)
            if sess is not None and dump is not None:
                # replayed cached deltas and fresh computes merge at
                # the same point, in the same plan order — the
                # cold-vs-warm / serial-vs-parallel byte-identity hinge
                sess.merge(dump,
                           experiment=shard_label(shard.kind,
                                                  shard.device))
        out = [
            shard_predictions[si][slot].with_qid(queries[pos].qid)
            for pos, (si, slot) in enumerate(plan.expansion)
        ]
        self._wall("serve.wall.expand_us", t0)
        return out

    # -- the JSONL path -----------------------------------------------------

    def answer_lines(self, lines: Iterable[str]) -> List[Prediction]:
        """Answer a JSONL request stream in line order.

        Malformed lines become in-stream ``status="error"``
        predictions (tag preserved when the line parsed far enough to
        carry one); blank lines are skipped; one bad line never aborts
        the batch.
        """
        slots: List[Tuple[str, Any]] = []
        queries: List[Query] = []
        n_errors = 0
        for line in lines:
            stripped = line.strip()
            if not stripped:
                continue
            try:
                queries.append(parse_query_line(stripped))
                slots.append(("query", len(queries) - 1))
            except QueryError as exc:
                n_errors += 1
                slots.append(("error", Prediction.error(
                    str(exc), qid=_line_qid(stripped))))
        sess = _obs.ACTIVE
        if sess is not None and n_errors:
            sess.counters.add("serve.errors", n_errors)
        answers = self.answer_batch(queries) if queries else []
        return [answers[ref] if tag == "query" else ref
                for tag, ref in slots]

    def answer_lines_text(self, lines: Iterable[str]) -> str:
        """The canonical JSONL response text for a request stream."""
        out = [p.to_line() for p in self.answer_lines(lines)]
        return "\n".join(out) + ("\n" if out else "")

    # -- private stats ------------------------------------------------------

    def _wall(self, histogram: str, t0: float) -> None:
        micros = (time.perf_counter() - t0) * 1e6
        self.stats.observe(histogram, max(micros, 1.0))

    def stats_payload(self) -> Dict[str, Any]:
        """The ``--stats-json`` document: private service stats,
        canonical shape, never part of the deterministic bank."""
        return {
            "schema": STATS_SCHEMA,
            "context": self.context.token(),
            "stats": self.stats.as_dict(),
        }

    def write_stats_json(self, path) -> str:
        path = str(path)
        with open(path, "w") as fh:
            json.dump(self.stats_payload(), fh, sort_keys=True,
                      separators=(",", ":"))
            fh.write("\n")
        return path


def _line_qid(line: str) -> Optional[str]:
    """Best-effort client tag recovery from a rejected request line."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError:
        return None
    if isinstance(obj, dict) and isinstance(obj.get("id"), str):
        return obj["id"]
    return None
