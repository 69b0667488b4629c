"""Sharded dispatch — shards onto the process pool, merged in order.

Mirrors the experiment runner's determinism recipe
(:mod:`repro.perf.runner`): every shard is answered under a **fresh
nested** :class:`~repro.obs.ObsSession` — on the serial path and in
pool workers alike — and ships its counter delta back with the
prediction payloads.  The parent merges deltas in plan order no matter
which worker finished first, and builds a fresh
:class:`~repro.serve.oracle.CostOracle` per shard on both paths, so a
``--jobs N`` run and a serial run fire byte-identical counter banks.

Point-query shards route through the oracle's vectorized group calls.
Family-level shards (``kind == "experiment"``) fall back to
:func:`~repro.perf.runner.run_experiments` under the query's *derived*
context (:meth:`~repro.core.context.RunContext.derive`), with the
experiment-tier cache deliberately off inside the worker — the
service's shard-level prediction cache is the caching layer on this
path, and keeping ``result_cache.*`` probes out of the dumps is what
lets a cached dump replay byte-identically on warm hits.

Workers receive plain payload dicts (queries are rebuilt from their
wire form; the oracle is rebuilt from the registry), so nothing
unpicklable crosses the process boundary and spawn-style start methods
work from a blank interpreter.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.context import RunContext
from repro.obs import session as _obs
from repro.obs.session import ObsSession
from repro.serve.planner import Shard
from repro.serve.schema import Prediction, Query, parse_query

__all__ = ["ShardResult", "answer_shard", "dispatch_shards",
           "shard_label"]

#: one shard's transport form:
#: (kind, device, [query payloads], obs?, base-context payload)
_Task = Tuple[str, str, List[Dict[str, Any]], bool, Dict[str, Any]]


def shard_label(kind: str, device: str) -> str:
    """The per-experiment bank label a shard's counters merge under —
    one labeled OpenMetrics series per (kind, device)."""
    return f"serve:{kind}@{device or '*'}"


def _experiment_predictions(queries: List[Query],
                            base: RunContext) -> List[Prediction]:
    """Family-level fallback: each query runs its whole registered
    experiment under a context derived from the base, one at a time
    (these are heavyweight by construction — the grid path is for
    point queries)."""
    from repro.core.context import DeviceNotInContext
    from repro.core.registry import get_experiment
    from repro.perf.runner import run_experiments

    out: List[Prediction] = []
    for q in queries:
        name = q.param("name")
        try:
            exp = get_experiment(name)
        except KeyError as exc:
            # the registry's did-you-mean message, answered in-stream
            out.append(Prediction.error(
                str(exc).strip('"\''), kind=q.kind, device=q.device,
                qid=q.qid))
            continue
        try:
            ctx = base.derive(
                devices=(q.device,) if q.device else None,
                seed=q.param("seed"),
                fidelity=q.param("fidelity"))
        except (KeyError, ValueError) as exc:
            # KeyError str() wraps its message in quotes — unwrap
            msg = exc.args[0] if isinstance(exc, KeyError) \
                and exc.args else str(exc)
            out.append(Prediction.error(
                msg, kind=q.kind, device=q.device, qid=q.qid))
            continue
        if not exp.supports(ctx):
            out.append(Prediction.unsupported(
                q, f"experiment {name!r} cannot run under "
                   f"devices={list(ctx.devices)} ({exp.pin_note()})"))
            continue
        try:
            report = run_experiments([name], context=ctx, jobs=1)
        except DeviceNotInContext as exc:
            out.append(Prediction.unsupported(q, str(exc)))
            continue
        result = report.results[name]
        checks = result.checks
        out.append(Prediction(
            status="ok", kind=q.kind, device=q.device, qid=q.qid,
            metrics=(
                ("checks_passed",
                 float(sum(1 for c in checks if c.passed))),
                ("checks_total", float(len(checks))),
                ("rows", float(len(result.table.rows))),
            ),
        ))
    return out


def _answer_queries(kind: str, device: str, queries: List[Query],
                    obs: bool, base: RunContext) \
        -> Tuple[List[Prediction], Optional[Dict[str, Any]]]:
    """Answer one shard's queries: fresh oracle (or the experiment
    runner, for family shards) under a fresh nested session when
    observability is on.  Shared by the in-process fast path and the
    pool worker, so both produce identical predictions and deltas."""
    from repro.serve.oracle import CostOracle

    def compute() -> List[Prediction]:
        if kind == "experiment":
            return _experiment_predictions(queries, base)
        return CostOracle(device).answer_group(kind, queries)

    if obs:
        session = ObsSession()
        with session.activate():
            predictions = compute()
        dump = session.dump()
    else:
        predictions = compute()
        dump = None
    return predictions, dump


def answer_shard(task: _Task) \
        -> Tuple[List[Dict[str, Any]], Optional[Dict[str, Any]]]:
    """Worker entry point — must stay module-level for pickling.

    Rebuilds the shard's queries and context from their wire forms,
    answers them, and ships prediction payloads + counter delta back.
    """
    kind, device, query_payloads, obs, ctx_payload = task
    queries = [parse_query(p) for p in query_payloads]
    base = RunContext.from_payload(ctx_payload)
    predictions, dump = _answer_queries(kind, device, queries, obs,
                                        base)
    return [p.to_payload() for p in predictions], dump


class ShardResult:
    """One answered shard: predictions in slot order + counter delta."""

    def __init__(self, shard: Shard,
                 predictions: List[Prediction],
                 dump: Optional[Dict[str, Any]]) -> None:
        self.shard = shard
        self.predictions = predictions
        self.dump = dump

    @property
    def label(self) -> str:
        return shard_label(self.shard.kind, self.shard.device)


def dispatch_shards(shards: List[Shard], *, jobs: int = 1,
                    context: Optional[RunContext] = None) \
        -> List[ShardResult]:
    """Answer every shard, fanned out when asked to, results in plan
    order.  Counter deltas are **not** merged here — the service
    merges them (or replays cached ones) in plan order so cache hits
    and fresh computes interleave deterministically."""
    from repro.core.context import DEFAULT_CONTEXT
    from repro.perf.runner import parallel_map

    base = DEFAULT_CONTEXT if context is None else context
    obs = _obs.ACTIVE is not None

    if jobs == 1:
        # in-process fast path: same compute, no wire round-trip
        # (payload encode/parse is the identity on canonical queries
        # and predictions, so this stays byte-identical to --jobs N)
        return [
            ShardResult(s, *_answer_queries(
                s.kind, s.device, list(s.queries), obs, base))
            for s in shards
        ]

    ctx_payload = base.to_payload()
    tasks: List[_Task] = [
        (s.kind, s.device,
         [q.to_payload() for q in s.queries], obs, ctx_payload)
        for s in shards
    ]
    # work-stealing dispatch: shards of very different weights (one
    # heavy memory chase vs many light sweep shards) no longer strand
    # a worker; parallel_map re-merges by index so plan order — and
    # with it the deterministic counter merge — is preserved
    outcomes = parallel_map(answer_shard, tasks, jobs=jobs,
                            unordered=True)
    results = []
    for shard, (payloads, dump) in zip(shards, outcomes):
        results.append(ShardResult(
            shard,
            [Prediction.from_payload(p) for p in payloads],
            dump,
        ))
    return results
