"""Sharded dispatch — shards onto the process pool, answered in order.

:func:`dispatch_shards` hands each shard to
:func:`repro.perf.runner.parallel_imap`, which owns the determinism
recipe: every shard is answered under a **fresh nested**
:class:`~repro.obs.ObsSession` — on the serial path and in pool
workers alike, tracing when the caller's session traces — and comes
back in plan order with that session's delta.  A fresh
:class:`~repro.serve.oracle.CostOracle` is built per shard on both
paths, so a ``--jobs N`` run and a serial run fire byte-identical
counter banks.  The service merges the deltas.

Point-query shards route through the oracle's vectorized group calls.
Family-level shards (``kind == "experiment"``) run each query's
registered experiment with :meth:`~repro.core.registry.Experiment.run`
under the query's *derived* context
(:meth:`~repro.core.context.RunContext.derive`), with no
experiment-tier cache: the service's shard-level prediction cache is
the caching layer on this path, and keeping ``result_cache.*`` probes
out of the deltas is what lets a cached delta replay byte-identically
on warm hits.

Shards, queries, contexts and predictions all pickle as they are, so
spawn-style start methods work from a blank interpreter.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.core.context import RunContext
from repro.serve.planner import Shard
from repro.serve.schema import Prediction, Query

__all__ = ["dispatch_shards", "shard_label"]


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
                seed=q.param("seed"))
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
            result = exp.run(ctx)
        except DeviceNotInContext as exc:
            out.append(Prediction.unsupported(q, str(exc)))
            continue
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


def _answer(task: Tuple[Shard, RunContext]) -> List[Prediction]:
    """One shard's predictions in slot order: a fresh oracle, or the
    experiments themselves for family shards.  Module-level, so the
    pool can pickle it."""
    shard, base = task
    if shard.kind == "experiment":
        return _experiment_predictions(shard.queries, base)
    from repro.serve.oracle import CostOracle

    return CostOracle(shard.device).answer_group(shard.kind,
                                                 shard.queries)


def dispatch_shards(shards: List[Shard], *, jobs: int = 1,
                    context: Optional[RunContext] = None) \
        -> List[Tuple[List[Prediction], Optional[Dict[str, Any]]]]:
    """``(predictions, dump)`` for every shard, in plan order, fanned
    out when asked to.  Deltas are **not** merged here — the service
    merges them (or replays cached ones) in plan order so cache hits
    and fresh computes interleave deterministically."""
    from repro.core.context import DEFAULT_CONTEXT
    from repro.perf.runner import parallel_imap

    base = DEFAULT_CONTEXT if context is None else context
    return list(parallel_imap(_answer, [(s, base) for s in shards],
                              jobs=jobs))
