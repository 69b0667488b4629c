"""The parallel experiment runner.

Experiments are independent pure functions of their
:class:`~repro.core.context.RunContext`, so the suite parallelises
trivially — the only care needed is determinism (results are merged in
requested-name order no matter which worker finishes first) and
picklability (workers receive ``(name, context_payload)`` and ship
back ``(name, table, checks, wall)``; the
:class:`~repro.core.registry.ExperimentResult` is reassembled in the
parent against its own registry, because ``Experiment.builder`` is an
arbitrary callable that may not pickle, and the context hook — an
arbitrary callable too — never crosses the process boundary).

:func:`parallel_map` is the same machinery for non-experiment
workloads (the cache-study probe sweeps): a module-level worker
function fanned over a pool, results in input order.

Two dispatch disciplines coexist:

* **chunked** (``pool.map`` with a chunksize) — lowest per-item
  overhead, but a pool worker owns its chunk to completion, so a
  heavy-tailed job mix strands the light chunks behind the heavy one;
* **work-stealing** (:func:`parallel_imap` —
  ``imap_unordered`` over index-tagged items) — completion-order
  streaming where idle workers immediately pull the next item, which
  is what lets thousands of small jobs saturate the pool
  (``benchmarks/bench_fuzz.py`` gates the ≥2x claim).  Callers
  re-merge by the yielded index when they need input order —
  ``parallel_map(..., unordered=True)`` and the experiment runner do
  exactly that, so determinism is untouched.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.context import DEFAULT_CONTEXT, RunContext
from repro.core.registry import (
    ExperimentResult,
    get_experiment,
    list_experiments,
)
from repro.obs import session as _obs
from repro.obs.session import ObsSession
from repro.perf.cache import ResultCache
from repro.perf.profile import Profiler

__all__ = ["RunReport", "run_experiments", "parallel_map",
           "parallel_imap"]


def _run_one(task: Tuple[str, dict, Optional[dict]]) \
        -> Tuple[str, object, tuple, float, Optional[dict]]:
    """Worker entry point — must stay module-level for pickling.

    The registry is the experiment table, read when this module is
    imported, so this also works under spawn-style process start
    methods where the child begins with a blank interpreter.  The
    builder is resolved before the clock starts: importing its module
    is start-up cost, not experiment time.

    When observability is requested (``obs_cfg``), the experiment runs
    under a **fresh nested session** and its counter/event delta ships
    back with the result.  The same path runs in-process for serial
    runs, so the parent merges per-experiment integer deltas in
    requested-name order either way — which is what makes serial and
    ``--jobs N`` counter dumps byte-identical.
    """
    name, ctx_payload, obs_cfg = task
    ctx = RunContext.from_payload(ctx_payload)
    get_experiment(name).resolve()
    t0 = time.perf_counter()
    if obs_cfg is not None:
        session = ObsSession(trace=bool(obs_cfg.get("trace")))
        with session.activate():
            result = get_experiment(name).run(ctx)
        dump = session.dump()
    else:
        result = get_experiment(name).run(ctx)
        dump = None
    wall = time.perf_counter() - t0
    return name, result.table, tuple(result.checks), wall, dump


@dataclass(frozen=True)
class RunReport:
    """Outcome of one :func:`run_experiments` invocation."""

    results: Dict[str, ExperimentResult]   # in requested order
    profiler: Profiler

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results.values())


def run_experiments(
    names: Optional[Sequence[str]] = None,
    *,
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    context: Optional[RunContext] = None,
) -> RunReport:
    """Run ``names`` (default: all), optionally cached and parallel.

    The returned mapping iterates in requested-name order and every
    result is identical to what a serial ``run_experiment`` loop would
    produce under the same ``context`` — parallelism and caching
    change wall time only.
    """
    ctx = DEFAULT_CONTEXT if context is None else context
    if names is None:
        names = list_experiments()
    names = list(names)
    for name in names:
        get_experiment(name)   # fail fast on unknown names

    profiler = Profiler(jobs=max(1, jobs))
    results: Dict[str, ExperimentResult] = {}
    timings: Dict[str, Tuple[float, bool]] = {}

    sess = _obs.ACTIVE
    tracer = sess.tracer if sess is not None else None

    def _span(label: str, **args):
        """A ``runner.*`` self-profiling span on the wall track —
        orchestration overhead (cache probes, serialization, dispatch,
        merge) shows up in the trace next to the experiment spans."""
        if tracer is None:
            return nullcontext()
        return tracer.span(label, cat="runner", tid="runner",
                           args=args or None)

    # 1. serve what we can from the cache
    pending: List[str] = []
    for name in names:
        hit = None
        if cache is not None:
            with _span("runner.cache_lookup", experiment=name):
                t0 = time.perf_counter()
                hit = cache.get(name, ctx)
                wall = time.perf_counter() - t0
        if hit is not None:
            results[name] = hit
            timings[name] = (wall, True)
        else:
            pending.append(name)

    # 2. run the rest, fanned out if asked to — resolving the
    # builders first, so forked workers inherit their imports
    if pending:
        if jobs > 1:
            for name in pending:
                get_experiment(name).resolve()
        obs_cfg = ({"trace": sess.tracer is not None}
                   if sess is not None else None)
        with _span("runner.context_serialize"):
            payload = ctx.to_payload()
            tasks = [(name, payload, obs_cfg) for name in pending]
        with _span("runner.dispatch", jobs=max(1, jobs),
                   pending=len(pending)):
            # work-stealing dispatch: completion order is arbitrary,
            # so collect by index and process in requested order —
            # the merge below stays deterministic either way
            outcomes: List[Any] = [None] * len(tasks)
            for i, outcome in parallel_imap(_run_one, tasks,
                                            jobs=jobs):
                outcomes[i] = outcome
        for name, table, checks, wall, dump in outcomes:
            res = ExperimentResult(
                experiment=get_experiment(name),
                table=table,
                checks=checks,
                context=ctx.without_hook(),
            )
            results[name] = res
            timings[name] = (wall, False)
            if sess is not None and dump is not None:
                with _span("runner.merge", experiment=name):
                    sess.merge(dump, experiment=name)
            ctx.emit(name, wall)
            if cache is not None:
                with _span("runner.cache_store", experiment=name):
                    cache.put(name, res, ctx)

    # 3. deterministic merge: requested order, whatever ran where
    ordered = {name: results[name] for name in names}
    for name in names:
        wall, cached = timings[name]
        profiler.add(name, wall, cached=cached)
    if cache is not None:
        profiler.cache_hits = cache.stats.hits
        profiler.cache_misses = cache.stats.misses
    else:
        profiler.cache_misses = len(names)
    return RunReport(results=ordered, profiler=profiler)


def _indexed_call(task: Tuple[Callable[[Any], Any], int, Any]) \
        -> Tuple[int, Any]:
    """Worker shim — tags each result with its input index so the
    parent can re-merge completion-order streams deterministically.
    Must stay module-level for pickling (and so must ``fn``)."""
    fn, index, item = task
    return index, fn(item)


def parallel_imap(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    *,
    jobs: int = 1,
    chunksize: int = 1,
) -> Iterator[Tuple[int, Any]]:
    """Work-stealing map: yields ``(index, fn(item))`` in
    **completion order**.

    Built on ``multiprocessing.Pool.imap_unordered`` with a small
    chunksize, so an idle worker steals the next pending item instead
    of sitting behind a pre-assigned chunk — on heavy-tailed job
    mixes this is what keeps the pool saturated.  ``jobs <= 1`` or a
    single item short-circuits to a serial generator (indices then
    arrive in input order, trivially).

    Callers needing input order re-merge by the yielded index
    (:func:`parallel_map` with ``unordered=True`` does, as do the
    experiment runner and the fuzz driver's reorder window).
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        for i, x in enumerate(items):
            yield i, fn(x)
        return
    import multiprocessing

    tasks = [(fn, i, x) for i, x in enumerate(items)]
    with multiprocessing.Pool(
        processes=min(jobs, len(items))
    ) as pool:
        yield from pool.imap_unordered(_indexed_call, tasks,
                                       chunksize=max(1, chunksize))


def parallel_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    *,
    jobs: int = 1,
    chunksize: int = 1,
    unordered: bool = False,
) -> List[Any]:
    """``[fn(x) for x in items]``, fanned over a process pool.

    ``fn`` must be a module-level (picklable) callable; results come
    back in input order regardless of completion order.  ``jobs <= 1``
    or a single item short-circuits to the serial loop, so callers can
    pass a user-controlled job count straight through.

    ``unordered=True`` switches the dispatch discipline to the
    work-stealing pool (:func:`parallel_imap`) and re-merges by index
    — same results, same order, better wall time when item costs are
    skewed.  ``chunksize`` keeps its ``pool.map`` meaning either way.
    """
    items = list(items)
    if jobs <= 1 or len(items) <= 1:
        return [fn(x) for x in items]
    if unordered:
        out: List[Any] = [None] * len(items)
        for i, result in parallel_imap(fn, items, jobs=jobs,
                                       chunksize=chunksize):
            out[i] = result
        return out
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(
        max_workers=min(jobs, len(items))
    ) as pool:
        return list(pool.map(fn, items, chunksize=max(1, chunksize)))
