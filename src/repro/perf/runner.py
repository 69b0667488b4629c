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

There is one dispatch discipline, **work-stealing**
(:func:`parallel_imap` — ``imap_unordered`` over index-tagged items,
one item at a time): an idle worker immediately pulls the next item,
so a heavy-tailed job mix never strands light items behind a
pre-assigned chunk (``benchmarks/gates.py`` gates the ≥2x claim
against chunked ``Pool.map``).  Results stream in completion order;
:func:`parallel_map` and the experiment runner re-merge by the
yielded index, so determinism is untouched.

The runner also times every experiment into a :class:`Profiler`,
which renders the ``run --profile`` table.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
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

__all__ = ["ExperimentTiming", "Profiler", "RunReport",
           "run_experiments", "parallel_map", "parallel_imap"]


@dataclass(frozen=True)
class ExperimentTiming:
    """Wall time of one experiment in one run."""

    name: str
    wall_s: float
    cached: bool = False


@dataclass
class Profiler:
    """Collects per-experiment timings for one suite run."""

    timings: List[ExperimentTiming] = field(default_factory=list)
    cache_hits: int = 0
    cache_misses: int = 0
    jobs: int = 1

    def add(self, name: str, wall_s: float, *,
            cached: bool = False) -> None:
        self.timings.append(ExperimentTiming(name, wall_s, cached))

    @property
    def total_s(self) -> float:
        return sum(t.wall_s for t in self.timings)

    def render(self) -> str:
        """The ``--profile`` table, slowest first."""
        lines = [f"{'experiment':<30} {'wall':>10}  source"]
        lines.append("-" * 50)
        for t in sorted(self.timings, key=lambda t: -t.wall_s):
            src = "cache" if t.cached else "run"
            lines.append(f"{t.name:<30} {t.wall_s * 1e3:>8.1f}ms  {src}")
        lines.append("-" * 50)
        summary = f"{'total':<30} {self.total_s * 1e3:>8.1f}ms"
        if self.cache_hits or self.cache_misses:
            summary += (f"  ({self.cache_hits} cached, "
                        f"{self.cache_misses} run)")
        if self.jobs > 1:
            summary += f"  [jobs={self.jobs}]"
        lines.append(summary)
        return "\n".join(lines)


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
) -> Iterator[Tuple[int, Any]]:
    """Work-stealing map: yields ``(index, fn(item))`` in
    **completion order**.

    Built on ``multiprocessing.Pool.imap_unordered`` with chunksize 1,
    so an idle worker steals the next pending item instead of sitting
    behind a pre-assigned chunk — on heavy-tailed job mixes this is
    what keeps the pool saturated.  ``jobs <= 1`` or a single item
    short-circuits to a serial generator (indices then arrive in input
    order, trivially).

    Callers needing input order re-merge by the yielded index
    (:func:`parallel_map` does, as do the experiment runner and the
    fuzz driver's reorder window).
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
        yield from pool.imap_unordered(_indexed_call, tasks)


def parallel_map(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    *,
    jobs: int = 1,
) -> List[Any]:
    """``[fn(x) for x in items]``, fanned over a process pool.

    ``fn`` must be a module-level (picklable) callable.  Items are
    dispatched work-stealing (:func:`parallel_imap`) and re-merged by
    index, so results come back in input order whatever order they
    finished in.  ``jobs <= 1`` or a single item runs serially, so
    callers can pass a user-controlled job count straight through.
    """
    items = list(items)
    out: List[Any] = [None] * len(items)
    for i, result in parallel_imap(fn, items, jobs=jobs):
        out[i] = result
    return out
