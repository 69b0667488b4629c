"""The parallel experiment runner and the one pool helper.

Experiments are independent pure functions of their
:class:`~repro.core.context.RunContext`, so the suite parallelises
trivially.  The only care needed is determinism, and
:func:`parallel_imap` is the one place that provides it for every
pool caller: the runner (:func:`run_experiments`), serve's shard
dispatch (:func:`repro.serve.dispatch.dispatch_shards`) and the fuzz
loop (:func:`repro.fuzz.driver.run_fuzz`).  It yields ``(fn(item),
dump)`` pairs in input order, and when the caller has an
:class:`~repro.obs.ObsSession` active, each call runs under a fresh
nested session whose :meth:`~repro.obs.ObsSession.dump` is ``dump``.
The serial path runs the same wrapper in-process, so a caller that
merges the dumps in the order they arrive builds the same counter
bank at any ``--jobs``.  Items and results cross the process
boundary as they are, so both must pickle; ``fn`` must be a
module-level function.

The runner ships ``(name, context)`` to a worker and gets back
``(table, checks, wall)``; the
:class:`~repro.core.registry.ExperimentResult` is reassembled in the
parent against its own registry, because ``Experiment.builder`` may be
an arbitrary callable that does not pickle.

One worker is one thread.  ``hopperdissect`` sets
``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS`` and ``MKL_NUM_THREADS``
to 1 in :func:`repro.cli.main`, before any command loads numpy, and
forked or spawned workers inherit them; otherwise every worker would
size its own BLAS thread pool to the CPUs and ``--jobs N`` would
oversubscribe them.  A value the user exported wins.  This module sets
nothing: a library caller of :func:`run_experiments` owns its BLAS
threads, and caps them, if it wants, before importing numpy.

There is one dispatch discipline, **work-stealing**: ``Pool.imap``
with chunksize 1 hands out one item per pull, so an idle worker
immediately takes the next item and a heavy-tailed job mix never
strands light items behind a pre-assigned chunk
(``benchmarks/gates.py`` gates the ≥2x claim against chunked
``Pool.map``).  Results come back in input order.

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
from repro.perf.cache import ResultCache, device_digest

__all__ = ["ExperimentTiming", "Profiler", "RunReport",
           "run_experiments", "parallel_imap"]


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


def _build(task: Tuple[str, RunContext]) -> Tuple[Any, tuple, float]:
    """One experiment's table, checks and wall time — the pool item of
    :func:`run_experiments`.  The builder is resolved before the clock
    starts: importing its module is start-up cost, not experiment
    time.  Under a tracing session the experiment's wall span is
    recorded here, where it runs, from the same two clock reads."""
    name, ctx = task
    exp = get_experiment(name)
    exp.resolve()
    t0 = time.perf_counter()
    result = exp.run(ctx)
    wall = time.perf_counter() - t0
    tracer = _obs.active_tracer()
    if tracer is not None:
        tracer.complete(name, tracer.at_us(t0), wall * 1e6,
                        cat="experiment")
    return result.table, result.checks, wall


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
        orchestration overhead (cache probes, dispatch, merge) shows
        up in the trace next to the experiment spans."""
        if tracer is None:
            return nullcontext()
        return tracer.span(label, cat="runner", tid="runner",
                           args=args or None)

    # 1. serve what we can from the cache.  Each key is derived once,
    # for the lookup, and reused by the store; the device specs are
    # hashed once per call — never memoized across calls, so a device
    # re-registered between two calls re-keys the second
    pending: List[str] = []
    keys: Dict[str, str] = {}
    devices = device_digest(ctx.devices) if cache is not None else None
    for name in names:
        hit = None
        if cache is not None:
            with _span("runner.cache_lookup", experiment=name):
                t0 = time.perf_counter()
                keys[name] = key = cache.key_for(name, ctx,
                                                 devices=devices)
                hit = cache.get(name, ctx, key=key)
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
        tasks = [(name, ctx) for name in pending]
        with _span("runner.dispatch", jobs=max(1, jobs),
                   pending=len(pending)):
            for name, ((table, checks, wall), dump) in zip(
                    pending, parallel_imap(_build, tasks, jobs=jobs)):
                res = ExperimentResult(get_experiment(name), table,
                                       checks, context=ctx)
                results[name] = res
                timings[name] = (wall, False)
                if sess is not None:
                    with _span("runner.merge", experiment=name):
                        sess.merge(dump, experiment=name)
                    sess.counters.add("exp.completed")
                if cache is not None:
                    with _span("runner.cache_store", experiment=name):
                        cache.put(name, res, ctx, key=keys[name])

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


def _isolated(task: Tuple[Callable[[Any], Any], Any, bool,
                          Optional[float]]) \
        -> Tuple[Any, Optional[dict]]:
    """``(fn(item), dump)``: the call under a fresh nested session when
    ``observed``, tracing on the caller's ``epoch`` when that is not
    ``None``.  Module-level, so the pool can pickle it."""
    fn, item, observed, epoch = task
    if not observed:
        return fn(item), None
    session = ObsSession(trace=epoch is not None)
    if session.tracer is not None:
        session.tracer.epoch = epoch
    with session.activate():
        out = fn(item)
    return out, session.dump()


def parallel_imap(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    *,
    jobs: int = 1,
) -> Iterator[Tuple[Any, Optional[dict]]]:
    """``(fn(item), dump)`` for every item, in input order.

    With an :class:`~repro.obs.ObsSession` active, each call runs
    under a fresh nested session, which traces only if the caller's
    session traces, and ``dump`` is its
    :meth:`~repro.obs.ObsSession.dump`; the caller merges it.  A
    nested tracer counts wall time from the caller's tracer's epoch,
    in a pool worker too (on Linux ``time.perf_counter`` reads the
    system-wide monotonic clock), so merged spans land on the
    caller's timeline.  With no session active, ``dump`` is ``None``.

    ``jobs > 1`` fans the calls over ``multiprocessing.Pool.imap`` with
    chunksize 1, so an idle worker takes the next item instead of
    sitting behind a pre-assigned chunk.  ``jobs <= 1`` or a single
    item runs the same wrapper in-process, so callers can pass a
    user-controlled job count straight through.  ``fn`` must be a
    module-level function, and items and results must pickle.
    """
    sess = _obs.ACTIVE
    tracer = None if sess is None else sess.tracer
    epoch = None if tracer is None else tracer.epoch
    tasks = [(fn, item, sess is not None, epoch) for item in items]
    if jobs <= 1 or len(tasks) <= 1:
        for task in tasks:
            yield _isolated(task)
        return
    import multiprocessing

    with multiprocessing.Pool(processes=min(jobs, len(tasks))) as pool:
        yield from pool.imap(_isolated, tasks, chunksize=1)
