"""Performance plumbing for the experiment harness.

Nothing in here changes *what* an experiment computes — this package
exists so the full suite re-runs fast enough to live in an edit loop:

* :mod:`repro.perf.cache` — a content-addressed on-disk result cache.
  Keys cover the experiment name, the package version, the
  :class:`~repro.core.context.RunContext` token, a digest of the
  context's device specs and a digest of the builder's *dependency
  cut* (the ``repro`` modules it transitively imports), so a cached
  :class:`~repro.core.registry.ExperimentResult` can only ever be
  returned when re-running the builder would provably produce the
  same table and checks — while edits to unrelated modules leave warm
  entries warm.
* :mod:`repro.perf.runner` — the parallel experiment runner
  (:func:`~repro.perf.runner.run_experiments`) that fans
  context-parameterized builders out over a process pool, merges
  results deterministically in requested-name order and times each
  experiment for ``run --profile``, plus the generic
  :func:`~repro.perf.runner.parallel_map` used by the probe sweeps.
"""

from __future__ import annotations

from repro.perf.cache import (
    ResultCache,
    ResultCacheStats,
    dependency_cut,
)
from repro.perf.runner import (
    ExperimentTiming,
    Profiler,
    RunReport,
    parallel_imap,
    parallel_map,
    run_experiments,
)

__all__ = [
    "ResultCache",
    "ResultCacheStats",
    "dependency_cut",
    "ExperimentTiming",
    "Profiler",
    "RunReport",
    "run_experiments",
    "parallel_imap",
    "parallel_map",
]
