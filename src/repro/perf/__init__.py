"""Performance plumbing for the experiment harness.

Nothing in here changes *what* an experiment computes — this package
exists so the full suite re-runs fast enough to live in an edit loop:

* :mod:`repro.perf.cache` — a content-addressed on-disk result cache.
  Keys cover the experiment name and builder, the package version,
  the :class:`~repro.core.context.RunContext` token, a digest of the
  context's device specs and one digest of the ``repro`` source, so a
  cached :class:`~repro.core.registry.ExperimentResult` is only
  returned when re-running the builder would produce the same table
  and checks.  An edit to any module outside orchestration (this
  package, ``repro.cli``, ``repro.fuzz``) re-keys every entry.
* :mod:`repro.perf.runner` — the parallel experiment runner
  (:func:`~repro.perf.runner.run_experiments`) that fans
  context-parameterized builders out over a process pool, merges
  results deterministically in requested-name order and times each
  experiment for ``run --profile``, plus the one pool helper,
  :func:`~repro.perf.runner.parallel_imap`, that it shares with
  ``serve --jobs`` (:func:`repro.serve.dispatch.dispatch_shards`) and
  ``fuzz --jobs`` (:func:`repro.fuzz.driver.run_fuzz`).
"""

from __future__ import annotations

from repro.perf.cache import ResultCache, ResultCacheStats
from repro.perf.runner import (
    ExperimentTiming,
    Profiler,
    RunReport,
    parallel_imap,
    run_experiments,
)

__all__ = [
    "ResultCache",
    "ResultCacheStats",
    "ExperimentTiming",
    "Profiler",
    "RunReport",
    "run_experiments",
    "parallel_imap",
]
