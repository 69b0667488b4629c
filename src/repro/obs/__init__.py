"""``repro.obs`` — hardware-counter metrics and structured tracing.

A zero-overhead-when-off instrumentation layer modeled on GPU profiler
counters: :mod:`repro.obs.counters` is the counter bank (cache
hits/misses/evictions per level, SM issue and stall slots, bytes moved
per memory path, tensor-core MAC counts), :mod:`repro.obs.trace` is
the span/event tracer with Chrome-trace/Perfetto export, and
:mod:`repro.obs.session` binds both to a run — activated by the
``--counters``/``--trace`` CLI flags and the ``hopperdissect stats``
subcommand, aggregated deterministically across the process-pool
runner.

On top of the bank sit three derived planes:
:mod:`repro.obs.export` renders the per-experiment labeled banks to
OpenMetrics text and ``hopperdissect.counters/v2`` JSON (byte-identical
serial vs ``--jobs N``), :mod:`repro.obs.diff` is the golden-baseline
counter-regression gate (``hopperdissect stats --diff``), and
:mod:`repro.obs.catalog` is the registry every emitted counter family
must appear in — rendered to ``docs/counters.md`` and enforced in CI.
Import those three from their modules: the package does not load
them, so a command that only counts or traces never pays for them.

Instrumented code reaches the run's session one way: it reads
``repro.obs.session.ACTIVE`` when a call starts (``None`` means off)
and opens wall-clock spans with :func:`repro.obs.session.span`.  The
package does not re-export ``ACTIVE``: a copied binding would stay
``None``.

This package is an import leaf: it depends only on the standard
library, so every simulator layer can instrument itself without
cycles.
"""

from __future__ import annotations

from repro.obs.counters import (
    CounterSet,
    bucket_bound,
    bucket_label,
    counter_sort_key,
    split_bucket,
)
from repro.obs.session import ObsSession, span
from repro.obs.trace import SIM_TRACK, WALL_TRACK, Tracer

__all__ = [
    "CounterSet",
    "bucket_bound",
    "bucket_label",
    "counter_sort_key",
    "split_bucket",
    "Tracer",
    "WALL_TRACK",
    "SIM_TRACK",
    "ObsSession",
    "span",
]
