#!/usr/bin/env python
"""(Re)generate the golden counter baselines the drift gate diffs.

Usage::

    python benchmarks/gen_counter_goldens.py [--check] [OUTDIR]

For each experiment in :data:`GOLDEN_EXPERIMENTS` this runs the
experiment fresh (no result cache — a cache hit would skip the
instrumented code entirely) under the default
:class:`~repro.core.context.RunContext` and writes its labeled
counter bank as ``<experiment>.json`` (``hopperdissect.counters/v2``)
into ``OUTDIR`` (default ``tests/golden/counters/``).

Counters are exact integers and the simulator is deterministic, so
the files only change when the *instrumentation or the model*
changes — exactly the events the gate exists to surface.  After an
intentional change, rerun this script and commit the diff; the
review then shows precisely which counters moved.

``--check`` regenerates in memory and exits 1 if any committed golden
differs (the CI drift step), without touching the tree.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.context import RunContext  # noqa: E402
from repro.obs import ObsSession  # noqa: E402
from repro.perf import run_experiments  # noqa: E402

#: the gated experiment set: every "dark engine" family the
#: instrumentation PR lit up (DSM Fig 8–9, async Table XIII–XIV, the
#: TMA extension) plus the memory-hierarchy probes — Table IV's, whose
#: counters have been live the longest, and the cache-detection sweeps,
#: which drive every path of the cache model (closed-form fills,
#: all-hit laps, scalar conflict ladders) — all byte-deterministic.
GOLDEN_EXPERIMENTS = (
    "table04_mem_latency",
    "fig08_dsm_rbc",
    "fig09_dsm_histogram",
    "table13_async_h800",
    "table14_async_a100",
    "ext_tma_vs_cpasync",
    "ext_cache_detection",
)

DEFAULT_OUTDIR = Path(__file__).resolve().parent.parent \
    / "tests" / "golden" / "counters"


def golden_text(name: str) -> str:
    """The counters/v2 document of one fresh experiment run."""
    from repro.obs.export import context_labels, render_counters_v2

    session = ObsSession()
    ctx = RunContext()
    with session.activate():
        run_experiments([name], jobs=1, cache=None, context=ctx)
    return render_counters_v2(session.experiment_counters(),
                              session.orchestration_counters(),
                              labels=context_labels(ctx),
                              context=ctx)


def main(argv) -> int:
    check = "--check" in argv
    rest = [a for a in argv if a != "--check"]
    outdir = Path(rest[0]) if rest else DEFAULT_OUTDIR
    stale = []
    outdir.mkdir(parents=True, exist_ok=True)
    for name in GOLDEN_EXPERIMENTS:
        text = golden_text(name)
        path = outdir / f"{name}.json"
        if check:
            on_disk = path.read_text() if path.exists() else None
            if on_disk != text:
                stale.append(name)
                print(f"{path}: STALE"
                      if on_disk is not None else f"{path}: MISSING")
            else:
                print(f"{path}: OK")
        else:
            path.write_text(text)
            print(f"wrote {path}")
    if stale:
        print(f"\n{len(stale)} golden(s) out of date — rerun "
              f"benchmarks/gen_counter_goldens.py and commit",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
