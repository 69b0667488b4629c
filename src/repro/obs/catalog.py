"""The counter catalog — the registry behind ``docs/counters.md``.

Counter names are plain strings at their emission sites, which keeps
the hot paths cheap but gives drift a second place to hide: a counter
can fire under a name nothing documents, or the docs can describe a
counter nothing fires.  The catalog closes that gap with one central
registry of every counter *family* the simulator emits — name pattern,
kind, unit, owning engine, meaning — and two mechanical consumers:

* ``benchmarks/gen_counter_catalog.py`` renders the registry to
  ``docs/counters.md`` (``--check`` in CI fails when the committed
  page is stale);
* :func:`lookup` / :func:`uncatalogued` let tests assert that every
  counter a run fires is documented (the golden-baseline suite does
  exactly this over the committed goldens).

Patterns are exact names or single-``*`` suffixes for families with a
dynamic final segment (``sm.issue.*`` — one counter per execution
unit).  Histogram families are catalogued by their *family* name; the
``.le<bound>`` bucket keys map back via
:func:`~repro.obs.counters.split_bucket`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple

from repro.obs.counters import split_bucket

__all__ = ["CounterEntry", "CATALOG", "lookup", "uncatalogued",
           "catalog_markdown"]


@dataclass(frozen=True)
class CounterEntry:
    """One documented counter family."""

    pattern: str      #: exact name, or ``prefix.*`` for dynamic tails
    kind: str         #: ``counter`` or ``histogram``
    unit: str         #: what one increment measures
    engine: str       #: owning module (emission site)
    description: str

    def matches(self, family: str) -> bool:
        if self.pattern.endswith(".*"):
            stem = self.pattern[:-2]
            return family.startswith(stem + ".") and \
                len(family) > len(stem) + 1
        return family == self.pattern


#: every counter family the simulator emits, grouped by engine —
#: ordering here is the ordering of ``docs/counters.md``
CATALOG: Tuple[CounterEntry, ...] = (
    # -- memory hierarchy ---------------------------------------------------
    CounterEntry("mem.loads", "counter", "accesses",
                 "repro.memory.hierarchy",
                 "Loads issued into the memory hierarchy."),
    CounterEntry("mem.bytes.*", "counter", "bytes",
                 "repro.memory.hierarchy",
                 "Bytes served per memory level (l1/l2/dram/...)."),
    CounterEntry("mem.tlb.hits", "counter", "accesses",
                 "repro.memory.hierarchy", "L2 TLB hits."),
    CounterEntry("mem.tlb.misses", "counter", "accesses",
                 "repro.memory.hierarchy", "L2 TLB misses."),
    CounterEntry("mem.latency.*", "histogram", "cycles",
                 "repro.memory.hierarchy",
                 "Access latency per serving level."),
    CounterEntry("cache.l1.accesses", "counter", "accesses",
                 "repro.memory.hierarchy", "L1 lookups."),
    CounterEntry("cache.l1.hits", "counter", "accesses",
                 "repro.memory.hierarchy", "L1 sector hits."),
    CounterEntry("cache.l1.sector_misses", "counter", "accesses",
                 "repro.memory.hierarchy",
                 "L1 misses with the line resident (sector fill)."),
    CounterEntry("cache.l1.tag_misses", "counter", "accesses",
                 "repro.memory.hierarchy", "L1 full line misses."),
    CounterEntry("cache.l1.evictions", "counter", "lines",
                 "repro.memory.hierarchy", "L1 lines evicted."),
    CounterEntry("cache.l2.accesses", "counter", "accesses",
                 "repro.memory.hierarchy", "L2 lookups."),
    CounterEntry("cache.l2.hits", "counter", "accesses",
                 "repro.memory.hierarchy", "L2 sector hits."),
    CounterEntry("cache.l2.sector_misses", "counter", "accesses",
                 "repro.memory.hierarchy",
                 "L2 misses with the line resident (sector fill)."),
    CounterEntry("cache.l2.tag_misses", "counter", "accesses",
                 "repro.memory.hierarchy", "L2 full line misses."),
    CounterEntry("cache.l2.evictions", "counter", "lines",
                 "repro.memory.hierarchy", "L2 lines evicted."),
    # -- SM execution -------------------------------------------------------
    CounterEntry("sm.sim.runs", "counter", "kernels",
                 "repro.trace.engine", "Trace-simulator invocations."),
    CounterEntry("sm.sim.warps", "counter", "warps",
                 "repro.trace.engine", "Warps simulated."),
    CounterEntry("sm.sim.instructions", "counter", "instructions",
                 "repro.trace.engine", "Instructions issued."),
    CounterEntry("sm.sim.cycles", "counter", "cycles",
                 "repro.trace.engine", "Cycles simulated."),
    CounterEntry("sm.stall.scoreboard", "counter", "slots",
                 "repro.trace.engine",
                 "Issue slots lost to operand dependencies."),
    CounterEntry("sm.stall.pipe_busy", "counter", "slots",
                 "repro.trace.engine",
                 "Issue slots lost to busy execution pipes."),
    CounterEntry("sm.issue.*", "counter", "instructions",
                 "repro.trace.engine",
                 "Instructions issued per execution unit."),
    CounterEntry("sm.busy_clk.*", "counter", "cycles",
                 "repro.trace.engine",
                 "Busy cycles per execution unit."),
    CounterEntry("sm.schedule.launches", "counter", "kernels",
                 "repro.sm.scheduler", "Grid launches scheduled."),
    CounterEntry("sm.schedule.blocks", "counter", "blocks",
                 "repro.sm.scheduler", "Thread blocks scheduled."),
    CounterEntry("sm.schedule.waves", "counter", "waves",
                 "repro.sm.scheduler", "Full waves of blocks."),
    CounterEntry("sm.schedule.partial_waves", "counter", "waves",
                 "repro.sm.scheduler", "Trailing partial waves."),
    # -- tensor cores / transformer engine ----------------------------------
    CounterEntry("tc.mma.instructions", "counter", "instructions",
                 "repro.tensorcore.timing", "mma instructions timed."),
    CounterEntry("tc.mma.macs", "counter", "MACs",
                 "repro.tensorcore.timing",
                 "Multiply-accumulates through mma."),
    CounterEntry("tc.wgmma.instructions", "counter", "instructions",
                 "repro.tensorcore.timing",
                 "wgmma instructions timed."),
    CounterEntry("tc.wgmma.macs", "counter", "MACs",
                 "repro.tensorcore.timing",
                 "Multiply-accumulates through wgmma."),
    CounterEntry("te.op.*", "counter", "ops",
                 "repro.te.cost",
                 "Transformer-engine graph ops costed, per op type."),
    # -- DSM / SM-to-SM network (paper Fig 8-9) -----------------------------
    CounterEntry("dsm.hops", "counter", "accesses",
                 "repro.dsm.cluster",
                 "Remote (cross-SM) shared-memory accesses."),
    CounterEntry("dsm.access.local", "counter", "accesses",
                 "repro.dsm.cluster",
                 "Cluster shared-memory accesses served locally."),
    CounterEntry("dsm.bytes.remote", "counter", "bytes",
                 "repro.dsm.cluster",
                 "Bytes moved across the SM-to-SM fabric."),
    CounterEntry("dsm.bytes.local", "counter", "bytes",
                 "repro.dsm.cluster",
                 "Bytes served from the block's own shared memory."),
    CounterEntry("dsm.latency.remote", "histogram", "cycles",
                 "repro.dsm.cluster", "Remote access latency."),
    CounterEntry("dsm.latency.local", "histogram", "cycles",
                 "repro.dsm.cluster", "Local access latency."),
    CounterEntry("dsm.fabric.queries", "counter", "queries",
                 "repro.dsm.network",
                 "Contended-bandwidth model evaluations."),
    CounterEntry("dsm.stall.contention", "histogram", "cycles",
                 "repro.dsm.network",
                 "Per-128B-transfer stall added by fabric contention "
                 "at the queried cluster size."),
    CounterEntry("dsm.rbc.configs", "counter", "configs",
                 "repro.dsm.rbc",
                 "Ring-based-copy configurations measured."),
    CounterEntry("dsm.link.active", "counter", "links",
                 "repro.dsm.rbc",
                 "SM fabric links driven across measured configs."),
    CounterEntry("dsm.bytes.injected", "counter", "bytes",
                 "repro.dsm.rbc",
                 "In-flight bytes injected into the fabric (warps x "
                 "ILP x 128 B per active SM)."),
    CounterEntry("dsm.rbc.latency_bound", "counter", "configs",
                 "repro.dsm.rbc",
                 "Configs limited by injection (Little's law)."),
    CounterEntry("dsm.rbc.fabric_bound", "counter", "configs",
                 "repro.dsm.rbc",
                 "Configs limited by contended fabric bandwidth."),
    CounterEntry("dsm.hist.configs", "counter", "configs",
                 "repro.dsm.histogram",
                 "Cluster-histogram configurations measured."),
    CounterEntry("dsm.hist.limited_by.*", "counter", "configs",
                 "repro.dsm.histogram",
                 "Configs per limiting factor (latency / dram / "
                 "network / shared_memory)."),
    CounterEntry("dsm.latency.element", "histogram", "cycles",
                 "repro.dsm.histogram",
                 "Modeled per-element latency of the histogram "
                 "kernel."),
    # -- async copy / TMA (paper Table XIII-XIV) ----------------------------
    CounterEntry("async.steps", "counter", "steps",
                 "repro.asynccopy.matmul_pipeline",
                 "Pipeline steps broken down."),
    CounterEntry("async.variant.*", "counter", "steps",
                 "repro.asynccopy.matmul_pipeline",
                 "Steps per copy variant (sync / async / tma)."),
    CounterEntry("async.stage.load", "histogram", "cycles",
                 "repro.asynccopy.matmul_pipeline",
                 "Copy-issue stage cost per step."),
    CounterEntry("async.stage.compute", "histogram", "cycles",
                 "repro.asynccopy.matmul_pipeline",
                 "Compute stage cost per step."),
    CounterEntry("async.stage.drain", "histogram", "cycles",
                 "repro.asynccopy.matmul_pipeline",
                 "Sync/drain overhead per step."),
    CounterEntry("async.bytes.sync", "counter", "bytes",
                 "repro.asynccopy.matmul_pipeline",
                 "Bytes staged through blocking copies."),
    CounterEntry("async.bytes.cp_async", "counter", "bytes",
                 "repro.asynccopy.matmul_pipeline",
                 "Bytes staged through cp.async."),
    CounterEntry("async.bytes.tma", "counter", "bytes",
                 "repro.asynccopy.tma",
                 "Bytes staged through TMA bulk copies."),
    CounterEntry("async.tma.transfers", "counter", "transfers",
                 "repro.asynccopy.tma", "TMA bulk copies costed."),
    CounterEntry("async.latency.tma", "histogram", "cycles",
                 "repro.asynccopy.tma",
                 "One-shot TMA transfer latency."),
    CounterEntry("async.cp_async.equiv_instructions", "counter",
                 "instructions", "repro.asynccopy.tma",
                 "Warp instructions an equivalent cp.async copy "
                 "would issue."),
    # -- orchestration ------------------------------------------------------
    CounterEntry("exp.completed", "counter", "experiments",
                 "repro.perf.runner",
                 "Experiments the runner computed; cache hits are "
                 "not counted."),
    CounterEntry("result_cache.hit", "counter", "lookups",
                 "repro.perf.cache", "Result-cache hits."),
    CounterEntry("result_cache.miss", "counter", "lookups",
                 "repro.perf.cache", "Result-cache misses."),
    CounterEntry("result_cache.store", "counter", "entries",
                 "repro.perf.cache", "Result-cache stores."),
    CounterEntry("result_cache.eviction", "counter", "entries",
                 "repro.perf.cache",
                 "Entries evicted by the LRU size guard."),
    # -- query service (repro.serve) ----------------------------------------
    CounterEntry("serve.queries", "counter", "queries",
                 "repro.serve.service",
                 "Well-formed queries received."),
    CounterEntry("serve.errors", "counter", "queries",
                 "repro.serve.service",
                 "Malformed request lines answered with in-stream "
                 "error predictions."),
    CounterEntry("serve.batches", "counter", "batches",
                 "repro.serve.service", "Query batches planned."),
    CounterEntry("serve.batch.size", "histogram", "queries",
                 "repro.serve.service", "Queries per batch."),
    CounterEntry("serve.shards", "counter", "shards",
                 "repro.serve.service",
                 "Per-(kind, device) dispatch shards planned."),
    CounterEntry("serve.dedup", "counter", "queries",
                 "repro.serve.service",
                 "Duplicate queries collapsed onto an earlier slot."),
    CounterEntry("serve.predicted.ns", "histogram", "nanoseconds",
                 "repro.serve.oracle",
                 "Predicted (modeled, never wall-clock) kernel/step "
                 "durations."),
    CounterEntry("serve.predicted.clk", "histogram", "cycles",
                 "repro.serve.oracle",
                 "Predicted (modeled) instruction/access latencies."),
    CounterEntry("serve.cache.evictions", "counter", "entries",
                 "repro.serve.service",
                 "On-disk shard-prediction entries evicted by the LRU "
                 "size guard while serving (private stats bank, "
                 "surfaced via --stats-json — never the deterministic "
                 "bank)."),
    CounterEntry("serve.memo.evictions", "counter", "entries",
                 "repro.serve.service",
                 "In-process memo entries evicted by the warm-tier "
                 "LRU bound (private stats bank, surfaced via "
                 "--stats-json)."),
    CounterEntry("fuzz.scenarios", "counter", "scenarios",
                 "repro.fuzz.driver",
                 "Fuzz scenarios checked against the invariant "
                 "oracle."),
    CounterEntry("fuzz.queries", "counter", "queries",
                 "repro.fuzz.driver",
                 "Serve queries issued across all fuzz scenarios."),
    CounterEntry("fuzz.checks", "counter", "checks",
                 "repro.fuzz.driver",
                 "Invariant evaluations performed by the oracle "
                 "(one per applicable invariant per scenario)."),
    CounterEntry("fuzz.violations", "counter", "violations",
                 "repro.fuzz.driver",
                 "Invariant violations the oracle reported."),
    CounterEntry("fuzz.status.*", "counter", "answers",
                 "repro.fuzz.driver",
                 "Prediction statuses across all fuzz answers (one "
                 "counter per ok/unsupported/oom/error)."),
    CounterEntry("fuzz.scenario.queries", "histogram", "queries",
                 "repro.fuzz.driver",
                 "Queries per fuzz scenario."),
    CounterEntry("fuzz.repros", "counter", "repros",
                 "repro.fuzz.driver",
                 "Violating scenarios shrunk to minimal repro "
                 "cases."),
    CounterEntry("fuzz.repro.queries", "histogram", "queries",
                 "repro.fuzz.driver",
                 "Queries surviving in each shrunk repro — how "
                 "small ddmin got the case."),
)


def lookup(name: str) -> Optional[CounterEntry]:
    """The catalog entry covering ``name`` (bucket keys resolve to
    their histogram family), or ``None`` when undocumented."""
    family, bound = split_bucket(name)
    for entry in CATALOG:
        if entry.matches(family):
            if bound is not None and entry.kind != "histogram":
                continue
            return entry
    return None


def uncatalogued(names: Iterable[str]) -> List[str]:
    """The subset of ``names`` no catalog entry covers — what the
    docs-drift tests assert empty."""
    return sorted({n for n in names if lookup(n) is None})


def catalog_markdown() -> str:
    """``docs/counters.md`` — generated, do not edit by hand."""
    lines = [
        "# Counter catalog",
        "",
        "<!-- generated by benchmarks/gen_counter_catalog.py; "
        "do not edit by hand -->",
        "",
        "Every counter family the simulator can emit, straight from "
        "`repro.obs.catalog.CATALOG`.",
        "Histogram families appear in dumps as power-of-two bucket "
        "keys (`<family>.le<bound>`)",
        "and export to OpenMetrics as cumulative `_bucket{le=...}` "
        "series.  A `*` tail marks a",
        "dynamic final segment (one counter per unit / variant / "
        "level).",
        "",
        "| counter | kind | unit | owning engine | meaning |",
        "|---|---|---|---|---|",
    ]
    for e in CATALOG:
        lines.append(f"| `{e.pattern}` | {e.kind} | {e.unit} | "
                     f"`{e.engine}` | {e.description} |")
    lines.append("")
    return "\n".join(lines)
