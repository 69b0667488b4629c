"""Per-layer metrics: spans from ``trace_run.py``, ``-X importtime``
reports and counter dumps, reduced to the names in BENCHMARK.json.

Times are host seconds.  A layer's self time is its spans' duration
minus the part their child spans cover; a total includes the children.
Every metric covers one whole iteration of a workload (for serve-cold:
the batch and both point queries).  A layer the iteration never enters
reads 0.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Dict, Iterable, List, Mapping, Sequence

#: the engine behind each experiment, by the subsystem it drives; an
#: experiment missing here counts as "other"
ENGINES: Dict[str, str] = {
    "ext_cache_detection": "memory",
    "ext_coalescing": "memory",
    "table04_mem_latency": "memory",
    "table05_mem_throughput": "memory",
    "table05x_shared_parity": "memory",
    "ext_mma_full_matrix": "tensorcore",
    "table07_mma": "tensorcore",
    "table08_wgmma_dense": "tensorcore",
    "table09_wgmma_sparse": "tensorcore",
    "table10_wgmma_nsweep": "tensorcore",
    "table11_energy": "tensorcore",
    "ext_attention_scaling": "te",
    "ext_llm_batch_sweep": "te",
    "fig03_te_breakdown": "te",
    "fig04_te_linear": "te",
    "fig05_te_layer": "te",
    "table12_llm": "te",
    "fig08_dsm_rbc": "dsm",
    "fig09_dsm_histogram": "dsm",
    "ext_tma_pipeline": "asynccopy",
    "ext_tma_vs_cpasync": "asynccopy",
    "table13_async_h800": "asynccopy",
    "table14_async_a100": "asynccopy",
    "ext_dpx_applications": "dpx",
    "fig06_dpx_latency": "dpx",
    "fig07_dpx_throughput": "dpx",
    "ext_trace_simulator": "trace",
    "ext_fp8_accuracy": "numerics",
    "ext_numeric_probes": "numerics",
    "ext_roofline": "other",
    "table03_devices": "other",
    "table06_sass": "other",
}
ENGINE_NAMES = ("memory", "tensorcore", "te", "dsm", "asynccopy", "dpx",
                "trace", "numerics", "other")
SERVE_KINDS = ("dsm.bandwidth", "experiment", "llm.generate",
               "memory.latency", "mma", "te.linear", "wgmma")
STATUSES = ("ok", "unsupported", "oom", "error")


class Spans:
    """The spans of several invocations, with per-name totals, self
    times, counts and notes."""

    def __init__(self, invocations: Iterable[Mapping]) -> None:
        self.total: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.notes: Dict[str, List[dict]] = defaultdict(list)
        self.missing: set = set()
        #: seconds of ``perf.runner`` spans inside ``serve.dispatch``
        self.dispatched_experiments = 0.0
        for inv in invocations:
            self._add(inv)

    def _add(self, inv: Mapping) -> None:
        spans = inv["spans"]
        self.missing.update(inv["missing"])
        by_id = {s[3]: s for s in spans}
        covered: Dict[int, int] = defaultdict(int)
        for name, t0, t1, sid, parent, note in spans:
            covered[parent] += t1 - t0
        for name, t0, t1, sid, parent, note in spans:
            self.total[name] += (t1 - t0) / 1e9
            self.self_s[name] += (t1 - t0 - covered[sid]) / 1e9
            self.calls[name] += 1
            if note is not None:
                self.notes[name].append(note)
            if name == "perf.runner" and self._inside(
                    by_id, parent, "serve.dispatch"):
                self.dispatched_experiments += (t1 - t0) / 1e9

    @staticmethod
    def _inside(by_id, parent: int, name: str) -> bool:
        while parent:
            span = by_id[parent]
            if span[0] == name:
                return True
            parent = span[4]
        return False

    def note_sum(self, name: str, key: str) -> float:
        return sum(note.get(key, 0) for note in self.notes[name])


def span_metrics(spans: Spans) -> Dict[str, float]:
    exp_s = {name: spans.total.get(f"exp.{name}", 0.0)
             for name in ENGINES}
    engine = dict.fromkeys(ENGINE_NAMES, 0.0)
    for name, total in spans.total.items():
        if name.startswith("exp."):
            engine[ENGINES.get(name[4:], "other")] += total
    compute = sum(engine.values())
    gets = spans.notes["perf.cache.get"] + \
        spans.notes["perf.cache.blob_get"]
    key_s = spans.total["perf.cache.key"]
    queries = spans.note_sum("serve.planner.plan", "queries")
    m: Dict[str, float] = {
        "core.registry.lookup_s": spans.total["core.registry.lookup"],
        "perf.cache.key_s": key_s,
        "perf.cache.key_calls": spans.calls["perf.cache.key"],
        "perf.cache.get_s": spans.self_s["perf.cache.get"],
        "perf.cache.put_s": spans.self_s["perf.cache.put"],
        "perf.cache.blob_get_s": spans.self_s["perf.cache.blob_get"],
        "perf.cache.blob_put_s": spans.self_s["perf.cache.blob_put"],
        "perf.cache.hits": sum(1 for n in gets if n["hit"]),
        "perf.cache.misses": sum(1 for n in gets if not n["hit"]),
        "perf.cache.stores": spans.calls["perf.cache.put"]
        + spans.calls["perf.cache.blob_put"],
        "perf.cache.key_over_compute": key_s / compute if compute else 0.0,
        "perf.runner.self_s": spans.self_s["perf.runner"],
        "core.report.render_s": spans.total["core.report.render"],
        "serve.schema.parse_s": spans.total["serve.schema.parse"],
        "serve.planner.plan_s": spans.total["serve.planner.plan"],
        "serve.planner.shards": spans.note_sum("serve.planner.plan",
                                               "shards"),
        "serve.planner.dedup_frac": spans.note_sum(
            "serve.planner.plan", "duplicates") / queries
        if queries else 0.0,
        "serve.service.answer_s": spans.total["serve.service"],
        "serve.service.self_s": spans.self_s["serve.service"],
    }
    for kind in SERVE_KINDS:
        m[f"serve.dispatch.{kind}_s"] = \
            spans.total[f"serve.oracle.{kind}"]
    m["serve.dispatch.experiment_s"] = spans.dispatched_experiments
    for tier in ("memo_hits", "blob_hits", "shard_misses"):
        m[f"serve.cache.{tier}"] = spans.note_sum(
            "serve.service", f"serve.cache.{tier}")
    for name, seconds in engine.items():
        m[f"engine.{name}_s"] = seconds
    for name, seconds in exp_s.items():
        m[f"exp.{name}_s"] = seconds
    return m


def import_metrics(reports: Sequence[str]) -> Dict[str, float]:
    """``python -X importtime`` stderr → import time per group.  Self
    times are summed; the two package entries give cumulative time."""
    m = dict.fromkeys(("import.total_s", "import.repro_s",
                       "import.numpy_s", "import.repro.core.experiments_s",
                       "import.repro.serve_s"), 0.0)
    m["import.repro_modules"] = 0
    cumulative = {"repro.core.experiments":
                  "import.repro.core.experiments_s",
                  "repro.serve": "import.repro.serve_s"}
    for text in reports:
        for line in text.splitlines():
            if not line.startswith("import time:"):
                continue
            fields = line[len("import time:"):].split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue                    # the column header
            own, cum = int(fields[0]) / 1e6, int(fields[1]) / 1e6
            module = fields[2].strip()
            top = module.split(".", 1)[0]
            m["import.total_s"] += own
            if top == "repro":
                m["import.repro_s"] += own
                m["import.repro_modules"] += 1
            elif top == "numpy":
                m["import.numpy_s"] += own
            if module in cumulative:
                m[cumulative[module]] += cum
    return m


def sim_counts(dumps: Sequence[Mapping[str, int]]) -> Dict[str, int]:
    """Simulated work from ``--counters-json`` banks; these repeat
    exactly for the same inputs."""
    def total(*names: str) -> int:
        return sum(d.get(n, 0) for d in dumps for n in names)

    return {"sim.mem.loads": total("mem.loads"),
            "sim.tc.instructions": total("tc.mma.instructions",
                                         "tc.wgmma.instructions"),
            "sim.sm.instructions": total("sm.sim.instructions")}


def status_counts(outputs: Sequence[bytes]) -> Dict[str, int]:
    """Prediction statuses in serve/query output."""
    counts = dict.fromkeys(STATUSES, 0)
    for out in outputs:
        for line in out.decode("utf-8", errors="replace").splitlines():
            try:
                status = json.loads(line).get("status")
            except (json.JSONDecodeError, AttributeError):
                continue                    # not a prediction line
            if status in counts:
                counts[status] += 1
    return {f"serve.status.{s}": n for s, n in counts.items()}


def chrome_trace(invocations: Sequence[Mapping],
                 labels: Sequence[str]) -> dict:
    """Chrome trace-event JSON: one process per invocation, one
    complete event per span, call counts in ``otherData``."""
    starts = [s[1] for inv in invocations for s in inv["spans"]]
    base = min(starts) if starts else 0
    events: List[dict] = []
    calls: Dict[str, int] = defaultdict(int)
    for pid, (inv, label) in enumerate(zip(invocations, labels), 1):
        events.append({"ph": "M", "name": "process_name", "pid": pid,
                       "tid": 0, "args": {"name": label}})
        for name, t0, t1, sid, parent, note in inv["spans"]:
            calls[name] += 1
            args = {"id": sid, "parent": parent, "invocation": pid}
            if note:
                args.update(note)
            events.append({"name": name, "cat": name.split(".")[0],
                           "ph": "X", "pid": pid, "tid": 0,
                           "ts": (t0 - base) / 1e3,
                           "dur": (t1 - t0) / 1e3, "args": args})
    missing = sorted({m for inv in invocations for m in inv["missing"]})
    return {"traceEvents": events, "displayTimeUnit": "ms",
            "otherData": {"calls": dict(sorted(calls.items())),
                          "missing": missing}}
