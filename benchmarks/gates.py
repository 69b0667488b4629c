#!/usr/bin/env python
"""Speedup gates: every fast path against its simplest alternative.

Usage::

    python benchmarks/gates.py

Each row of :func:`gate_table` names a fast path, the reference it
replaced and one bound: either a required ratio (reference time / fast
time) or a ceiling on the fast path alone.  Both paths run in this process,
on the same workload, passes alternating, so the ratio holds on any
machine; nothing is compared against a number taken elsewhere.  Every
timing is the best of the row's repeat count; a path's ``prepare``
step (fresh services, warmed hierarchies) runs untimed before each
pass.  Before any bound is judged, the two paths' outputs must agree
— a fast path that got faster by computing something else fails its
gate.

Prints one line per gate and exits 1 naming every gate that failed.
The equivalence suites under ``tests/`` pin the fast paths bit-equal
to their references; this script pins the speed claims.
"""

from __future__ import annotations

import math
import multiprocessing
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, List, Optional, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from repro.arch import get_device, list_devices  # noqa: E402
from repro.isa.dtypes import DType, accumulator_types  # noqa: E402
from repro.isa.memory_ops import CacheOp  # noqa: E402
from repro.isa.mma import (  # noqa: E402
    MmaInstruction,
    OperandSource,
    WgmmaInstruction,
    mma_shapes,
    valid_wgmma_n,
)
from repro.memory import MemoryHierarchy  # noqa: E402
from repro.memory.cache_study import capacity_sweep_sizes  # noqa: E402
from repro.memory.chase import (  # noqa: E402
    ChaseEngine,
    chase_total_clk,
    latency_counts,
)
from repro.memory.hierarchy import LEVEL_CODES  # noqa: E402
from repro.perf import (  # noqa: E402
    ResultCache,
    parallel_map,
    run_experiments,
)
from repro.serve import Query, QueryService, parse_query  # noqa: E402
from repro.tensorcore import (  # noqa: E402
    ScalarTensorCoreTimingModel,
    TensorCoreTimingModel,
)

# -- the gate table's machinery ---------------------------------------------


@dataclass(frozen=True)
class Side:
    """One side of a gate: ``run(prepare())`` is timed from the
    moment ``prepare`` returns; ``run`` returns the output the other
    side must reproduce."""

    run: Callable[[Any], Any]
    prepare: Callable[[], Any] = lambda: None


@dataclass(frozen=True)
class Gate:
    name: str
    workload: str
    fast: Side
    repeat: int
    reference: Optional[Side] = None
    min_ratio: Optional[float] = None   # reference_s / fast_s floor
    max_s: Optional[float] = None       # fast_s ceiling


def best_of(sides: Sequence[Side], repeat: int) -> List[Tuple[float, Any]]:
    """The one timer: ``repeat`` rounds of one pass per side, in turn,
    so a change in host speed hits every side alike.  Per side: the
    best pass's wall time and the last pass's output."""
    best, outs = [math.inf] * len(sides), [None] * len(sides)
    for _ in range(repeat):
        for i, side in enumerate(sides):
            state = side.prepare()
            t0 = time.perf_counter()
            outs[i] = side.run(state)
            best[i] = min(best[i], time.perf_counter() - t0)
            del state   # free this pass's state before the next prepare
    return list(zip(best, outs))


# -- vectorized tensor-core sweeps vs the scalar per-instruction walk -------

_MMA_ABS = (DType.FP16, DType.BF16, DType.TF32, DType.FP64,
            DType.INT8, DType.INT4, DType.BIN1)
_WGMMA_ABS = (DType.FP16, DType.BF16, DType.TF32, DType.E4M3,
              DType.E5M2, DType.INT8, DType.BIN1)
#: replication factor — the legal grid alone is small enough that
#: timing noise would dominate; repeating it keeps both paths honest
#: without changing the work mix
_TILE = 40


def _price(timing) -> None:
    """Read everything a sweep entry carries — the scalar dataclass
    is lazy, so the walk must touch the properties to do the work the
    sweep does eagerly."""
    timing.latency_clk
    timing.issue_interval_clk
    timing.throughput_tflops("zero")
    timing.throughput_tflops("rand")
    timing.fraction_of_peak()


def _priceable(price, instrs):
    """The instructions the scalar path prices cleanly (some dtype
    pairs have no peak entry on some parts — the sweep maps those to
    NaN, the scalar walk raises)."""
    ok = []
    for instr in instrs:
        try:
            _price(price(instr))
        except (KeyError, ValueError):
            continue
        ok.append(instr)
    return ok


def tc_grids():
    """Per-device legal mma grids and the Hopper wgmma N-sweep."""
    mma = [MmaInstruction(ab, cd, shape, sparse=sparse)
           for ab in _MMA_ABS
           for cd in sorted(accumulator_types(ab), key=lambda d: d.name)
           for shape in mma_shapes(ab)
           for sparse in (False, True)
           if not (sparse and ab in (DType.BIN1, DType.FP64))]
    wgmma = [WgmmaInstruction(ab, min(accumulator_types(ab),
                                      key=lambda d: d.name),
                              n, a_source=src)
             for ab in _WGMMA_ABS
             for n in valid_wgmma_n()
             for src in (OperandSource.SHARED, OperandSource.REGISTER)]
    grids = []
    for name in list_devices():
        dev = get_device(name)
        model = ScalarTensorCoreTimingModel(dev)
        grids.append((dev, _priceable(model.mma, mma) * _TILE))
    hopper = get_device("H800")
    model = ScalarTensorCoreTimingModel(hopper)
    return grids, (hopper, _priceable(model.wgmma, wgmma)
                   * (_TILE // 8))


def tc_scalar(grids) -> None:
    mma_grids, (hopper, wgmma) = grids
    for dev, instrs in mma_grids:
        model = ScalarTensorCoreTimingModel(dev)
        for instr in instrs:
            _price(model.mma(instr))
    model = ScalarTensorCoreTimingModel(hopper)
    for instr in wgmma:
        _price(model.wgmma(instr))


def tc_vectorized(grids) -> None:
    mma_grids, (hopper, wgmma) = grids
    for dev, instrs in mma_grids:
        TensorCoreTimingModel(dev).mma_sweep(instrs)
    TensorCoreTimingModel(hopper).wgmma_sweep(wgmma)


# -- the steady-state chase engine vs the scalar P-chase loops -------------
#
# Every chase CacheProbe.detect() issues with its budget set to the
# paper's (_BUDGET) — the capacity sweep with its warm-up passes, the
# stride sweep and the conflict ladders — on the three paper devices.
# Only the chases are timed: the warm-up fills are the same vectorized
# helpers on both paths, so they would only dilute the comparison.

_CHASE_DEVICES = ("RTX4090", "A100", "H800")
_BUDGET = {"capacity_iters": 2048, "warmup_passes": 2,
           "stride_iters": 1024, "conflict_iters": 1024}
_STRIDES = (4, 8, 16, 32, 64, 128)
_STRIDE_ARRAY = 512 * 1024
_MAX_WAYS = 16


@dataclass
class ChaseTask:
    """One chase: the address sequence, its iteration budgets in
    order, the access width and how to warm the hierarchy."""

    seq: np.ndarray
    runs: List[int]
    width: int
    setup: Callable[[MemoryHierarchy], None]


def detection_tasks(device) -> List[ChaseTask]:
    warmup = _BUDGET["warmup_passes"]
    tasks = []
    for kib in capacity_sweep_sizes(16, 1024):
        size = kib * 1024
        n = size // 128
        tasks.append(ChaseTask(
            np.arange(n, dtype=np.int64) * 128,
            ([warmup * n] if warmup else []) + [_BUDGET["capacity_iters"]],
            32,
            lambda mh, size=size: (mh.warm_l1(0, 0, size),
                                   mh.warm_tlb(0, size))))
    for stride in _STRIDES:
        tasks.append(ChaseTask(
            np.arange(_STRIDE_ARRAY // stride, dtype=np.int64) * stride,
            [_BUDGET["stride_iters"]], 4,
            lambda mh: (mh.warm_tlb(0, _STRIDE_ARRAY),
                        mh.warm_l2(0, _STRIDE_ARRAY))))
    geo = device.cache
    set_stride = (geo.l1_size_bytes // geo.line_bytes
                  // geo.l1_associativity) * geo.line_bytes
    for w in range(1, _MAX_WAYS + 1):
        span = (w - 1) * set_stride + 128
        tasks.append(ChaseTask(
            np.arange(w, dtype=np.int64) * set_stride,
            [(1 + warmup) * w, _BUDGET["conflict_iters"]], 32,
            lambda mh, span=span: mh.warm_tlb(0, span)))
    return tasks


def warmed_hierarchies():
    """A freshly warmed hierarchy per task, every device (untimed)."""
    prepared = []
    for name in _CHASE_DEVICES:
        device = get_device(name)
        for task in detection_tasks(device):
            mh = MemoryHierarchy(device)
            task.setup(mh)
            prepared.append((mh, task))
    return prepared


def chase_scalar(prepared) -> List[float]:
    """The executable spec: one ``load()`` per hop."""
    totals = []
    for mh, task in prepared:
        addrs = task.seq.tolist()
        period = len(addrs)
        load = mh.load
        for iters in task.runs:
            lats = np.empty(iters)
            for i in range(iters):
                lats[i] = load(addrs[i % period], task.width,
                               cache_op=CacheOp.CACHE_ALL).latency_clk
            totals.append(chase_total_clk(latency_counts(lats)))
    return totals


def chase_engine(prepared) -> List[float]:
    return [ChaseEngine(mh, size=task.width, cache_op=CacheOp.CACHE_ALL)
            .run(task.seq, iters).total_latency_clk
            for mh, task in prepared for iters in task.runs]


# -- the closed-form stream fill vs scalar loads ----------------------------
#
# The initialisation pass of the Table IV global probe: an H800 with its
# L2 shrunk to 2 MiB, a buffer 1.1x that, one ascending 32 B load per
# 128 B line into empty caches — the stream L1 and L2 resolve in closed
# form.  Each pass gets a fresh hierarchy with the TLB warmed, as the
# probe leaves it.

_INIT_L2_KIB = 2048
_INIT_SPAN = int(_INIT_L2_KIB * 1024 * 1.1)
_INIT_ADDRS = np.arange(_INIT_SPAN // 128, dtype=np.int64) * 128


def init_hierarchy() -> MemoryHierarchy:
    h800 = get_device("H800")
    mh = MemoryHierarchy(h800.with_overrides(
        cache=replace(h800.cache, l2_size_kib=_INIT_L2_KIB)))
    mh.warm_tlb(0, _INIT_SPAN)
    return mh


def init_outcome(mh: MemoryHierarchy, level_counts: dict) -> tuple:
    """What the two sides must agree on: level counts, L1/L2
    ``CacheStats`` and the L1/L2 state digests."""
    caches = (mh.l1_for_sm(0), mh.l2)
    return (level_counts, [c.stats for c in caches],
            [c.state_digest(np.arange(c.num_sets)) for c in caches])


def init_load_many(mh: MemoryHierarchy) -> tuple:
    return init_outcome(mh, mh.load_many(_INIT_ADDRS, 32).level_counts)


def init_scalar(mh: MemoryHierarchy) -> tuple:
    counts = Counter(mh.load(a, 32).level for a in _INIT_ADDRS.tolist())
    return init_outcome(mh, {lvl: counts[lvl] for lvl in LEVEL_CODES})


# -- the batched query service vs a one-at-a-time loop ----------------------


def acceptance_batch() -> List[Query]:
    """64 deterministic queries: mostly te.linear/mma/wgmma points the
    planner folds onto single vectorized sweeps, spanning three
    devices, plus an unsupported-capability query, DSM probes and an
    LLM query to keep the answer stream heterogeneous."""
    raw = []
    for di, dev in enumerate(_CHASE_DEVICES):
        for i in range(16):
            m = 256 * (1 + (i + di) % 16)
            raw.append({"kind": "te.linear", "device": dev,
                        "precision": "fp16",
                        "params": {"m": m, "n": m, "k": m}})
        for ab in ("fp16", "bf16"):
            raw.append({"kind": "mma", "device": dev,
                        "params": {"ab": ab, "cd": "fp32",
                                   "m": 16, "n": 8, "k": 16}})
    for n in (8, 16, 32, 64, 128, 256):
        raw.append({"kind": "wgmma", "device": "H800",
                    "params": {"ab": "fp16", "cd": "fp32", "n": n}})
    raw.append({"kind": "wgmma", "device": "V100",       # unsupported
                "params": {"ab": "fp16", "cd": "fp32", "n": 64}})
    for cs in (2, 4):
        raw.append({"kind": "dsm.bandwidth", "device": "H800",
                     "params": {"cluster_size": cs}})
    raw.append({"kind": "llm.generate", "device": "H800",
                "precision": "fp8", "params": {"model": "llama-2-7B"}})
    assert len(raw) == 64, len(raw)
    return [parse_query(q) for q in raw]


# -- work-stealing dispatch vs chunked fan-out on a heavy-tailed mix -------
#
# 1000 sleep-jobs: a dozen 150 ms heavies at the head of the list (all
# in worker 0's chunk under contiguous chunking), 1 ms lights after.
# Sleeping releases the CPU, so the ratio measures the dispatch
# discipline, not the machine's arithmetic throughput.

_JOBS = 4
_COSTS = [0.150] * 12 + [0.001] * (1000 - 12)


def sleep_job(cost_s: float) -> int:
    """Module-level for pickling; returns a token to cross-check."""
    time.sleep(cost_s)
    return round(cost_s * 1e6)


def map_chunked(_state) -> List[int]:
    with multiprocessing.Pool(_JOBS) as pool:
        return pool.map(sleep_job, _COSTS,
                        chunksize=math.ceil(len(_COSTS) / _JOBS))


def map_stealing(_state) -> List[int]:
    return parallel_map(sleep_job, _COSTS, jobs=_JOBS)


# -- the result cache vs recomputing ----------------------------------------

_SUBSET = ["table03_devices", "table04_mem_latency", "table06_sass",
           "fig06_dpx_latency"]


def run_subset(cache: ResultCache) -> dict:
    report = run_experiments(_SUBSET, cache=cache)
    return {name: res.render() for name, res in report.results.items()}


# -- the table --------------------------------------------------------------


def gate_table(scratch: Path) -> List[Gate]:
    """One row per bound.  ``scratch`` holds the result-cache row's
    cache roots."""
    grids = tc_grids()
    n_prices = sum(len(instrs) for _, instrs in grids[0]) + len(grids[1][1])
    batch = acceptance_batch()
    point = parse_query({"kind": "te.linear", "device": "H800",
                         "precision": "fp16",
                         "params": {"m": 4096, "n": 4096, "k": 4096}})

    def fresh_service() -> QueryService:
        return QueryService(cache=None)   # no pass served from disk

    def warm_service() -> QueryService:
        service = fresh_service()
        service.answer(point)             # memo tier now hot
        return service

    def cold_cache() -> ResultCache:
        return ResultCache(Path(tempfile.mkdtemp(dir=scratch)))

    def warm_cache() -> ResultCache:
        root = scratch / "warm"
        if not root.exists():
            run_experiments(_SUBSET, cache=ResultCache(root))
        return ResultCache(root)

    # serve and dispatch first: once the tensor-core and chase rows
    # have grown the process, their ratios read ~10 % lower
    return [
        Gate("batched serve vs one-at-a-time loop",
             f"{len(batch)}-query batch, persistent cache off",
             fast=Side(lambda s: s.answer_batch(batch), fresh_service),
             reference=Side(lambda s: [s.answer(q) for q in batch],
                            fresh_service),
             repeat=3, min_ratio=5.0),
        Gate("warm point query",
             "one te.linear answer off a hot memo tier",
             fast=Side(lambda s: s.answer(point), warm_service),
             repeat=30, max_s=0.050),
        Gate("work stealing vs chunked map",
             f"{len(_COSTS)} sleep-jobs, heavies at the head, "
             f"{_JOBS} workers",
             fast=Side(map_stealing), reference=Side(map_chunked),
             repeat=1, min_ratio=2.0),
        Gate("vectorized tensor-core sweep vs scalar walk",
             f"{n_prices} mma/wgmma prices, every device",
             fast=Side(tc_vectorized, lambda: grids),
             reference=Side(tc_scalar, lambda: grids),
             repeat=3, min_ratio=1.0),
        # 40-70x over 22 runs on a 2-vCPU host; with the closed form
        # switched off (lockstep path) 5-8x
        Gate("closed-form stream fill vs scalar loads",
             f"H800 global-probe init pass, {len(_INIT_ADDRS)} lines "
             f"into a fresh 2 MiB-L2 hierarchy",
             fast=Side(init_load_many, init_hierarchy),
             reference=Side(init_scalar, init_hierarchy),
             repeat=5, min_ratio=20.0),
        Gate("chase engine vs scalar chase",
             "every paper-budget cache-detection chase, 3 devices",
             fast=Side(chase_engine, warmed_hierarchies),
             reference=Side(chase_scalar, warmed_hierarchies),
             repeat=3, min_ratio=5.0),
        Gate("result cache hit vs recompute",
             f"{len(_SUBSET)} experiments, filled cache vs fresh cache",
             fast=Side(run_subset, warm_cache),
             reference=Side(run_subset, cold_cache),
             repeat=3, min_ratio=2.0),
    ]


def check(gate: Gate) -> Tuple[str, Optional[str]]:
    """Time one gate; return its report line and, if it failed, why."""
    failure = None
    if gate.reference is None:
        [(fast_s, _)] = best_of([gate.fast], gate.repeat)
        ref_txt = ratio_txt = "-"
        bound = f"<= {gate.max_s * 1e3:.0f} ms"
        if fast_s > gate.max_s:
            failure = (f"{fast_s * 1e3:.2f} ms is over the "
                       f"{gate.max_s * 1e3:.0f} ms ceiling")
    else:
        # the reference first in each round: its longer pass leaves the
        # process and the CPU warm, so the fast path's short pass is not
        # timed cold (fast-first reads ~10 % lower ratios)
        (ref_s, ref_out), (fast_s, fast_out) = best_of(
            [gate.reference, gate.fast], gate.repeat)
        ratio = ref_s / fast_s if fast_s else math.inf
        ref_txt, ratio_txt = f"{ref_s * 1e3:.3f} ms", f"{ratio:.1f}x"
        bound = f">= {gate.min_ratio:.1f}x"
        if ref_out != fast_out:
            failure = "fast path and reference outputs disagree"
        elif ratio < gate.min_ratio:
            failure = (f"{ratio:.2f}x is below the "
                       f"{gate.min_ratio:.1f}x bound")
    line = (f"{gate.name:<44} {fast_s * 1e3:>9.3f} ms {ref_txt:>12} "
            f"{ratio_txt:>7} {bound:>10}  "
            f"{'FAIL' if failure else 'ok'}  "
            f"[{gate.workload}; best of {gate.repeat}]")
    return line, failure


def main() -> int:
    print(f"{'gate':<44} {'fast':>12} {'reference':>12} "
          f"{'ratio':>7} {'bound':>10}")
    failed = []
    with tempfile.TemporaryDirectory(prefix="hopperdissect-gates-") as tmp:
        for gate in gate_table(Path(tmp)):
            line, failure = check(gate)
            print(line, flush=True)
            if failure:
                failed.append(f"{gate.name}: {failure}")
    for msg in failed:
        print(f"FAIL: {msg}", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
