"""Cache-parameter detection via P-chase sweeps.

The classic dissection methodology (Saavedra-Barrera; Mei & Chu, which
the paper builds on): infer cache *capacity*, *line size* and
*associativity* purely from latency measurements —

* **capacity**: chase arrays of growing size; the mean latency steps up
  when the array stops fitting,
* **line size**: chase at growing strides inside a larger-than-cache
  array; per-access miss cost stays flat until the stride exceeds the
  fill granularity (every access its own sector/line),
* **associativity**: chase ``w`` addresses that map to one set; latency
  jumps when ``w`` exceeds the way count.

Running these against the simulator recovers the configured geometry —
the self-consistency check that the measurement methodology and the
model agree.

Each point of the capacity and stride sweeps is an independent chase
through a freshly flushed :class:`MemoryHierarchy`.  The chase
*inside* a point is logically serial — every load depends on the
previous one; that is the whole point of P-chase — and it is resolved
on the steady-state :class:`~repro.memory.chase.ChaseEngine`: whole
periods run through the batched cache paths and repeated periods are
accounted analytically, with results exactly equal (cycles and
counters) to a one-load-per-hop loop.  The points of a sweep run in
process, one after another, against one reused hierarchy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.arch import DeviceSpec
from repro.isa.memory_ops import CacheOp
from repro.memory.chase import ChaseEngine
from repro.memory.hierarchy import MemoryHierarchy
from repro.obs import session as _obs

__all__ = ["CacheProbe", "DetectedParameters", "PROBE_BUDGET",
           "capacity_sweep_sizes"]

#: chase iterations per sweep point and steady-state warm-up passes
#: before each measured loop.  Longer chases detect the same geometry:
#: ``tests/test_memory_pchase.py`` runs the paper's budget on every pack.
PROBE_BUDGET: Dict[str, int] = {
    "capacity_iters": 512, "warmup_passes": 0,
    "stride_iters": 512, "conflict_iters": 256,
}


def capacity_sweep_sizes(lo_kib: int = 16,
                         hi_kib: int = 1024) -> List[int]:
    """Mixed power-of-two **and** 1.5×power-of-two sizes (KiB):
    16, 24, 32, 48, 64, 96, 128, 192, …

    The 1.5× points are what make non-pow2 L1 capacities detectable —
    A100's 192 KiB sits exactly on one — where a pure pow2 walk jumps
    straight from 128 to 256 and can only bound it.
    """
    sizes = []
    kib = lo_kib
    while kib <= hi_kib:
        sizes.append(kib)
        half = kib + kib // 2
        if half <= hi_kib:
            sizes.append(half)
        kib *= 2
    return sizes


def _capacity_point(mh: MemoryHierarchy, kib: int, iters: int,
                    warmup: int) -> float:
    """One capacity-sweep point.  ``mh`` is the sweep's one
    hierarchy, flushed here: a flush is behaviourally a fresh
    hierarchy but keeps the grown cache matrices."""
    mh.flush()
    size = kib * 1024
    mh.warm_l1(0, 0, size)
    mh.warm_tlb(0, size)
    n = size // 128
    seq = np.arange(n, dtype=np.int64) * 128
    eng = ChaseEngine(mh, size=32)
    if warmup:                     # extra steady-state chase passes
        eng.run(seq, warmup * n)
    return eng.run(seq, iters).mean_latency_clk


def _stride_point(mh: MemoryHierarchy, stride: int, array_kib: int,
                  iters: int) -> float:
    """One stride-sweep point; ``mh`` as in :func:`_capacity_point`."""
    size = array_kib * 1024
    mh.flush()
    mh.warm_tlb(0, size)
    mh.warm_l2(0, size)
    # a chase of ``iters`` no longer than the period reads only the
    # period's first ``iters`` addresses
    n = min(size // stride, iters)
    seq = np.arange(n, dtype=np.int64) * stride
    eng = ChaseEngine(mh, size=4, cache_op=CacheOp.CACHE_ALL)
    return eng.run(seq, iters).mean_latency_clk


@dataclass(frozen=True)
class DetectedParameters:
    """What the sweeps inferred."""

    l1_capacity_bytes: int
    l1_sector_bytes: int
    l1_ways: int


class CacheProbe:
    """P-chase-style parameter detection bound to one device.

    ``budget`` holds the sweeps' iteration counts
    (:data:`PROBE_BUDGET`).
    """

    def __init__(self, device: DeviceSpec) -> None:
        self.device = device
        self.budget = dict(PROBE_BUDGET)
        self._mh: Optional[MemoryHierarchy] = None

    def _hierarchy(self) -> MemoryHierarchy:
        """One reusable hierarchy for the sweeps (its loads record
        into whichever session is active when they run)."""
        if self._mh is None:
            self._mh = MemoryHierarchy(self.device)
        return self._mh

    def _span(self, name: str, points: int, iters: int):
        """A wall-clock trace span around one sweep (or a null
        context when tracing is off)."""
        from contextlib import nullcontext

        tracer = _obs.ACTIVE.tracer if _obs.ACTIVE is not None \
            else None
        if tracer is None:
            return nullcontext()
        return tracer.span(
            f"{name} {self.device.name}", cat="probe",
            args={"device": self.device.name,
                  "points": points, "iters": iters,
                  "warmup_passes": self.budget["warmup_passes"]})

    # -- capacity ------------------------------------------------------------

    def capacity_sweep(self, sizes_kib: List[int],
                       iters: Optional[int] = None) -> Dict[int, float]:
        """Mean chase latency vs array size (KiB)."""
        if iters is None:
            iters = self.budget["capacity_iters"]
        warmup = self.budget["warmup_passes"]
        # run the points against one flushed hierarchy — the retained
        # matrix allocation makes each point's warm-up passes cheap
        mh = self._hierarchy()
        if sizes_kib:
            # size the reusable hierarchy for the largest point up
            # front instead of re-growing through the sweep
            span = max(sizes_kib) * 1024
            mh.l1_for_sm(0).reserve_span(span)
            mh.l2.reserve_span(span)
        with self._span("capacity_sweep", len(sizes_kib), iters):
            return {kib: _capacity_point(mh, kib, iters, warmup)
                    for kib in sizes_kib}

    def detect_l1_capacity(self, *, lo_kib: int = 16,
                           hi_kib: int = 1024) -> int:
        """Largest array (bytes) that still chases at L1 latency.

        The sweep walks :func:`capacity_sweep_sizes` — powers of two
        plus the 1.5× midpoints — so 192 KiB-class capacities resolve
        exactly instead of rounding down to 128.
        """
        l1_lat = self.device.mem_latencies.l1_hit_clk
        sizes = capacity_sweep_sizes(lo_kib, hi_kib)
        sweep = self.capacity_sweep(sizes)
        best = 0
        for kib, lat in sweep.items():
            if lat <= l1_lat * 1.05:
                best = max(best, kib * 1024)
        return best

    # -- fill granularity -----------------------------------------------------

    def stride_sweep(self, strides: List[int],
                     array_kib: int = 512,
                     iters: Optional[int] = None) -> Dict[int, float]:
        """Mean latency of a strided chase through a >L1 array that is
        re-walked after one warming pass (misses dominate).  Latency
        per *byte* falls as the stride shrinks below the sector size
        (several accesses share one fill); per-access latency is flat
        above it."""
        if iters is None:
            iters = self.budget["stride_iters"]
        mh = self._hierarchy()
        mh.l1_for_sm(0).reserve_span(array_kib * 1024)
        mh.l2.reserve_span(array_kib * 1024)
        with self._span("stride_sweep", len(strides), iters):
            return {stride: _stride_point(mh, stride, array_kib, iters)
                    for stride in strides}

    def detect_sector_bytes(self) -> int:
        """Smallest stride at which every access misses L1 on first
        touch (= the fill granularity)."""
        sweep = self.stride_sweep([4, 8, 16, 32, 64, 128])
        l2_lat = self.device.mem_latencies.l2_hit_clk
        for stride in sorted(sweep):
            # all-miss ⇒ mean ≈ L2-hit latency (L2 was pre-warmed)
            if sweep[stride] >= 0.95 * l2_lat:
                return stride
        return max(sweep)

    # -- associativity ------------------------------------------------------------

    def conflict_sweep(self, ways_range: List[int],
                       iters: Optional[int] = None) -> Dict[int, float]:
        """Chase ``w`` same-set addresses repeatedly.

        The working set is tiny (≤ ``max_ways`` lines) but the chase
        is long, which is exactly the steady-state engine's best
        case: a lap is ``w`` accesses and the latency/state fixed
        point arrives within a few laps, so almost the whole budget
        is accounted analytically.
        """
        if iters is None:
            iters = self.budget["conflict_iters"]
        warmup = 1 + self.budget["warmup_passes"]
        set_stride = self._conflict_set_stride()
        out = {}
        mh = self._hierarchy()
        if ways_range:
            span = max(ways_range) * set_stride
            mh.l1_for_sm(0).reserve_span(span)
            mh.l2.reserve_span(span)
        with self._span("conflict_sweep", len(ways_range), iters):
            for w in ways_range:
                mh.flush()
                seq = np.arange(w, dtype=np.int64) * set_stride
                mh.warm_tlb(0, int(seq[-1]) + 128)
                eng = ChaseEngine(mh, size=32)
                eng.run(seq, warmup * w)     # warm pass(es)
                out[w] = eng.run(seq, iters).mean_latency_clk
        return out

    def _conflict_set_stride(self) -> int:
        geo = self.device.cache
        l1_lines = geo.l1_size_bytes // geo.line_bytes
        num_sets = l1_lines // geo.l1_associativity
        return num_sets * geo.line_bytes

    def detect_l1_ways(self, max_ways: int = 16) -> int:
        """Largest same-set working set that still hits in L1."""
        sweep = self.conflict_sweep(list(range(1, max_ways + 1)))
        l1_lat = self.device.mem_latencies.l1_hit_clk
        detected = 0
        for w in sorted(sweep):
            if sweep[w] <= l1_lat * 1.05:
                detected = w
        return detected

    # -- all together ---------------------------------------------------------------

    def detect(self) -> DetectedParameters:
        return DetectedParameters(
            l1_capacity_bytes=self.detect_l1_capacity(),
            l1_sector_bytes=self.detect_sector_bytes(),
            l1_ways=self.detect_l1_ways(),
        )
