"""Scalar reference implementations — the executable specs.

Each fast path in ``repro`` replaced a slower, obviously-correct
implementation.  The originals live here, outside the shipped package,
and the equivalence suites drive both with the same inputs and assert
exact (or ULP-bounded) agreement:

* :class:`ScalarSetAssociativeCache` — the original pure-Python
  sectored cache (per-set ``_Line`` lists, linear tag scans, ``min()``
  LRU selection) behind :class:`repro.memory.cache.SetAssociativeCache`
  (``tests/test_memory_cache.py``);
* :class:`ScalarPChase` — the one-``load()``-per-hop P-chase loops
  behind :class:`repro.memory.pchase.PChase`
  (``tests/test_memory_chase.py``);
* :func:`seconds_grid_scalar` and :func:`estimate_workload_scalar` —
  the per-point walks behind the TE module grids and
  :meth:`repro.te.llm.LlmInferenceModel.estimate_workload`
  (``tests/test_vectorized_equivalence.py``);
* :func:`reference_smith_waterman` and
  :func:`reference_needleman_wunsch` — the naive alignment DPs behind
  :mod:`repro.dp.alignment`'s DPX wavefronts (``tests/test_dp.py``).

The per-instruction ``TensorCoreTimingModel.mma``/``wgmma`` are the
tensor-core sweeps' reference; they ship, because the cost models
price single instructions through them.

Do not use these on hot paths — they exist to be obviously correct,
not fast.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.isa.memory_ops import CacheOp
from repro.memory.cache import CacheStats
from repro.memory.chase import chase_total_clk, latency_counts
from repro.memory.hierarchy import MemLevel
from repro.memory.pchase import PChase, PChaseResult, _chain
from repro.memory.shared import SharedMemory
from repro.te.cost import CostModel, Precision
from repro.te.llm import GenerationEstimate, LlamaSpec, \
    LlmInferenceModel, ShareGptWorkload
from repro.te.modules import Module

__all__ = ["ScalarPChase", "ScalarSetAssociativeCache",
           "estimate_workload_scalar", "reference_needleman_wunsch",
           "reference_smith_waterman", "seconds_grid_scalar"]


class _Line:
    """One cache line: tag + per-sector valid bits + LRU stamp."""

    __slots__ = ("tag", "valid_sectors", "stamp")

    def __init__(self, tag: int, stamp: int,
                 valid_sectors: int = 0) -> None:
        self.tag = tag
        self.valid_sectors = valid_sectors  # bitmask over sectors
        self.stamp = stamp


class ScalarSetAssociativeCache:
    """The original sectored, true-LRU, set-associative cache model.

    Interface-compatible with
    :class:`repro.memory.cache.SetAssociativeCache` for ``access``,
    ``probe``, ``warm``, ``flush`` and ``resident_bytes``.
    """

    def __init__(
        self,
        size_bytes: int,
        *,
        line_bytes: int = 128,
        sector_bytes: int = 32,
        ways: int = 4,
        name: str = "cache",
    ) -> None:
        if size_bytes <= 0 or size_bytes % line_bytes:
            raise ValueError("size must be a positive multiple of the line")
        if line_bytes % sector_bytes:
            raise ValueError("line must be a multiple of the sector")
        num_lines = size_bytes // line_bytes
        if num_lines % ways:
            raise ValueError("line count must be divisible by ways")
        self.name = name
        self.size_bytes = size_bytes
        self.line_bytes = line_bytes
        self.sector_bytes = sector_bytes
        self.ways = ways
        self.num_sets = num_lines // ways
        self.sectors_per_line = line_bytes // sector_bytes
        self.stats = CacheStats()
        self._clock = 0
        # sets[set_index] -> list of _Line (size <= ways)
        self._sets: List[List[_Line]] = [[] for _ in range(self.num_sets)]

    # -- address helpers ----------------------------------------------------

    def _locate(self, addr: int) -> Tuple[int, int, int]:
        line_addr = addr // self.line_bytes
        set_idx = line_addr % self.num_sets
        tag = line_addr // self.num_sets
        sector = (addr % self.line_bytes) // self.sector_bytes
        return set_idx, tag, sector

    def _sector_span(self, addr: int, size: int) -> List[Tuple[int, int, int]]:
        out = []
        a = addr
        end = addr + max(size, 1)
        while a < end:
            out.append(self._locate(a))
            a = (a // self.sector_bytes + 1) * self.sector_bytes
        return out

    # -- main interface -------------------------------------------------------

    def access(self, addr: int, size: int = 4, *, write: bool = False,
               allocate: bool = True) -> bool:
        """Probe the cache; returns True iff *all* touched sectors hit."""
        self._clock += 1
        self.stats.accesses += 1
        all_hit = True
        touched = self._sector_span(addr, size)
        for set_idx, tag, sector in touched:
            line = self._find(set_idx, tag)
            bit = 1 << sector
            if line is not None and line.valid_sectors & bit:
                line.stamp = self._clock
                continue
            all_hit = False
            if line is not None:
                self.stats.sector_misses += 1
                if allocate:
                    line.valid_sectors |= bit
                    line.stamp = self._clock
            else:
                self.stats.tag_misses += 1
                if allocate:
                    self._fill(set_idx, tag, bit)
        if all_hit:
            self.stats.hits += 1
        return all_hit

    def probe(self, addr: int, size: int = 4) -> bool:
        """Non-destructive lookup (no fill, no LRU update, no stats)."""
        for set_idx, tag, sector in self._sector_span(addr, size):
            line = self._find(set_idx, tag)
            if line is None or not (line.valid_sectors & (1 << sector)):
                return False
        return True

    def warm(self, base: int, size: int) -> None:
        """Fill an address range (the ``ld.ca`` warm-up pass)."""
        addr = (base // self.sector_bytes) * self.sector_bytes
        end = base + size
        while addr < end:
            self.access(addr, self.sector_bytes)
            addr += self.sector_bytes

    def flush(self) -> None:
        for s in self._sets:
            s.clear()
        self.stats.reset()

    # -- internals --------------------------------------------------------------

    def _find(self, set_idx: int, tag: int) -> Optional[_Line]:
        for line in self._sets[set_idx]:
            if line.tag == tag:
                return line
        return None

    def _fill(self, set_idx: int, tag: int, sector_bits: int) -> None:
        lines = self._sets[set_idx]
        if len(lines) >= self.ways:
            victim = min(lines, key=lambda l: l.stamp)
            lines.remove(victim)
            self.stats.evictions += 1
        lines.append(_Line(tag, self._clock, sector_bits))

    # -- introspection -------------------------------------------------------------

    @property
    def resident_bytes(self) -> int:
        total = 0
        for s in self._sets:
            for line in s:
                total += bin(line.valid_sectors).count("1")
        return total * self.sector_bytes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<scalar {self.name}: {self.size_bytes // 1024} KiB, "
            f"{self.ways}-way, {self.num_sets} sets>"
        )


class ScalarPChase(PChase):
    """:class:`PChase` with the original hop-by-hop chase loops in
    place of the steady-state engine."""

    def shared_latency(self, *, array_kib: int = 16,
                       iters: int = 2048) -> PChaseResult:
        """The original hop-by-hop loop through real storage."""
        size = array_kib * 1024
        n = size // 8
        smem = SharedMemory(size)
        chain = _chain(n, seed=self.seed)
        smem.write(0, chain.astype(np.int64))
        base = self.device.mem_latencies.shared_clk
        idx = 0
        lats = np.empty(iters)
        for i in range(iters):
            # one thread, one 8-byte word: never a bank conflict
            lats[i] = smem.access_cycles([idx * 8], base)
            idx = int(np.frombuffer(
                smem.read(idx * 8, 8).tobytes(), dtype=np.int64
            )[0])
        total = chase_total_clk(latency_counts(lats))
        return PChaseResult("Shared", total / iters, iters, 1.0)

    def _run(self, n_entries: int, iters: int, op: CacheOp,
             expect: MemLevel, label: str,
             stride_pages: bool = False) -> PChaseResult:
        """The original hop-by-hop chase loop."""
        chain = _chain(n_entries, seed=self.seed)
        stride = (self.hierarchy.tlb.page_bytes if stride_pages
                  else self.STRIDE_BYTES)
        idx, at_level = 0, 0
        lats = np.empty(iters)
        for i in range(iters):
            res = self.hierarchy.load(idx * stride, 32, cache_op=op)
            lats[i] = res.latency_clk
            at_level += res.level is expect
            idx = int(chain[idx])
        total = chase_total_clk(latency_counts(lats))
        return PChaseResult(label, total / iters, iters,
                            at_level / iters)


def seconds_grid_scalar(module: Module, cost_model: CostModel, tokens,
                        precision: Precision, **kw) -> np.ndarray:
    """:meth:`Module.seconds_grid` priced point by point through the
    scalar ``op_costs`` walk."""
    tokens = np.asarray(tokens)
    flat = [sum(o.seconds for o in
                module.op_costs(cost_model, int(t), precision, **kw))
            for t in tokens.ravel()]
    return np.array(flat).reshape(tokens.shape)


def estimate_workload_scalar(llm: LlmInferenceModel, model: LlamaSpec,
                             precision: Precision, *,
                             n_requests: int = 64, batch: int = 8,
                             seed: int = 0) -> GenerationEstimate:
    """:meth:`LlmInferenceModel.estimate_workload` as one
    :meth:`~LlmInferenceModel.estimate` per batch group (the
    pre-vectorization walk)."""
    wl = ShareGptWorkload(seed=seed)
    total_text = 0
    total_time = 0.0
    for group in wl.batches(n_requests, batch):
        max_in = max(r.input_len for r in group)
        max_out = max(r.output_len for r in group)
        est = llm.estimate(model, precision, batch=len(group),
                           input_len=max_in, output_len=max_out)
        if est.status != "ok":
            return est
        total_text += sum(r.total_len for r in group)
        total_time += est.prefill_s + max_out * est.decode_step_s
    return GenerationEstimate(
        tokens_per_second=total_text / total_time,
        status="ok",
    )


def reference_smith_waterman(a: str, b: str, match=3, mismatch=-2,
                             gap=4) -> int:
    """Naive scalar reference (for tests)."""
    n, m = len(a), len(b)
    H = np.zeros((n + 1, m + 1), dtype=np.int64)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            s = match if a[i - 1] == b[j - 1] else mismatch
            H[i, j] = max(0, H[i - 1, j - 1] + s, H[i - 1, j] - gap,
                          H[i, j - 1] - gap)
    return int(H.max())


def reference_needleman_wunsch(a: str, b: str, match=3, mismatch=-2,
                               gap=4) -> int:
    """Naive scalar reference (for tests)."""
    n, m = len(a), len(b)
    H = np.zeros((n + 1, m + 1), dtype=np.int64)
    H[:, 0] = -gap * np.arange(n + 1)
    H[0, :] = -gap * np.arange(m + 1)
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            s = match if a[i - 1] == b[j - 1] else mismatch
            H[i, j] = max(H[i - 1, j - 1] + s, H[i - 1, j] - gap,
                          H[i, j - 1] - gap)
    return int(H[n, m])
