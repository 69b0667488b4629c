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
* :class:`ScalarMmaTiming` and :class:`ScalarWgmmaTiming` — the
  one-instruction-at-a-time timing dataclasses behind
  :class:`repro.tensorcore.timing.MmaSweep` and
  :class:`~repro.tensorcore.timing.WgmmaSweep`, and so behind
  ``TensorCoreTimingModel.mma``/``wgmma``, which return one sweep row
  (``tests/test_vectorized_equivalence.py``, and the tensor-core row
  of ``benchmarks/gates.py``);
* :class:`ScalarCostModel`, :func:`op_costs`,
  :func:`seconds_grid_scalar` and :func:`latency_ms_scalar` — the
  per-operator, per-point walk behind the TE cost model's ``*_batch``
  pricers and the modules' ``op_seconds_grid``
  (``tests/test_vectorized_equivalence.py``);
* :func:`reference_smith_waterman` and
  :func:`reference_needleman_wunsch` — the naive alignment DPs behind
  :mod:`repro.dp.alignment`'s DPX wavefronts (``tests/test_dp.py``);
* :func:`prediction_line` — one ``json.dumps`` of the whole payload,
  behind :meth:`repro.serve.schema.Prediction.to_line`'s memoized line
  with the client tag spliced in
  (``tests/test_serve_schema_properties.py``).

The scalar timings and the scalar TE walk record their own ``tc.*``
and ``te.op.*`` counters, one instruction or operator at a time, so
the equivalence suite's counter-parity properties compare two
implementations.

Do not use these on hot paths — they exist to be obviously correct,
not fast.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Literal, Optional, Tuple

import numpy as np

from repro.arch import DeviceSpec
from repro.isa.dtypes import DType
from repro.isa.lowering import UnsupportedInstruction, lower
from repro.isa.memory_ops import CacheOp
from repro.isa.mma import (
    MmaInstruction,
    OperandSource,
    WgmmaInstruction,
    mma_shapes,
)
from repro.memory.cache import CacheStats
from repro.memory.chase import chase_total_clk, latency_counts
from repro.memory.hierarchy import MemLevel
from repro.memory.pchase import PChase, PChaseResult, _chain
from repro.memory.shared import SharedMemory
from repro.obs import session as _obs
from repro.te.cost import CostModel, Precision, _record_te_op
from repro.te.modules import (
    DotProductAttention,
    LayerNorm,
    LayerNormMLP,
    Linear,
    Module,
    RMSNorm,
    TransformerLayer,
)

__all__ = ["ScalarCostModel", "ScalarMmaTiming", "ScalarPChase",
           "ScalarSetAssociativeCache", "ScalarWgmmaTiming",
           "latency_ms_scalar", "op_costs", "reference_needleman_wunsch",
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


# -- tensor-core timing ---------------------------------------------------

InitKind = Literal["zero", "rand"]


def _record_tc_instruction(kind: str, instr) -> None:
    """Count one timed tensor-core instruction (``tc.<kind>.*``)."""
    sess = _obs.ACTIVE
    if sess is None:
        return
    sess.counters.add(f"tc.{kind}.instructions")
    sess.counters.add(f"tc.{kind}.macs", int(instr.flops) // 2)


def _wgmma_ss_stall(n: int) -> float:
    """Extra dense-SS latency (cycles) when N is too small to hide the
    A-tile shared-memory fetch under compute.  Vanishes for N ≥ 64."""
    if n >= 64:
        return 0.0
    if n <= 32:
        return min(4.0 + n / 8.0, 8.0)
    return 8.0 * (64 - n) / 32.0


@dataclass(frozen=True)
class ScalarMmaTiming:
    """Latency/throughput of one ``mma`` instruction on one device.

    Lazy: lowering runs at construction, and a property that needs a
    tensor-core peak the device lacks raises ``KeyError`` when read.
    """

    device: DeviceSpec
    instr: MmaInstruction

    def __post_init__(self) -> None:
        lowered = lower(self.instr, self.device.pack)
        object.__setattr__(self, "_lowered", lowered)
        _record_tc_instruction("mma", self.instr)

    @property
    def steps(self) -> int:
        return self.instr.shape.k // mma_shapes(self.instr.ab_type)[0].k

    @property
    def _f32acc_half_rate(self) -> bool:
        return (
            self.device.pack.mma.f32acc_rate != 1.0
            and self.instr.ab_type in (DType.FP16, DType.BF16)
            and self.instr.cd_type is DType.FP32
        )

    @property
    def _f32acc_slow_latency(self) -> bool:
        return (
            self.device.pack.mma.f32acc_latency_clk is not None
            and self.instr.cd_type is DType.FP32
        )

    @property
    def on_tensor_core(self) -> bool:
        return self._lowered.uses_tensor_core

    @property
    def latency_clk(self) -> float:
        cal = self.device.pack.mma
        if not self.on_tensor_core:
            # CUDA-core fallback (Hopper INT4): a serial IMAD sequence.
            imad_latency = 5.0
            return imad_latency * self._lowered.instruction_count
        if self._f32acc_slow_latency:
            return cal.f32acc_latency_clk[self.steps]
        return cal.latency_clk[self.steps]

    @property
    def throughput_flops_per_clk_sm(self) -> float:
        cal = self.device.pack.mma
        if not self.on_tensor_core:
            # 32-lane IMAD per scheduler, one scheduler per pipe, 2 ops
            # (mul+add) per MAC, II of 2.
            return cal.pipes_per_sm * 32 * 2 / 2.0
        peak = self.device.tc_flops_per_clk_sm(
            self.instr.ab_type.peak_key, sparse=self.instr.sparse
        )
        rate = peak * cal.efficiency[self.instr.sparse][self.steps]
        if self._f32acc_half_rate:
            rate *= cal.f32acc_rate
        return rate

    @property
    def issue_interval_clk(self) -> float:
        per_pipe = (self.throughput_flops_per_clk_sm
                    / self.device.pack.mma.pipes_per_sm)
        return self.instr.flops / per_pipe

    def throughput_tflops(self, init: InitKind = "zero") -> float:
        base = (
            self.throughput_flops_per_clk_sm
            * self.device.num_sms
            * self.device.clocks.observed_hz
            / 1e12
        )
        if init == "rand":
            base *= self._power_scale(base)
        return base

    def fraction_of_peak(self) -> float:
        peak = self.device.tc_peak_tflops(
            self.instr.ab_type.peak_key, sparse=self.instr.sparse
        )
        return self.throughput_tflops() / peak

    def _power_scale(self, tflops: float) -> float:
        from repro.power import PowerModel
        return PowerModel(self.device).throttle_scale(
            op="mma",
            ab=self.instr.ab_type,
            cd=self.instr.cd_type,
            tflops=tflops,
            sparse=self.instr.sparse,
            operand_bytes_per_s=0.0,
        )


@dataclass(frozen=True)
class ScalarWgmmaTiming:
    """Latency/throughput of one ``wgmma`` instruction (Hopper only)."""

    device: DeviceSpec
    instr: WgmmaInstruction

    def __post_init__(self) -> None:
        if not self.device.pack.has_wgmma:
            raise UnsupportedInstruction(
                f"{self.device.name} has no wgmma instructions"
            )
        _record_tc_instruction("wgmma", self.instr)

    @property
    def latency_clk(self) -> float:
        cal = self.device.pack.wgmma
        n = self.instr.n
        base = n / 2.0
        ss = self.instr.a_source is OperandSource.SHARED
        if not self.instr.sparse:
            lat = max(base, cal.min_latency_clk)
            if ss:
                lat += _wgmma_ss_stall(n)
            return lat
        if ss:
            # Unpruned A (m × 2k) streams from shared memory.
            extra = (
                self.instr.m * self.instr.k * self.instr.ab_type.bytes
                / self.device.mem_widths.smem_bytes_per_clk_sm
            )
            return base + extra
        return max(base, cal.sparse_rs_floor_clk)

    @property
    def compute_interval_clk(self) -> float:
        peak = self.device.tc_flops_per_clk_sm(
            self.instr.ab_type.peak_key, sparse=self.instr.sparse
        )
        return self.instr.flops / (peak * self.device.pack.wgmma.compute_eff)

    @property
    def issue_interval_clk(self) -> float:
        return max(
            self.latency_clk * self.device.pack.wgmma.chain_stretch,
            self.compute_interval_clk,
        )

    @property
    def throughput_flops_per_clk_sm(self) -> float:
        return self.instr.flops / self.issue_interval_clk

    def throughput_tflops(self, init: InitKind = "zero") -> float:
        base = (
            self.throughput_flops_per_clk_sm
            * self.device.num_sms
            * self.device.clocks.observed_hz
            / 1e12
        )
        if init == "rand":
            base *= self._power_scale(base)
        return base

    def fraction_of_peak(self, init: InitKind = "zero") -> float:
        peak = self.device.tc_peak_tflops(
            self.instr.ab_type.peak_key, sparse=self.instr.sparse
        )
        return self.throughput_tflops(init) / peak

    @property
    def operand_bytes_total(self) -> float:
        """Per-instruction A+B (+metadata) operand traffic, from shared
        memory or the register file."""
        instr = self.instr
        b = instr.shared_memory_bytes()
        if instr.a_source is OperandSource.REGISTER:
            a_bytes = instr.m * instr.k * instr.ab_type.bytes
            meta = (instr.m * instr.k / 4.0) if instr.sparse else 0.0
            b += a_bytes + meta
        return b

    def _power_scale(self, tflops: float) -> float:
        from repro.power import PowerModel
        operand_rate = (
            self.operand_bytes_total / self.issue_interval_clk
            * self.device.num_sms * self.device.clocks.observed_hz
        )
        return PowerModel(self.device).throttle_scale(
            op="wgmma",
            ab=self.instr.ab_type,
            cd=self.instr.cd_type,
            tflops=tflops,
            sparse=self.instr.sparse,
            operand_bytes_per_s=operand_rate,
        )


# -- Transformer-Engine cost walk ---------------------------------------------

#: one priced operator: its name and seconds
Op = Tuple[str, float]


class ScalarCostModel(CostModel):
    """:class:`CostModel` plus one-operator-at-a-time pricers; each
    counts its operator (``te.op.<name>``) as it prices it."""

    def gemm(self, m: int, n: int, k: int, precision: Precision, *,
             name: str = "gemm", efficiency: float = 0.85) -> Op:
        if min(m, n, k) <= 0:
            raise ValueError("GEMM dimensions must be positive")
        flops = 2.0 * m * n * k
        compute = flops / (self.gemm_tflops(precision) * 1e12 * efficiency)
        io_bytes = precision.bytes * (m * k + k * n) + 4.0 * m * n
        io = io_bytes / self.membw_bytes_per_s
        _record_te_op(name)
        return name, max(compute, io) + self.launch_overhead_s

    def elementwise(self, nbytes: float, *, name: str = "elementwise",
                    launches: int = 1) -> Op:
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        _record_te_op(name)
        return name, (nbytes / self.membw_bytes_per_s
                      + launches * self.launch_overhead_s)

    def cast_to_fp8(self, elements: int, src_bytes: float = 2.0, *,
                    name: str = "cast_fp8") -> Op:
        nbytes = elements * (2 * src_bytes + 1.0)
        return self.elementwise(nbytes, name=name, launches=2)

    def scale_output(self, elements: int, out_bytes: float = 2.0, *,
                     name: str = "scale_out") -> Op:
        return self.elementwise(elements * 2 * out_bytes, name=name)

    def linear(self, m: int, n: int, k: int, precision: Precision, *,
               cache_weight_cast: bool = True,
               include_overheads: bool = True) -> List[Op]:
        ops: List[Op] = []
        if precision is Precision.FP8 and include_overheads:
            ops.append(self.cast_to_fp8(m * k, name="quantize_input"))
            if not cache_weight_cast:
                ops.append(self.cast_to_fp8(k * n,
                                            name="quantize_weight"))
        ops.append(self.gemm(m, n, k, precision))
        if precision is Precision.FP8 and include_overheads:
            ops.append(self.scale_output(m * n))
        return ops

    def linear_seconds(self, m: int, n: int, k: int,
                       precision: Precision, **kw) -> float:
        return sum(s for _, s in self.linear(m, n, k, precision, **kw))

    def linear_tflops(self, n: int, precision: Precision, **kw) -> float:
        secs = self.linear_seconds(n, n, n, precision, **kw)
        return 2.0 * n ** 3 / secs / 1e12


def op_costs(module: Module, cm: ScalarCostModel, tokens: int,
             precision: Precision, *, batch: Optional[int] = None
             ) -> List[Op]:
    """``module``'s operators at ``tokens`` tokens, in launch order.
    ``batch`` (attention and the transformer layer only) defaults to
    1 and 4, as in their ``op_seconds_grid``."""
    if isinstance(module, Linear):
        return cm.linear(tokens, module.out_features,
                         module.in_features, precision)
    if isinstance(module, (LayerNorm, RMSNorm)):
        nbytes = tokens * module.features * 2 * precision.bytes
        name = "layernorm" if isinstance(module, LayerNorm) else "rmsnorm"
        return [cm.elementwise(nbytes, name=name)]
    if isinstance(module, LayerNormMLP):
        ops = op_costs(module.norm, cm, tokens, precision)
        fc1 = cm.linear(tokens, module.fc1.out_features, module.hidden,
                        precision)
        if precision is Precision.FP8:
            # fusion: the norm emits FP8 directly
            fc1 = [o for o in fc1 if o[0] != "quantize_input"]
        ops += fc1
        act_bytes = tokens * (module.fc1.out_features
                              + module.ffn_hidden) * precision.bytes
        ops.append(cm.elementwise(act_bytes, name=module.activation))
        ops += cm.linear(tokens, module.hidden, module.ffn_hidden,
                         precision)
        return ops
    if isinstance(module, DotProductAttention):
        batch = 1 if batch is None else batch
        seq = max(tokens // max(batch, 1), 1)
        h = module.num_heads * module.head_dim
        flops = 4.0 * batch * seq * seq * h
        gemm_rate = cm.gemm_tflops(Precision.FP16) * 1e12 * 0.6
        io = 4.0 * batch * seq * h * 2.0 / cm.membw_bytes_per_s
        _record_te_op("attention")
        return [("attention",
                 max(flops / gemm_rate, io) + 2 * cm.launch_overhead_s)]
    if isinstance(module, TransformerLayer):
        batch = 4 if batch is None else batch
        ops = op_costs(module.input_norm, cm, tokens, precision)
        ops += op_costs(module.qkv, cm, tokens, precision)
        ops += op_costs(module.attention, cm, tokens, precision,
                        batch=batch)
        ops += op_costs(module.proj, cm, tokens, precision)
        ops += op_costs(module.mlp, cm, tokens, precision)
        res_bytes = 2 * tokens * module.config.hidden_size \
            * 2 * precision.bytes
        ops.append(cm.elementwise(res_bytes, name="residual"))
        return ops
    raise TypeError(f"no scalar walk for {type(module).__name__}")


def seconds_grid_scalar(module: Module, cm: ScalarCostModel, tokens,
                        precision: Precision, **kw) -> np.ndarray:
    """:meth:`Module.seconds_grid` priced point by point through
    :func:`op_costs`."""
    tokens = np.asarray(tokens)
    flat = [sum(s for _, s in op_costs(module, cm, int(t), precision,
                                        **kw))
            for t in tokens.ravel()]
    return np.array(flat).reshape(tokens.shape)


def latency_ms_scalar(layer: TransformerLayer, cm: ScalarCostModel, *,
                      batch: int = 4, seq: int = 512,
                      precision: Precision = Precision.FP16) -> float:
    """:meth:`TransformerLayer.latency_ms_grid` at one (batch, seq)."""
    return 1e3 * sum(s for _, s in op_costs(layer, cm, batch * seq,
                                            precision, batch=batch))


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


def prediction_line(prediction) -> str:
    """The canonical response line of a
    :class:`~repro.serve.schema.Prediction`, encoded whole."""
    return json.dumps(prediction.to_payload(), sort_keys=True,
                      separators=(",", ":"))
