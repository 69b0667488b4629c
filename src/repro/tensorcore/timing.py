"""Tensor-core latency and throughput timing model (Tables VII–X).

Three mechanisms, composed:

1. **Pipe tables** (``mma``).  Each architecture has a characteristic
   completion latency and issue efficiency per instruction "depth"
   (``steps`` = k / min-k, i.e. whether the shape is the short or the
   long variant).  Efficiencies are calibrated from microbenchmarks the
   way validated simulators calibrate pipe tables — and they *are* the
   paper's finding: Hopper's legacy warp-level ``mma`` path reaches
   only ≈49 %/65 % of the 4th-gen tensor core's issue rate, so the
   H800 averages ~63 % of peak through ``mma`` while A100/RTX 4090
   saturate theirs.

2. **The dependent-accumulator chain** (``wgmma``).  The benchmark (and
   any real GEMM inner loop) chains ``D = A×B + D``, so a new wgmma
   cannot complete before its predecessor's D is ready: the sustained
   issue interval tracks the *completion latency* (times a small
   pipeline-bubble stretch), and latency itself scales as N/2 cycles.
   Throughput therefore saturates for N ≥ 64 and collapses with small
   N — Table X's shape, derived.

3. **Shared-memory port pressure**.  wgmma operands stream from shared
   memory at the SM's 128 B/clk.  Dense SS and RS tie (B traffic fits
   under the compute time).  *Sparse* SS mode must fetch the unpruned
   m×2k A tile and prune on the fly: the extra m×k·sizeof(elem) bytes
   cost exactly ``2048 B / 128 B/clk = 16`` cycles — which is
   precisely the 144-vs-128 cycle latency split of Table IX, for every
   data type.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Literal, Sequence

import numpy as np

from repro.arch import DeviceSpec
from repro.isa.dtypes import DType
from repro.isa.lowering import UnsupportedInstruction, lower
from repro.isa.mma import (
    MmaInstruction,
    OperandSource,
    WgmmaInstruction,
    mma_shapes,
)
from repro.obs import session as _obs


def _tc_instant(tracer, kind: str, device: DeviceSpec, instr) -> None:
    tracer.instant(
        f"{kind}.{instr.shape.modifier}", cat="tensorcore",
        args={"device": device.name,
              "ab": instr.ab_type.name,
              "cd": instr.cd_type.name,
              "sparse": instr.sparse,
              "flops": int(instr.flops)})


def _record_tc_batch(kind: str, device: DeviceSpec,
                     instrs: Sequence) -> None:
    """Feed the active observability session one sweep's tensor-core
    instructions: one counter update per sweep (instruction and MAC
    counts), per-instruction trace instants only when a tracer is
    live."""
    sess = _obs.ACTIVE
    if sess is None or not instrs:
        return
    c = sess.counters
    c.add(f"tc.{kind}.instructions", len(instrs))
    c.add(f"tc.{kind}.macs",
          sum(int(i.flops) // 2 for i in instrs))
    if sess.tracer is not None:
        for instr in instrs:
            _tc_instant(sess.tracer, kind, device, instr)

__all__ = [
    "SweepEntry",
    "MmaSweep",
    "WgmmaSweep",
    "TensorCoreTimingModel",
]

InitKind = Literal["zero", "rand"]

# --------------------------------------------------------------------------
# calibration
# --------------------------------------------------------------------------
#
# All per-generation numbers (mma pipe tables, the steps = k/min-k
# latency/efficiency grids, wgmma floors and chain stretch) live in the
# architecture packs — ``device.pack.mma`` / ``device.pack.wgmma`` —
# so new generations plug in as data.  Only *structural* laws that hold
# on every architecture stay here (the small-N SS stall shape below and
# the 5-cycle IMAD latency of the CUDA-core fallback).


# --------------------------------------------------------------------------
# vectorized sweeps
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepEntry:
    """One instruction's timing: a sweep's row, and what
    :meth:`TensorCoreTimingModel.mma`/:meth:`~TensorCoreTimingModel.wgmma`
    return."""

    latency_clk: float
    issue_interval_clk: float
    tflops_zero: float
    tflops_rand: float
    frac_zero: float
    frac_rand: float
    #: False when the device cannot run the instruction: it does not
    #: exist on the architecture, or the tensor cores have no peak for
    #: its inputs (the "×" cells of the paper's tables).  The numeric
    #: fields are then nan/0 placeholders.
    supported: bool = True
    #: False for the CUDA-core fallback (INT4 mma on Hopper), whose
    #: ``fraction_of_peak`` is nan where the tensor cores have no peak
    #: for the inputs.
    on_tensor_core: bool = True

    def throughput_tflops(self, init: InitKind = "zero") -> float:
        return self.tflops_rand if init == "rand" else self.tflops_zero

    def fraction_of_peak(self, init: InitKind = "zero") -> float:
        return self.frac_rand if init == "rand" else self.frac_zero


class _Sweep:
    """Array-of-struct base for batched instruction timings."""

    #: filled by subclass constructors
    latency_clk: np.ndarray
    issue_interval_clk: np.ndarray
    supported: np.ndarray
    on_tensor_core: np.ndarray
    _tflops_zero: np.ndarray
    _tflops_rand: np.ndarray
    _frac_zero: np.ndarray
    _frac_rand: np.ndarray

    def __len__(self) -> int:
        return len(self.latency_clk)

    def __getitem__(self, i: int) -> SweepEntry:
        return SweepEntry(
            latency_clk=float(self.latency_clk[i]),
            issue_interval_clk=float(self.issue_interval_clk[i]),
            tflops_zero=float(self._tflops_zero[i]),
            tflops_rand=float(self._tflops_rand[i]),
            frac_zero=float(self._frac_zero[i]),
            frac_rand=float(self._frac_rand[i]),
            supported=bool(self.supported[i]),
            on_tensor_core=bool(self.on_tensor_core[i]),
        )

    def throughput_tflops(self, init: InitKind = "zero") -> np.ndarray:
        return self._tflops_rand if init == "rand" else self._tflops_zero

    def fraction_of_peak(self, init: InitKind = "zero") -> np.ndarray:
        return self._frac_rand if init == "rand" else self._frac_zero


class MmaSweep(_Sweep):
    """Batched ``mma`` timings (one NumPy pass over the whole grid)."""

    def __init__(self, device: DeviceSpec,
                 instrs: Sequence[MmaInstruction]) -> None:
        from repro.power import PowerModel

        self.device = device
        self.instructions = tuple(instrs)
        cal = device.pack.mma
        n = len(self.instructions)
        pm = PowerModel(device)

        # Pack per-instruction table lookups; all arithmetic below is
        # elementwise float64.  Instructions the device cannot run
        # (Table VI "×" cells, e.g. TF32 on Volta, or tensor-core
        # inputs without a peak, e.g. FP64 on Ada) are marked
        # unsupported instead of raising, so one grid can sweep every
        # device.
        lat = np.zeros(n)
        eff = np.zeros(n)
        peak_rate = np.zeros(n)       # tc flops/clk/SM (0 off-TC)
        peak_tflops = np.full(n, np.nan)
        flops = np.empty(n)
        icount = np.ones(n)
        on_tc = np.zeros(n, dtype=bool)
        f32acc_half = np.zeros(n, dtype=bool)
        supported = np.ones(n, dtype=bool)
        sparse = np.zeros(n, dtype=bool)
        energy = np.zeros(n)
        peak_cache: Dict = {}
        for i, instr in enumerate(self.instructions):
            sparse[i] = instr.sparse
            flops[i] = instr.flops
            try:
                lowered = lower(instr, device.pack)
            except UnsupportedInstruction:
                supported[i] = False
                continue
            tc = lowered.uses_tensor_core
            on_tc[i] = tc
            icount[i] = lowered.instruction_count
            steps = instr.shape.k // mma_shapes(instr.ab_type)[0].k
            slow_f32acc = (cal.f32acc_latency_clk is not None
                           and instr.cd_type is DType.FP32)
            lat[i] = (cal.f32acc_latency_clk[steps] if slow_f32acc
                      else cal.latency_clk[steps]) if tc else 0.0
            eff[i] = (cal.efficiency[instr.sparse][steps]
                      if tc else 0.0)
            f32acc_half[i] = (
                cal.f32acc_rate != 1.0
                and instr.ab_type in (DType.FP16, DType.BF16)
                and instr.cd_type is DType.FP32
            )
            key = (instr.ab_type.peak_key, instr.sparse)
            if key not in peak_cache:
                try:
                    peak_cache[key] = (
                        device.tc_flops_per_clk_sm(key[0],
                                                   sparse=key[1]),
                        device.tc_peak_tflops(key[0], sparse=key[1]),
                    )
                except KeyError:
                    peak_cache[key] = None
            if tc:
                if peak_cache[key] is None:
                    supported[i] = False
                    continue
                peak_rate[i], peak_tflops[i] = peak_cache[key]
            energy[i] = pm.energy_pj("mma", instr.ab_type,
                                     instr.cd_type, instr.sparse)

        self.supported = supported
        self.on_tensor_core = on_tc
        self.latency_clk = np.where(
            supported, np.where(on_tc, lat, 5.0 * icount), np.nan)
        rate = peak_rate * eff
        rate = np.where(f32acc_half, rate * cal.f32acc_rate, rate)
        rate = np.where(on_tc, rate, cal.pipes_per_sm * 32 * 2 / 2.0)
        rate = np.where(supported, rate, 0.0)
        self.throughput_flops_per_clk_sm = rate
        with np.errstate(divide="ignore"):
            self.issue_interval_clk = flops / (rate / cal.pipes_per_sm)
        base = (rate * device.num_sms
                * device.clocks.observed_hz / 1e12)
        self._tflops_zero = base
        scale = pm.throttle_scale_many(
            energies_pj=energy, tflops=base, sparse=sparse,
            operand_bytes_per_s=np.zeros(n))
        self._tflops_rand = base * scale
        with np.errstate(invalid="ignore"):
            self._frac_zero = self._tflops_zero / peak_tflops
            self._frac_rand = self._tflops_rand / peak_tflops
        _record_tc_batch(
            "mma", device,
            [ins for ins, ok in zip(self.instructions, supported) if ok])


class WgmmaSweep(_Sweep):
    """Batched ``wgmma`` timings (Hopper only)."""

    def __init__(self, device: DeviceSpec,
                 instrs: Sequence[WgmmaInstruction]) -> None:
        from repro.power import PowerModel

        if not device.pack.has_wgmma:
            raise UnsupportedInstruction(
                f"{device.name} has no wgmma instructions"
            )
        self.device = device
        self.instructions = tuple(instrs)
        cal = device.pack.wgmma
        n = len(self.instructions)
        pm = PowerModel(device)
        smem = device.mem_widths.smem_bytes_per_clk_sm

        nn = np.empty(n)
        flops = np.empty(n)
        peak_rate = np.empty(n)
        peak_tflops = np.empty(n)
        smem_bytes = np.empty(n)
        operand_bytes = np.empty(n)
        extra_a = np.empty(n)          # sparse-SS unpruned-A cycles
        ss = np.zeros(n, dtype=bool)
        sparse = np.zeros(n, dtype=bool)
        energy = np.empty(n)
        peak_cache: Dict = {}
        for i, instr in enumerate(self.instructions):
            nn[i] = instr.n
            flops[i] = instr.flops
            is_ss = instr.a_source is OperandSource.SHARED
            ss[i] = is_ss
            sparse[i] = instr.sparse
            key = (instr.ab_type.peak_key, instr.sparse)
            if key not in peak_cache:
                peak_cache[key] = (
                    device.tc_flops_per_clk_sm(key[0], sparse=key[1]),
                    device.tc_peak_tflops(key[0], sparse=key[1]),
                )
            peak_rate[i], peak_tflops[i] = peak_cache[key]
            smem_bytes[i] = instr.shared_memory_bytes()
            b = smem_bytes[i]
            if not is_ss:
                a_bytes = instr.m * instr.k * instr.ab_type.bytes
                meta = (instr.m * instr.k / 4.0) if instr.sparse else 0.0
                b += a_bytes + meta
            operand_bytes[i] = b
            extra_a[i] = (instr.m * instr.k * instr.ab_type.bytes
                          / smem)
            energy[i] = pm.energy_pj("wgmma", instr.ab_type,
                                     instr.cd_type, instr.sparse)

        base = nn / 2.0
        dense_lat = np.maximum(base, cal.min_latency_clk) \
            + np.where(ss, _wgmma_ss_stall_array(nn), 0.0)
        sparse_lat = np.where(
            ss, base + extra_a,
            np.maximum(base, cal.sparse_rs_floor_clk))
        self.latency_clk = np.where(sparse, sparse_lat, dense_lat)
        compute_interval = flops / (peak_rate * cal.compute_eff)
        self.compute_interval_clk = compute_interval
        self.smem_interval_clk = smem_bytes / smem
        self.issue_interval_clk = np.maximum(
            self.latency_clk * cal.chain_stretch, compute_interval)
        rate = flops / self.issue_interval_clk
        self.throughput_flops_per_clk_sm = rate
        tz = (rate * device.num_sms
              * device.clocks.observed_hz / 1e12)
        self._tflops_zero = tz
        operand_rate = (operand_bytes / self.issue_interval_clk
                        * device.num_sms * device.clocks.observed_hz)
        scale = pm.throttle_scale_many(
            energies_pj=energy, tflops=tz, sparse=sparse,
            operand_bytes_per_s=operand_rate)
        self._tflops_rand = tz * scale
        self._frac_zero = tz / peak_tflops
        self._frac_rand = self._tflops_rand / peak_tflops
        self.supported = np.ones(n, dtype=bool)
        self.on_tensor_core = np.ones(n, dtype=bool)
        _record_tc_batch("wgmma", device, self.instructions)


def _wgmma_ss_stall_array(n: np.ndarray) -> np.ndarray:
    """Extra dense-SS latency (cycles) when N is too small to hide the
    A-tile shared-memory fetch under compute.  Vanishes for N ≥ 64."""
    small = np.minimum(4.0 + n / 8.0, 8.0)
    mid = 8.0 * (64 - n) / 32.0
    return np.where(n >= 64, 0.0, np.where(n <= 32, small, mid))


class TensorCoreTimingModel:
    """The timing model of one device.

    :meth:`mma_sweep`/:meth:`wgmma_sweep` price a whole Table VII–X
    grid in one NumPy pass; they are the only pricing code.  The point
    API, :meth:`mma`/:meth:`wgmma`, returns the single row of a
    one-instruction sweep and raises :class:`UnsupportedInstruction`
    where the sweep marks that row unsupported.  Both feed the
    ``tc.*`` observability counters.  The per-instruction arithmetic
    the sweeps replaced is the reference in ``tests/reference.py``
    (``tests/test_vectorized_equivalence.py``).
    """

    def __init__(self, device: DeviceSpec) -> None:
        self.device = device

    def mma(self, instr: MmaInstruction) -> SweepEntry:
        return self._only_row(self.mma_sweep([instr]), instr)

    def wgmma(self, instr: WgmmaInstruction) -> SweepEntry:
        return self._only_row(self.wgmma_sweep([instr]), instr)

    def _only_row(self, sweep: _Sweep, instr) -> SweepEntry:
        entry = sweep[0]
        if not entry.supported:
            raise UnsupportedInstruction(
                f"{self.device.name} cannot run {instr.opcode}")
        return entry

    def best_dense_tflops(self, ab: DType, cd: DType) -> float:
        """Best achievable dense throughput for a type pair on this
        device — wgmma at N=256 on Hopper, the long mma elsewhere.
        Used by the Transformer-Engine cost model."""
        if self.device.pack.has_wgmma:
            try:
                w = WgmmaInstruction(ab, cd, n=256)
                return self.wgmma(w).throughput_tflops("rand")
            except ValueError:
                pass
        try:
            shape = mma_shapes(ab)[-1]
            return self.mma(
                MmaInstruction(ab, cd, shape)
            ).throughput_tflops("rand")
        except ValueError:
            # No PTX mma exists (e.g. FP8 on Ada, Table VI) but the
            # tensor cores do support the precision through the
            # library-level QMMA path — model it at near-peak.
            if self.device.tensor_core.supports(ab.peak_key):
                return 0.95 * self.device.tc_peak_tflops(
                    ab.peak_key, at_observed_clock=True
                )
            # surface the canonical unsupported-precision error
            self.device.tensor_core.dense_peak(ab.peak_key)
            raise  # pragma: no cover - dense_peak raised above

    def mma_sweep(self, instrs: Sequence[MmaInstruction]) -> MmaSweep:
        return MmaSweep(self.device, instrs)

    def wgmma_sweep(self,
                    instrs: Sequence[WgmmaInstruction]) -> WgmmaSweep:
        return WgmmaSweep(self.device, instrs)
