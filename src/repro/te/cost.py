"""Operator-level cost model for the Transformer-Engine analogue.

Every TE operator is either

* a **GEMM** — runs at the device's best sustained tensor-core rate
  for its precision (``wgmma`` on Hopper, the long ``mma`` elsewhere;
  FP32 inputs ride the TF32 path, as cuBLAS does by default), or
* an **elementwise / reduction kernel** (casts, amax, scaling, norms,
  activations, softmax) — DRAM-bandwidth bound,

and every kernel pays a fixed launch overhead.  From these three
ingredients the FP8 behaviour of Figs 3–5 emerges: at small sizes the
quantise/amax/scale kernels (bytes ∝ N², several launches) dominate
the GEMM (∝ N³), so FP8 loses to FP16; at N = 16384 the GEMM dwarfs
the casts and FP8's 2× tensor-core rate shows through.
"""

from __future__ import annotations

import enum
from typing import List, Tuple

import numpy as np

from repro.arch import DeviceSpec
from repro.isa.dtypes import DType
from repro.obs import session as _obs
from repro.tensorcore.timing import TensorCoreTimingModel

__all__ = ["Precision", "CostModel"]

#: per-kernel launch + framework dispatch overhead, seconds
_KERNEL_LAUNCH_S = 8e-6

#: an ordered operator breakdown priced over a whole grid at once
OpSecondsGrid = List[Tuple[str, np.ndarray]]


def _record_te_op(name: str, n: int = 1) -> None:
    """Count ``n`` priced TE operators (``te.op.<name>``) against the
    active observability session; a pricer passes its grid size."""
    sess = _obs.ACTIVE
    if sess is not None:
        sess.counters.add(f"te.op.{name}", n)


class Precision(enum.Enum):
    """The compute precisions te.Linear can run in."""

    FP32 = "fp32"
    FP16 = "fp16"
    BF16 = "bf16"
    FP8 = "fp8"

    @property
    def bytes(self) -> float:
        return {"fp32": 4.0, "fp16": 2.0, "bf16": 2.0, "fp8": 1.0}[
            self.value
        ]

    @property
    def gemm_types(self) -> tuple[DType, DType]:
        """(A/B type, accumulator) of the tensor-core path used."""
        # FP16 inference GEMMs accumulate in FP16 (the cuBLAS default
        # te.Linear hits) — this is what lets FP8 show its full 2× over
        # FP16 on the RTX 4090, whose FP32-accumulate path is half rate.
        return {
            Precision.FP32: (DType.TF32, DType.FP32),
            Precision.FP16: (DType.FP16, DType.FP16),
            Precision.BF16: (DType.BF16, DType.FP32),
            Precision.FP8: (DType.E4M3, DType.FP32),
        }[self]


class CostModel:
    """Per-device operator timing."""

    def __init__(self, device: DeviceSpec,
                 launch_overhead_s: float = _KERNEL_LAUNCH_S) -> None:
        self.device = device
        self.launch_overhead_s = launch_overhead_s
        self._tc = TensorCoreTimingModel(device)
        self._gemm_rate_cache: dict[Precision, float] = {}

    # -- primitive rates ------------------------------------------------------

    def supports(self, precision: Precision) -> bool:
        """Whether this device can run te.Linear in ``precision`` at
        all — FP8 needs the capability flag *and* FP8 tensor-core
        peaks; older generations may lack e.g. the TF32 path FP32
        rides (Volta) or BF16 accumulate."""
        ab, _cd = precision.gemm_types
        if ab.is_fp8 and not self.device.pack.has_fp8:
            return False
        return self.device.tensor_core.supports(ab.peak_key)

    def gemm_tflops(self, precision: Precision) -> float:
        """Best sustained GEMM rate for a precision on this device."""
        if precision not in self._gemm_rate_cache:
            ab, cd = precision.gemm_types
            if not self.device.tensor_core.supports(ab.peak_key):
                raise ValueError(
                    f"{self.device.name} has no {ab.peak_key} tensor "
                    "cores"
                )
            self._gemm_rate_cache[precision] = \
                self._tc.best_dense_tflops(ab, cd)
        return self._gemm_rate_cache[precision]

    @property
    def membw_bytes_per_s(self) -> float:
        return self.device.dram.effective_bandwidth_gbps(0.6) * 1e9

    # -- operator costs --------------------------------------------------------
    #
    # Arrays in, arrays out: each pricer takes the problem sizes as
    # arrays and prices a whole grid of them in one NumPy pass (a
    # scalar is a 0-d grid).

    def gemm_seconds_batch(self, m, n, k, precision: Precision, *,
                           name: str = "gemm",
                           efficiency: float = 0.85) -> np.ndarray:
        """Seconds of one GEMM kernel per (m, n, k).  ``efficiency``
        covers tile quantisation and epilogue overheads of a real GEMM
        kernel vs raw instruction throughput."""
        m = np.asarray(m, dtype=np.float64)
        n = np.asarray(n, dtype=np.float64)
        k = np.asarray(k, dtype=np.float64)
        if np.minimum(np.minimum(m, n), k).min() <= 0:
            raise ValueError("GEMM dimensions must be positive")
        flops = 2.0 * m * n * k
        compute = flops / (self.gemm_tflops(precision) * 1e12 * efficiency)
        io_bytes = precision.bytes * (m * k + k * n) + 4.0 * m * n
        io = io_bytes / self.membw_bytes_per_s
        out = np.maximum(compute, io) + self.launch_overhead_s
        _record_te_op(name, out.size)
        return out

    def elementwise_seconds_batch(self, nbytes, *,
                                  name: str = "elementwise",
                                  launches: int = 1) -> np.ndarray:
        """Seconds of a bandwidth-bound kernel moving ``nbytes``
        total."""
        nbytes = np.asarray(nbytes, dtype=np.float64)
        if nbytes.min() < 0:
            raise ValueError("nbytes must be non-negative")
        out = (nbytes / self.membw_bytes_per_s
               + launches * self.launch_overhead_s)
        _record_te_op(name, out.size)
        return out

    def cast_to_fp8_seconds_batch(self, elements, src_bytes: float = 2.0,
                                  *, name: str = "cast_fp8") -> np.ndarray:
        """amax reduction + quantise kernel: read source, write FP8."""
        elements = np.asarray(elements, dtype=np.float64)
        nbytes = elements * (2 * src_bytes + 1.0)  # amax read + q read/write
        return self.elementwise_seconds_batch(nbytes, name=name,
                                              launches=2)

    def scale_output_seconds_batch(self, elements, out_bytes: float = 2.0,
                                   *, name: str = "scale_out"
                                   ) -> np.ndarray:
        """De-scale the FP8 GEMM output back to working precision."""
        elements = np.asarray(elements, dtype=np.float64)
        return self.elementwise_seconds_batch(elements * 2 * out_bytes,
                                              name=name)

    def linear_breakdown_batch(self, m, n, k, precision: Precision, *,
                               cache_weight_cast: bool = True,
                               include_overheads: bool = True
                               ) -> OpSecondsGrid:
        """Full te.Linear cost breakdown, ``(m×k) @ (k×n)``: each
        operator's name and its seconds over the (m, n, k) grid.

        Under FP8 the input is amax-scaled and quantised, the weight
        cast is amortised when ``cache_weight_cast`` (TE caches it
        across microbatches), and the output is scaled back — the
        operator mix Fig 3 plots.  ``include_overheads=False`` is the
        ablation switch that removes every non-GEMM operator.
        """
        m = np.asarray(m, dtype=np.float64)
        n = np.asarray(n, dtype=np.float64)
        k = np.asarray(k, dtype=np.float64)
        parts: OpSecondsGrid = []
        if precision is Precision.FP8 and include_overheads:
            parts.append(("quantize_input", self.cast_to_fp8_seconds_batch(
                m * k, name="quantize_input")))
            if not cache_weight_cast:
                parts.append(("quantize_weight",
                              self.cast_to_fp8_seconds_batch(
                                  k * n, name="quantize_weight")))
        parts.append(("gemm", self.gemm_seconds_batch(m, n, k, precision)))
        if precision is Precision.FP8 and include_overheads:
            parts.append(("scale_out",
                          self.scale_output_seconds_batch(m * n)))
        return parts

    def linear_seconds_batch(self, m, n, k, precision: Precision,
                             **kw) -> np.ndarray:
        parts = self.linear_breakdown_batch(m, n, k, precision, **kw)
        total = parts[0][1]
        for _, s in parts[1:]:
            # sequential accumulation in list order (np.sum would
            # reorder pair-wise)
            total = total + s
        return total

    def linear_tflops_batch(self, n, precision: Precision,
                            **kw) -> np.ndarray:
        """The Fig 4 metric: achieved GFLOPS of an N×N×N te.Linear,
        reported in TFLOPS here, over an array of sizes."""
        n = np.asarray(n, dtype=np.float64)
        secs = self.linear_seconds_batch(n, n, n, precision, **kw)
        return 2.0 * n ** 3 / secs / 1e12
