"""The cost oracle — warm per-device models answering point queries.

One :class:`CostOracle` holds the in-process device models for a
single registered device: the Transformer-Engine
:class:`~repro.te.cost.CostModel`, the
:class:`~repro.te.llm.LlmInferenceModel`, the batched
:class:`~repro.tensorcore.timing.TensorCoreTimingModel` and one
:class:`~repro.memory.MemoryHierarchy` per ``memory.latency`` group,
flushed before each query because chases mutate cache state, driven
by the steady-state :class:`~repro.memory.chase.ChaseEngine`.  Models
are built lazily and reused across queries, so a warm oracle answers a
point query without re-deriving calibration — the "interactive
latency" half of the service contract.

Routing is **grid-first**: a group of compatible queries is priced
through the already-vectorized batch calls
(:meth:`~repro.te.cost.CostModel.linear_seconds_batch`,
:class:`~repro.tensorcore.timing.MmaSweep` /
:class:`~repro.tensorcore.timing.WgmmaSweep`) in one pass, never
through per-query experiment builders.  Capability gates come straight
from the device's :class:`~repro.arch.packs.ArchPack` flags and the
sweeps' ``supported`` entries, so an impossible combination (wgmma on
Volta, FP8 on Ampere) is answered with a structured
``Prediction(status="unsupported", reason=...)`` — the service never
raises on a well-formed query.

Determinism contract: answering the same ordered group of queries
fires the same observability counters no matter how warm the oracle
is.  The one stateful cache (the TE GEMM-rate memo) is pre-warmed at
oracle construction for every supported precision, so the ``tc.*``
pricing counters it fires land at a fixed, group-independent point.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.arch import DeviceSpec, get_device
from repro.isa.dtypes import DType
from repro.obs import session as _obs
from repro.serve.schema import Prediction, Query

__all__ = ["CostOracle", "PRECISION_DTYPES"]

#: dtype spellings accepted in mma/wgmma query params
PRECISION_DTYPES: Dict[str, DType] = {
    "fp64": DType.FP64, "f64": DType.FP64,
    "fp32": DType.FP32, "f32": DType.FP32,
    "tf32": DType.TF32,
    "fp16": DType.FP16, "f16": DType.FP16,
    "bf16": DType.BF16,
    "fp8": DType.E4M3, "e4m3": DType.E4M3, "e5m2": DType.E5M2,
    "int8": DType.INT8, "s8": DType.INT8,
    "int4": DType.INT4, "s4": DType.INT4,
    "bin1": DType.BIN1, "b1": DType.BIN1,
    "int32": DType.INT32, "s32": DType.INT32,
}

#: footprint cap on memory.latency chases — one pass over the period
#: plus a short steady tail keeps a point query interactive even at
#: the largest legal footprint
_CHASE_TAIL_ITERS = 256


def _round(value: float) -> float:
    """Canonical metric rounding: 12 significant digits — enough to
    be lossless for every model output scale in play, while keeping
    the serialized form independent of accumulated float formatting
    noise."""
    if value != value or value in (float("inf"), float("-inf")):
        return value
    return float(f"{value:.12g}")


def _observe(histogram: str, value: float) -> None:
    sess = _obs.ACTIVE
    if sess is not None and value > 0:
        sess.counters.observe(histogram, value)


class CostOracle:
    """Warm in-process cost models for one device."""

    def __init__(self, device_name: str) -> None:
        self.device: DeviceSpec = get_device(device_name)
        self._cost = None
        self._llm = None
        self._tc = None
        self._supports: dict = {}

    # -- lazy model construction --------------------------------------------

    @property
    def cost(self):
        if self._cost is None:
            from repro.te.cost import CostModel, Precision

            self._cost = CostModel(self.device)
            # pre-warm the GEMM-rate memo for every supported
            # precision so its tc.* pricing counters fire here, at a
            # fixed point, not data-dependently mid-group
            for prec in Precision:
                if self._cost.supports(prec):
                    self._cost.gemm_tflops(prec)
        return self._cost

    @property
    def llm(self):
        if self._llm is None:
            from repro.te.llm import LlmInferenceModel

            _ = self.cost  # shared pre-warm point
            self._llm = LlmInferenceModel(self.device)
            self._llm.cost = self.cost
        return self._llm

    @property
    def tc(self):
        if self._tc is None:
            from repro.tensorcore.timing import TensorCoreTimingModel

            self._tc = TensorCoreTimingModel(self.device)
        return self._tc

    # -- group answering ----------------------------------------------------

    def answer_group(self, kind: str, queries: Sequence[Query]) \
            -> List[Prediction]:
        """Answer an ordered group of same-kind queries for this
        device, routing onto one vectorized sweep where the engine
        offers one."""
        handler = {
            "te.linear": self._te_linear_group,
            "llm.generate": self._llm_group,
            "mma": self._mma_group,
            "wgmma": self._wgmma_group,
            "memory.latency": self._memory_group,
            "dsm.bandwidth": self._dsm_group,
        }.get(kind)
        if handler is None:
            raise ValueError(f"oracle cannot answer kind {kind!r}")
        return handler(list(queries))

    def answer(self, query: Query) -> Prediction:
        """Point-query convenience: a group of one."""
        return self.answer_group(query.kind, [query])[0]

    # -- te.linear ----------------------------------------------------------

    def _precision(self, query: Query):
        from repro.te.cost import Precision

        return Precision(query.precision)

    def _supported(self, precision) -> bool:
        """Per-precision memo over :meth:`CostModel.supports` — the
        group handlers gate every query through it."""
        hit = self._supports.get(precision)
        if hit is None:
            hit = self._supports[precision] = \
                self.cost.supports(precision)
        return hit

    def _unsupported_precision(self, query: Query) -> Prediction:
        pack = self.device.pack
        prec = query.precision
        if prec == "fp8" and not pack.has_fp8:
            why = (f"{self.device.name} ({pack.display_name}) has no "
                   "FP8 tensor cores (pack gate has_fp8)")
        else:
            ab, _ = self._precision(query).gemm_types
            why = (f"{self.device.name} ({pack.display_name}) tensor "
                   f"cores do not support the {ab.peak_key} path "
                   f"{prec} rides")
        return Prediction.unsupported(query, why)

    def _te_linear_group(self, queries: List[Query]) \
            -> List[Prediction]:
        out: List[Optional[Prediction]] = [None] * len(queries)
        by_prec: Dict[str, List[int]] = {}
        for i, q in enumerate(queries):
            if not self._supported(self._precision(q)):
                out[i] = self._unsupported_precision(q)
            else:
                by_prec.setdefault(q.precision, []).append(i)
        for prec_name in sorted(by_prec):
            idx = by_prec[prec_name]
            prec = self._precision(queries[idx[0]])
            m = np.array([queries[i].param("m") for i in idx],
                         dtype=np.float64)
            n = np.array([queries[i].param("n") for i in idx],
                         dtype=np.float64)
            k = np.array([queries[i].param("k") for i in idx],
                         dtype=np.float64)
            seconds = self.cost.linear_seconds_batch(m, n, k, prec)
            tflops = 2.0 * m * n * k / seconds / 1e12
            for j, i in enumerate(idx):
                q = queries[i]
                sec = float(seconds[j])
                _observe("serve.predicted.ns", sec * 1e9)
                out[i] = Prediction(
                    status="ok", kind=q.kind, device=q.device,
                    qid=q.qid,
                    metrics=(("seconds", _round(sec)),
                             ("tflops", _round(float(tflops[j])))),
                )
        return [p for p in out if p is not None]

    # -- llm.generate -------------------------------------------------------

    def _llm_group(self, queries: List[Query]) -> List[Prediction]:
        from repro.te.llm import LLAMA_MODELS

        out: List[Prediction] = []
        for q in queries:
            model_name = q.param("model")
            spec = LLAMA_MODELS.get(model_name)
            if spec is None:
                out.append(Prediction.error(
                    f"unknown LLM model {model_name!r}; known models: "
                    f"{sorted(LLAMA_MODELS)}",
                    kind=q.kind, device=q.device, qid=q.qid))
                continue
            prec = self._precision(q)
            if not self._supported(prec):
                out.append(self._unsupported_precision(q))
                continue
            est = self.llm.estimate(
                spec, prec, batch=q.param("batch"),
                input_len=q.param("input_len"),
                output_len=q.param("output_len"))
            if est.status == "OOM":
                need = self.llm.memory_required_bytes(
                    spec, prec, batch=q.param("batch"),
                    max_seq=q.param("input_len") + q.param("output_len"))
                out.append(Prediction(
                    status="oom", kind=q.kind, device=q.device,
                    qid=q.qid,
                    reason=(f"{model_name} {q.precision} needs "
                            f"{need / 2**30:.1f} GiB; "
                            f"{self.device.name} has "
                            f"{self.device.dram.size_gib} GiB"),
                ))
                continue
            _observe("serve.predicted.ns", est.decode_step_s * 1e9)
            out.append(Prediction(
                status="ok", kind=q.kind, device=q.device, qid=q.qid,
                metrics=(
                    ("decode_step_s", _round(est.decode_step_s)),
                    ("prefill_s", _round(est.prefill_s)),
                    ("tokens_per_second",
                     _round(est.tokens_per_second)),
                ),
            ))
        return out

    # -- mma / wgmma --------------------------------------------------------

    def _dtype(self, q: Query, param: str) -> DType:
        from repro.serve.schema import QueryError

        spelling = str(q.param(param)).lower()
        try:
            return PRECISION_DTYPES[spelling]
        except KeyError:
            raise QueryError(
                f"unknown dtype {q.param(param)!r} for param "
                f"{param!r}; known: {sorted(PRECISION_DTYPES)}"
            ) from None

    def _mma_group(self, queries: List[Query]) -> List[Prediction]:
        from repro.isa.mma import MatrixShape, MmaInstruction
        from repro.serve.schema import QueryError

        out: List[Optional[Prediction]] = [None] * len(queries)
        instrs: List[MmaInstruction] = []
        idx: List[int] = []
        for i, q in enumerate(queries):
            try:
                instr = MmaInstruction(
                    ab_type=self._dtype(q, "ab"),
                    cd_type=self._dtype(q, "cd"),
                    shape=MatrixShape(q.param("m"), q.param("n"),
                                      q.param("k")),
                    sparse=bool(q.param("sparse", False)),
                )
            except (QueryError, ValueError) as exc:
                out[i] = Prediction.error(str(exc), kind=q.kind,
                                          device=q.device, qid=q.qid)
                continue
            instrs.append(instr)
            idx.append(i)
        if instrs:
            sweep = self.tc.mma_sweep(instrs)
            for j, i in enumerate(idx):
                out[i] = self._sweep_prediction(queries[i], sweep[j])
        return [p for p in out if p is not None]

    def _wgmma_group(self, queries: List[Query]) -> List[Prediction]:
        from repro.isa.mma import (OperandSource, WgmmaInstruction,
                                   valid_wgmma_n)
        from repro.serve.schema import QueryError

        pack = self.device.pack
        if not pack.has_wgmma:
            why = (f"{self.device.name} ({pack.display_name}) has no "
                   "wgmma instructions (pack gate has_wgmma)")
            return [Prediction.unsupported(q, why) for q in queries]
        out: List[Optional[Prediction]] = [None] * len(queries)
        instrs: List[WgmmaInstruction] = []
        idx: List[int] = []
        for i, q in enumerate(queries):
            try:
                if q.param("n") not in valid_wgmma_n():
                    raise QueryError(
                        f"wgmma n={q.param('n')} is not a multiple "
                        "of 8 in [8, 256]")
                instr = WgmmaInstruction(
                    ab_type=self._dtype(q, "ab"),
                    cd_type=self._dtype(q, "cd"),
                    n=q.param("n"),
                    sparse=bool(q.param("sparse", False)),
                    a_source=(OperandSource.SHARED
                              if q.param("a_source", "ss") == "ss"
                              else OperandSource.REGISTER),
                )
            except (QueryError, ValueError) as exc:
                out[i] = Prediction.error(str(exc), kind=q.kind,
                                          device=q.device, qid=q.qid)
                continue
            instrs.append(instr)
            idx.append(i)
        if instrs:
            sweep = self.tc.wgmma_sweep(instrs)
            for j, i in enumerate(idx):
                out[i] = self._sweep_prediction(queries[i], sweep[j])
        return [p for p in out if p is not None]

    def _sweep_prediction(self, q: Query, entry) -> Prediction:
        """One SweepEntry → Prediction, honouring its ``supported``
        gate (the "×" cells of the paper's tables)."""
        if not entry.supported:
            ab = str(q.param("ab")).lower()
            return Prediction.unsupported(
                q, f"{self.device.name} "
                   f"({self.device.pack.display_name}) has no "
                   f"{q.kind} instruction for {ab} inputs "
                   "(SweepEntry.supported gate)")
        _observe("serve.predicted.clk", entry.latency_clk)
        metrics = (
            ("latency_clk", _round(entry.latency_clk)),
            ("issue_interval_clk", _round(entry.issue_interval_clk)),
            ("tflops", _round(entry.throughput_tflops("rand"))),
        )
        if entry.on_tensor_core:
            # off the tensor cores (INT4 mma on Hopper) there may be no
            # peak to be a fraction of
            metrics += (("fraction_of_peak",
                         _round(entry.fraction_of_peak("rand"))),)
        return Prediction(status="ok", kind=q.kind, device=q.device,
                          qid=q.qid, metrics=metrics)

    # -- memory.latency -----------------------------------------------------

    def _memory_group(self, queries: List[Query]) -> List[Prediction]:
        from repro.memory import MemoryHierarchy
        from repro.memory.chase import ChaseEngine

        # one hierarchy per group, grown once for its largest footprint
        # and flushed before every query: chases mutate cache state,
        # and a flushed hierarchy answers exactly as a fresh one does
        # (LRU clocks are ordinal), so answers stay order-independent —
        # what makes dedup/batching safe
        mh = MemoryHierarchy(self.device)
        span = max((q.param("footprint_kib") for q in queries),
                   default=0) * 1024
        mh.l1_for_sm(0).reserve_span(span)
        mh.l2.reserve_span(span)
        out: List[Prediction] = []
        for q in queries:
            footprint = q.param("footprint_kib") * 1024
            stride = q.param("stride_bytes")
            n = max(1, footprint // stride)
            seq = np.arange(n, dtype=np.int64) * stride
            mh.flush()
            mh.warm_tlb(0, footprint)
            stats = ChaseEngine(mh, size=32).run(
                seq, n + _CHASE_TAIL_ITERS)
            mean = stats.mean_latency_clk
            _observe("serve.predicted.clk", mean)
            out.append(Prediction(
                status="ok", kind=q.kind, device=q.device, qid=q.qid,
                metrics=(
                    ("mean_latency_clk", _round(mean)),
                    ("mean_latency_ns",
                     _round(mean / self.device.clocks.observed_hz
                            * 1e9)),
                ),
            ))
        return out

    # -- dsm.bandwidth ------------------------------------------------------

    def _dsm_group(self, queries: List[Query]) -> List[Prediction]:
        from repro.dsm.network import SmToSmNetwork
        from repro.isa.lowering import UnsupportedInstruction

        pack = self.device.pack
        if not pack.has_distributed_shared_memory:
            why = (f"{self.device.name} ({pack.display_name}) has no "
                   "SM-to-SM network (pack gate "
                   "has_distributed_shared_memory)")
            return [Prediction.unsupported(q, why) for q in queries]
        try:
            net = SmToSmNetwork(self.device)
        except UnsupportedInstruction as exc:  # pragma: no cover
            return [Prediction.unsupported(q, str(exc))
                    for q in queries]
        out: List[Prediction] = []
        for q in queries:
            cs = q.param("cluster_size")
            if cs > self.device.max_cluster_size:
                out.append(Prediction.error(
                    f"cluster size {cs} exceeds {self.device.name}'s "
                    f"max {self.device.max_cluster_size}",
                    kind=q.kind, device=q.device, qid=q.qid))
                continue
            tbps = net.aggregate_bandwidth_tbps(cs)
            _observe("serve.predicted.clk", net.latency_clk)
            out.append(Prediction(
                status="ok", kind=q.kind, device=q.device, qid=q.qid,
                metrics=(
                    ("aggregate_tbps", _round(tbps)),
                    ("remote_latency_clk", _round(net.latency_clk)),
                ),
            ))
        return out
