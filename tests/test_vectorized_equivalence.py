"""Scalar-vs-vectorized equivalence properties.

The vectorized pricing code — :class:`TensorCoreTimingModel`'s
``mma_sweep``/``wgmma_sweep`` (and the point API, one sweep row) and
the TE cost model's ``*_batch`` / ``op_seconds_grid`` walks — claims
to be *bit-identical* to the scalar reference implementations it
replaced (:class:`reference.ScalarMmaTiming`,
:class:`reference.ScalarWgmmaTiming` and the per-operator walk of
:class:`reference.ScalarCostModel` and :func:`reference.op_costs`).
This suite makes that claim a property, not a hope:

* Hypothesis generates random instruction/module grids (≥200 examples
  per property under the ``ci`` profile, derandomized so CI failures
  reproduce byte-for-byte).
* Cycle quantities (latencies, issue intervals) must match **exactly**.
* Throughputs and FP8 seconds must match within 2 ULP (in practice they
  are bit-equal too; the ULP bound documents the tolerance FP8 numerics
  are held to).
* Observability counter deltas (``tc.*``, ``te.op.*``) must be
  *identical* between a scalar walk and the batched sweep over the same
  grid.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.arch import get_device
from repro.isa.dtypes import DType
from repro.isa.lowering import UnsupportedInstruction
from repro.isa.mma import MmaInstruction, WgmmaInstruction, mma_shapes
from repro.obs.session import ObsSession
from repro.te.cost import Precision
from repro.te.modules import (
    DotProductAttention,
    LayerNorm,
    LayerNormMLP,
    Linear,
    RMSNorm,
    TransformerLayer,
    TransformerLayerConfig,
)
from repro.tensorcore.timing import TensorCoreTimingModel
from reference import (
    ScalarCostModel,
    ScalarMmaTiming,
    ScalarWgmmaTiming,
    latency_ms_scalar,
    seconds_grid_scalar,
)
from strategies import mma_instructions, token_arrays, wgmma_instructions

# -- CI determinism ----------------------------------------------------------
#
# ≥200 examples per property; derandomize pins the example sequence so
# every CI run (and every local repro) executes the identical grid.

settings.register_profile("ci", max_examples=200, derandomize=True,
                          deadline=None)
settings.load_profile("ci")

_DEVICE_NAMES = ("A100", "RTX4090", "H800")


def _ulp_diff(a: float, b: float) -> float:
    """|a − b| measured in ULPs of the larger magnitude."""
    if a == b:
        return 0.0
    if math.isnan(a) and math.isnan(b):
        return 0.0
    u = math.ulp(max(abs(a), abs(b)))
    return abs(a - b) / u


def assert_ulp(a: float, b: float, bound: float = 2.0) -> None:
    assert _ulp_diff(a, b) <= bound, f"{a!r} vs {b!r} differ > {bound} ULP"


# -- tensor-core sweeps -------------------------------------------------------


@given(name=st.sampled_from(_DEVICE_NAMES),
       instrs=st.lists(mma_instructions(), min_size=1, max_size=8))
def test_mma_sweep_matches_scalar(name, instrs):
    device = get_device(name)
    timings = []
    s_sess = ObsSession()
    with s_sess.activate():
        for instr in instrs:
            try:
                t = ScalarMmaTiming(device, instr)
                t.latency_clk, t.throughput_tflops("rand")
            except (UnsupportedInstruction, KeyError, ValueError):
                assume(False)
            timings.append(t)

    v_sess = ObsSession()
    with v_sess.activate():
        sweep = TensorCoreTimingModel(device).mma_sweep(instrs)

    assert len(sweep) == len(instrs)
    for t, entry in zip(timings, sweep):
        assert entry.supported
        assert entry.on_tensor_core == t.on_tensor_core
        # cycle quantities: exact
        assert entry.latency_clk == t.latency_clk
        assert entry.issue_interval_clk == t.issue_interval_clk
        # throughputs: ULP-bounded (bit-equal in practice)
        assert_ulp(entry.throughput_tflops("zero"),
                   t.throughput_tflops("zero"))
        assert_ulp(entry.throughput_tflops("rand"),
                   t.throughput_tflops("rand"))
        try:
            frac = t.fraction_of_peak()
        except KeyError:
            frac = None
        if frac is not None:
            assert_ulp(entry.fraction_of_peak(), frac)
    # counter parity: a scalar walk and one batched sweep over the same
    # grid must report identical tc.* deltas
    assert s_sess.counters.as_dict() == v_sess.counters.as_dict()


@given(instrs=st.lists(wgmma_instructions(), min_size=1, max_size=8))
def test_wgmma_sweep_matches_scalar(instrs):
    device = get_device("H800")
    timings = []
    s_sess = ObsSession()
    with s_sess.activate():
        for instr in instrs:
            try:
                t = ScalarWgmmaTiming(device, instr)
                t.latency_clk, t.throughput_tflops("rand")
            except (UnsupportedInstruction, KeyError, ValueError):
                assume(False)
            timings.append(t)

    v_sess = ObsSession()
    with v_sess.activate():
        sweep = TensorCoreTimingModel(device).wgmma_sweep(instrs)

    for t, entry in zip(timings, sweep):
        assert entry.latency_clk == t.latency_clk
        assert entry.issue_interval_clk == t.issue_interval_clk
        assert_ulp(entry.throughput_tflops("zero"),
                   t.throughput_tflops("zero"))
        assert_ulp(entry.throughput_tflops("rand"),
                   t.throughput_tflops("rand"))
        assert_ulp(entry.fraction_of_peak("zero"),
                   t.fraction_of_peak("zero"))
        assert_ulp(entry.fraction_of_peak("rand"),
                   t.fraction_of_peak("rand"))
    assert s_sess.counters.as_dict() == v_sess.counters.as_dict()


def test_wgmma_sweep_rejects_non_hopper():
    with pytest.raises(UnsupportedInstruction):
        TensorCoreTimingModel(get_device("A100")).wgmma_sweep(
            [WgmmaInstruction(DType.FP16, DType.FP32, 64)])


def test_sweep_entries_are_views():
    """Indexing a sweep yields the duck-typed per-instruction view."""
    device = get_device("H800")
    instr = MmaInstruction(DType.FP16, DType.FP32,
                           mma_shapes(DType.FP16)[1])
    sweep = TensorCoreTimingModel(device).mma_sweep([instr])
    entry = sweep[0]
    assert entry.throughput_tflops() == entry.throughput_tflops("zero")
    assert entry.fraction_of_peak("rand") == entry.frac_rand
    assert len(sweep) == 1
    assert isinstance(sweep.throughput_tflops("rand"), np.ndarray)


def test_point_api_is_one_sweep_row():
    tm = TensorCoreTimingModel(get_device("H800"))
    mma = MmaInstruction(DType.FP16, DType.FP32,
                         mma_shapes(DType.FP16)[1])
    wgmma = WgmmaInstruction(DType.FP16, DType.FP32, 128)
    assert tm.mma(mma) == tm.mma_sweep([mma])[0]
    assert tm.wgmma(wgmma) == tm.wgmma_sweep([wgmma])[0]


@pytest.mark.parametrize("name,ab,cd", [
    ("RTX4090", DType.FP64, DType.FP64),   # Ada has no FP64 tensor cores
    ("B200", DType.BIN1, DType.INT32),     # Blackwell drops binary MMA
])
def test_mma_without_tensor_core_peak_is_unsupported(name, ab, cd):
    tm = TensorCoreTimingModel(get_device(name))
    instr = MmaInstruction(ab, cd, mma_shapes(ab)[-1])
    assert not tm.mma_sweep([instr])[0].supported
    with pytest.raises(UnsupportedInstruction):
        tm.mma(instr)


# -- TE cost model ------------------------------------------------------------


def _cost_model(draw_name: str, precision: Precision) -> ScalarCostModel:
    cm = ScalarCostModel(get_device(draw_name))
    try:
        cm.gemm_tflops(precision)
        # attention always prices its GEMMs at the FP16 rate — warm it
        # here, outside any ObsSession, so counter-parity comparisons
        # see only the walk under test (rate pricing is lazily cached
        # and would otherwise bill its tc.* counters to whichever
        # session happens to run first)
        cm.gemm_tflops(Precision.FP16)
    except ValueError:
        assume(False)
    return cm


@given(name=st.sampled_from(_DEVICE_NAMES),
       precision=st.sampled_from(sorted(Precision,
                                        key=lambda p: p.value)),
       ns=st.lists(st.integers(min_value=1, max_value=20000),
                   min_size=1, max_size=6).map(np.asarray))
def test_linear_tflops_batch_matches_scalar(name, precision, ns):
    cm = _cost_model(name, precision)
    batch = cm.linear_tflops_batch(ns, precision)
    for n, v in zip(ns.tolist(), batch.tolist()):
        scalar = cm.linear_tflops(n, precision)
        if precision is Precision.FP8:
            assert_ulp(v, scalar)
        else:
            assert v == scalar


@given(name=st.sampled_from(_DEVICE_NAMES),
       precision=st.sampled_from(sorted(Precision,
                                        key=lambda p: p.value)),
       cache=st.booleans(),
       m=st.integers(1, 65536), n=st.integers(1, 65536),
       k=st.integers(1, 65536))
def test_linear_breakdown_batch_matches_scalar(name, precision, cache,
                                               m, n, k):
    cm = _cost_model(name, precision)
    ops = cm.linear(m, n, k, precision, cache_weight_cast=cache)
    parts = cm.linear_breakdown_batch(
        np.asarray([m]), np.asarray([n]), np.asarray([k]), precision,
        cache_weight_cast=cache)
    assert [name for name, _ in parts] == [name for name, _ in ops]
    for (_, secs), (_, op_secs) in zip(parts, ops):
        if precision is Precision.FP8:
            assert_ulp(float(secs[0]), op_secs)
        else:
            assert float(secs[0]) == op_secs


@given(name=st.sampled_from(_DEVICE_NAMES),
       precision=st.sampled_from(sorted(Precision,
                                        key=lambda p: p.value)),
       tokens=token_arrays,
       features=st.integers(min_value=1, max_value=16384),
       out_features=st.integers(min_value=1, max_value=16384))
def test_module_grids_match_scalar_walk(name, precision, tokens,
                                        features, out_features):
    cm = _cost_model(name, precision)
    modules = [
        Linear(features, out_features, bias=False),
        LayerNorm(features),
        RMSNorm(features),
        LayerNormMLP(1024, 2816),
    ]
    for module in modules:
        s_sess = ObsSession()
        with s_sess.activate():
            ref = seconds_grid_scalar(module, cm, tokens, precision)
        v_sess = ObsSession()
        with v_sess.activate():
            grid = module.seconds_grid(cm, tokens, precision)
        for a, b in zip(grid.tolist(), ref.tolist()):
            if precision is Precision.FP8:
                assert_ulp(a, b)
            else:
                assert a == b
        assert s_sess.counters.as_dict() == v_sess.counters.as_dict()


@given(precision=st.sampled_from(sorted(Precision,
                                        key=lambda p: p.value)),
       batch=st.integers(min_value=1, max_value=64),
       tokens=token_arrays)
def test_attention_grid_matches_scalar(precision, batch, tokens):
    cm = _cost_model("H800", precision)
    att = DotProductAttention(16, 128)
    ref = seconds_grid_scalar(att, cm, tokens, precision, batch=batch)
    grid = att.seconds_grid(cm, tokens, precision, batch=batch)
    assert np.array_equal(grid, ref)


@given(name=st.sampled_from(_DEVICE_NAMES),
       precision=st.sampled_from(sorted(Precision,
                                        key=lambda p: p.value)),
       hidden=st.sampled_from(
           sorted(TransformerLayerConfig.PAPER_CONFIGS)),
       batch=st.integers(min_value=1, max_value=16),
       seq=st.integers(min_value=1, max_value=4096))
def test_transformer_layer_grid_matches_scalar(name, precision, hidden,
                                               batch, seq):
    cm = _cost_model(name, precision)
    layer = TransformerLayer(TransformerLayerConfig.PAPER_CONFIGS[hidden])
    s_sess = ObsSession()
    with s_sess.activate():
        ref = latency_ms_scalar(layer, cm, batch=batch, seq=seq,
                                precision=precision)
    v_sess = ObsSession()
    with v_sess.activate():
        grid = float(layer.latency_ms_grid(cm, batch=batch, seq=seq,
                                           precision=precision))
    if precision is Precision.FP8:
        assert_ulp(grid, ref)
    else:
        assert grid == ref
    assert s_sess.counters.as_dict() == v_sess.counters.as_dict()


def test_transformer_layer_grid_broadcasts():
    """(batch, seq) arrays broadcast into a full latency surface."""
    cm = ScalarCostModel(get_device("H800"))
    layer = TransformerLayer(TransformerLayerConfig.PAPER_CONFIGS[1024])
    batches = np.asarray([1, 4, 8])[:, None]
    seqs = np.asarray([128, 512])[None, :]
    surface = layer.latency_ms_grid(cm, batch=batches, seq=seqs,
                                    precision=Precision.FP16)
    assert surface.shape == (3, 2)
    for i, b in enumerate((1, 4, 8)):
        for j, s in enumerate((128, 512)):
            assert surface[i, j] == latency_ms_scalar(
                layer, cm, batch=b, seq=s, precision=Precision.FP16)
