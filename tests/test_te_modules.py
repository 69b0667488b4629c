"""Tests for the Transformer-Engine module zoo."""

from __future__ import annotations

import numpy as np
import pytest

from repro.arch import get_device
from repro.te import (
    CostModel,
    DotProductAttention,
    LayerNorm,
    LayerNormMLP,
    Linear,
    Precision,
    RMSNorm,
    TransformerLayer,
    TransformerLayerConfig,
    fp8_autocast,
    fp8_is_enabled,
)
from repro.te.modules import gelu, swiglu


def _x(shape, seed=0):
    return np.random.default_rng(seed).normal(size=shape)


class TestAutocast:
    def test_context_toggles(self):
        assert not fp8_is_enabled()
        with fp8_autocast():
            assert fp8_is_enabled()
            with fp8_autocast(False):
                assert not fp8_is_enabled()
            assert fp8_is_enabled()
        assert not fp8_is_enabled()

    def test_restored_on_exception(self):
        with pytest.raises(RuntimeError):
            with fp8_autocast():
                raise RuntimeError("boom")
        assert not fp8_is_enabled()


class TestLinear:
    def test_fp16_forward_close_to_exact(self):
        lin = Linear(32, 16)
        x = _x((8, 32))
        y = lin(x, precision=Precision.FP16)
        ref = x @ lin.weight.T + lin.bias
        assert np.allclose(y, ref, rtol=1e-2, atol=1e-2)

    def test_fp8_recipe(self):
        lin = Linear(64, 64, bias=False)
        x = _x((4, 64))
        with fp8_autocast():
            y8 = lin(x)
        ref = x @ lin.weight.T
        rel = np.abs(y8 - ref) / (np.abs(ref) + 1e-6)
        assert np.median(rel) < 0.1      # FP8 is coarse but sane
        y16 = lin(x, precision=Precision.FP16)
        assert np.median(np.abs(y16 - ref)) \
            < np.median(np.abs(y8 - ref))
        wide = Linear(512, 512, bias=False)
        with fp8_autocast():
            assert wide(_x((64, 512))).shape == (64, 512)

    def test_fp32_exact(self):
        lin = Linear(8, 8, bias=False)
        x = _x((2, 8))
        y = lin(x, precision=Precision.FP32)
        assert np.allclose(y, x @ lin.weight.T, rtol=1e-12)

    def test_shape_validation(self):
        lin = Linear(8, 4)
        with pytest.raises(ValueError, match="last dim"):
            lin(_x((2, 9)))
        with pytest.raises(ValueError):
            Linear(0, 4)

    def test_lazy_weight_not_materialized_by_costs(self, h800):
        lin = Linear(8192, 8192)
        cm = CostModel(h800)
        lin.op_costs(cm, tokens=128, precision=Precision.FP16)
        assert lin._weight is None     # pricing didn't allocate

    def test_weight_setter_validates(self):
        lin = Linear(4, 2)
        with pytest.raises(ValueError):
            lin.weight = np.ones((3, 3))
        lin.weight = np.ones((2, 4))
        assert np.all(lin(np.ones((1, 4)),
                          precision=Precision.FP32)
                      == 4.0 + lin.bias)


class TestNorms:
    def test_layernorm_statistics(self):
        ln = LayerNorm(64)
        y = ln(_x((10, 64)) * 5 + 3)
        assert np.allclose(y.mean(-1), 0, atol=1e-9)
        assert np.allclose(y.std(-1), 1, atol=1e-3)

    def test_rmsnorm_unit_rms(self):
        rn = RMSNorm(64)
        y = rn(_x((10, 64)) * 7)
        assert np.allclose(np.sqrt(np.mean(y * y, -1)), 1, atol=1e-3)

    def test_rmsnorm_no_mean_subtraction(self):
        rn = RMSNorm(4)
        x = np.array([[1.0, 1.0, 1.0, 1.0]])
        assert np.allclose(rn(x), 1.0, atol=1e-4)

    def test_norm_costs_are_bandwidth_ops(self, h800):
        cm = CostModel(h800)
        ops = RMSNorm(4096).op_costs(cm, 2048, Precision.FP16)
        assert len(ops) == 1
        assert ops[0].flops == 0
        assert ops[0].bytes == 2048 * 4096 * 2 * 2


class TestActivations:
    def test_swiglu(self):
        g = np.array([0.0, 100.0])
        u = np.array([3.0, 2.0])
        out = swiglu(g, u)
        assert out[0] == 0.0
        assert out[1] == pytest.approx(200.0, rel=1e-6)

    def test_gelu_endpoints(self):
        assert gelu(np.array([0.0]))[0] == 0.0
        assert gelu(np.array([10.0]))[0] == pytest.approx(10.0,
                                                          rel=1e-4)
        assert abs(gelu(np.array([-10.0]))[0]) < 1e-3


class TestLayerNormMLP:
    def test_forward_shapes(self):
        mlp = LayerNormMLP(32, 64)
        y = mlp(_x((2, 5, 32)))
        assert y.shape == (2, 5, 32)

    def test_gelu_variant(self):
        mlp = LayerNormMLP(16, 32, activation="gelu",
                           normalization="layernorm")
        assert mlp(_x((3, 16))).shape == (3, 16)
        with pytest.raises(ValueError):
            LayerNormMLP(16, 32, activation="relu")

    def test_fusion_drops_input_quantize(self, h800):
        cm = CostModel(h800)
        mlp = LayerNormMLP(1024, 2816)
        ops = mlp.op_costs(cm, 2048, Precision.FP8)
        names = [o.name for o in ops]
        # fc1's quantize_input removed by fusion, fc2's kept
        assert names.count("quantize_input") == 1

    def test_swiglu_fc1_width(self):
        mlp = LayerNormMLP(16, 32, activation="swiglu")
        assert mlp.fc1.out_features == 64


class TestAttention:
    def test_softmax_rows_sum_to_one_effect(self):
        att = DotProductAttention(2, 8)
        q = k = v = _x((1, 4, 2, 8))
        out = att(q, k, v)
        assert out.shape == (1, 4, 2, 8)
        # attention output is a convex combination of v rows
        assert out.max() <= v.max() + 1e-9
        assert out.min() >= v.min() - 1e-9

    def test_causal_mask(self):
        att = DotProductAttention(1, 4)
        s = 4
        q = k = _x((1, s, 1, 4), 1)
        v = np.zeros((1, s, 1, 4))
        v[0, -1] = 100.0  # only the last position carries signal
        causal = np.tril(np.ones((s, s), dtype=bool))
        out = att(q, k, v, mask=causal[None, None])
        # earlier queries cannot see position s-1
        assert np.allclose(out[0, 0], 0.0)
        assert np.abs(out[0, -1]).max() > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            DotProductAttention(0, 8)


class TestTransformerLayer:
    def test_paper_configs(self):
        cfgs = TransformerLayerConfig.PAPER_CONFIGS
        assert cfgs[4096].ffn_hidden_size == 11008
        assert cfgs[8192].num_attention_heads == 64
        assert cfgs[5120].head_dim == 128

    def test_head_divisibility(self):
        with pytest.raises(ValueError):
            TransformerLayerConfig(100, 200, 3)

    def test_forward_small(self):
        layer = TransformerLayer(TransformerLayerConfig(64, 128, 4))
        x = _x((2, 8, 64))
        y = layer(x)
        assert y.shape == x.shape
        assert np.all(np.isfinite(y))
        x = _x((2, 16, 128))
        layer = TransformerLayer(TransformerLayerConfig(128, 256, 4))
        assert layer.forward(x).shape == x.shape

    def test_latency_scaling(self, h800):
        cm = CostModel(h800)
        lat = {}
        for h in (1024, 4096, 8192):
            layer = TransformerLayer(
                TransformerLayerConfig.PAPER_CONFIGS[h])
            lat[h] = layer.latency_ms(cm, precision=Precision.FP16)
        assert lat[1024] < lat[4096] < lat[8192]
        # roughly quadratic in hidden size at large sizes
        assert lat[8192] / lat[4096] > 2.5
        # Fig. 5's grid: every paper config at every precision
        configs = TransformerLayerConfig.PAPER_CONFIGS
        assert len(configs) == 5
        for cfg in configs.values():
            for p in (Precision.FP8, Precision.FP16, Precision.FP32):
                assert TransformerLayer(cfg).latency_ms(
                    cm, precision=p) > 0

    def test_fp8_crossover(self, h800):
        cm = CostModel(h800)
        small = TransformerLayer(
            TransformerLayerConfig.PAPER_CONFIGS[1024])
        large = TransformerLayer(
            TransformerLayerConfig.PAPER_CONFIGS[8192])
        assert small.latency_ms(cm, precision=Precision.FP8) \
            > small.latency_ms(cm, precision=Precision.FP16)
        assert large.latency_ms(cm, precision=Precision.FP8) \
            < large.latency_ms(cm, precision=Precision.FP16)
