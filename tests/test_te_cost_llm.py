"""Tests for the TE cost model, LLM inference model and workload."""

from __future__ import annotations

import numpy as np
import pytest

from repro.te import (
    CostModel,
    LLAMA_MODELS,
    LlmInferenceModel,
    Precision,
    ShareGptWorkload,
)


class TestCostModel:
    def test_gemm_rates_ordered(self, h800):
        cm = CostModel(h800)
        assert cm.gemm_tflops(Precision.FP8) \
            > cm.gemm_tflops(Precision.FP16) \
            > cm.gemm_tflops(Precision.FP32)

    def test_fp8_unsupported_on_ampere(self, a100):
        with pytest.raises(ValueError, match="no fp8"):
            CostModel(a100).gemm_tflops(Precision.FP8)

    def test_gemm_compute_vs_io_bound(self, h800):
        cm = CostModel(h800)
        big, small = cm.gemm_seconds_batch([8192, 64], [8192, 64],
                                           [8192, 64], Precision.FP16)
        assert big > small
        # small GEMM dominated by launch overhead
        assert small >= cm.launch_overhead_s

    def test_gemm_validation(self, h800):
        with pytest.raises(ValueError):
            CostModel(h800).gemm_seconds_batch(0, 8, 8, Precision.FP16)

    def test_elementwise_cost(self, h800):
        cm = CostModel(h800)
        # 1 second of traffic
        secs = cm.elementwise_seconds_batch(cm.membw_bytes_per_s)
        assert float(secs) == pytest.approx(1.0, rel=0.01)
        with pytest.raises(ValueError):
            cm.elementwise_seconds_batch(-1)

    def test_linear_fp8_overheads_present(self, h800):
        cm = CostModel(h800)
        parts = cm.linear_breakdown_batch(1024, 1024, 1024, Precision.FP8)
        names = [name for name, _ in parts]
        assert names == ["quantize_input", "gemm", "scale_out"]
        plain = cm.linear_breakdown_batch(1024, 1024, 1024,
                                          Precision.FP16)
        assert [name for name, _ in plain] == ["gemm"]
        fig3 = np.asarray([2048, 4096, 8192, 16384])   # Fig. 3's sizes
        parts = cm.linear_breakdown_batch(fig3, fig3, fig3, Precision.FP8)
        assert len(parts) == 3
        assert all(secs.shape == fig3.shape for _, secs in parts)

    def test_weight_cast_cache_toggle(self, h800):
        cm = CostModel(h800)
        cached = cm.linear_seconds_batch(512, 512, 512, Precision.FP8)
        uncached = cm.linear_seconds_batch(512, 512, 512, Precision.FP8,
                                           cache_weight_cast=False)
        assert uncached > cached

    def test_overhead_ablation_switch(self, h800):
        cm = CostModel(h800)
        with_ov = cm.linear_tflops_batch(1024, Precision.FP8)
        without = cm.linear_tflops_batch(1024, Precision.FP8,
                                         include_overheads=False)
        assert without > 2 * with_ov

        # DESIGN.md §4 ablation 5: zeroing the cast/amax/scale ops
        # moves the FP8-vs-FP16 crossover from N ≈ 4–8k to almost 0 —
        # the small-matrix FP8 loss is pure conversion overhead
        sizes = np.asarray([256, 512, 1024, 2048, 4096, 8192, 16384])
        fp16 = cm.linear_tflops_batch(sizes, Precision.FP16)

        def crossover(include_overheads: bool) -> int:
            fp8 = cm.linear_tflops_batch(
                sizes, Precision.FP8, include_overheads=include_overheads)
            wins = sizes[fp8 > fp16]
            return int(wins[0]) if wins.size else 1 << 30

        with_ov, without = crossover(True), crossover(False)
        assert with_ov >= 2048          # overhead pushes crossover out
        assert without <= 512           # ablated: FP8 wins at once
        assert without < with_ov

    def test_fig4_crossover(self, h800):
        cm = CostModel(h800)
        sizes = np.asarray([1024, 16384])
        fp8 = cm.linear_tflops_batch(sizes, Precision.FP8)
        fp16 = cm.linear_tflops_batch(sizes, Precision.FP16)
        assert fp8[0] < fp16[0]
        assert fp8[1] > 1.6 * fp16[1]


class TestLlamaSpecs:
    def test_registry(self):
        assert LLAMA_MODELS["llama-2-7B"].layers == 32
        assert LLAMA_MODELS["llama-2-13B"].hidden == 5120

    def test_weight_bytes_by_precision(self):
        m = LLAMA_MODELS["llama-2-7B"]
        assert m.weight_bytes(Precision.FP32) \
            == 2 * m.weight_bytes(Precision.BF16)
        # FP8 keeps master + shadow copies: MORE than BF16
        assert m.weight_bytes(Precision.FP8) \
            > m.weight_bytes(Precision.BF16)

    def test_kv_cache_scales(self):
        m = LLAMA_MODELS["llama-3B"]
        assert m.kv_cache_bytes(8, 256) == 2 * m.kv_cache_bytes(4, 256)


class TestLlmInference:
    def test_table12_oom_matrix(self):
        from repro.arch import get_device
        rtx = LlmInferenceModel(get_device("RTX4090"))
        a100 = LlmInferenceModel(get_device("A100"))
        h800 = LlmInferenceModel(get_device("H800"))
        m7 = LLAMA_MODELS["llama-2-7B"]
        m13 = LLAMA_MODELS["llama-2-13B"]
        assert rtx.estimate(m7, Precision.FP32).status == "OOM"
        assert rtx.estimate(m7, Precision.FP8).status == "OOM"
        assert rtx.estimate(m7, Precision.BF16).status == "ok"
        assert a100.estimate(m13, Precision.FP32).status == "OOM"
        assert a100.estimate(m13, Precision.BF16).status == "ok"
        assert a100.estimate(m7, Precision.FP8).status == "-"
        assert h800.estimate(m13, Precision.FP32).status == "ok"

    def test_throughput_magnitudes(self, h800):
        m = LlmInferenceModel(h800)
        est = m.estimate(LLAMA_MODELS["llama-3B"], Precision.BF16)
        # paper: 624 tokens/s — same ballpark required
        assert 400 < est.tokens_per_second < 900

    def test_fp8_no_decode_advantage(self, h800):
        m = LlmInferenceModel(h800)
        spec = LLAMA_MODELS["llama-2-7B"]
        fp8 = m.estimate(spec, Precision.FP8).tokens_per_second
        bf16 = m.estimate(spec, Precision.BF16).tokens_per_second
        assert fp8 <= bf16 * 1.1

    def test_bigger_models_slower(self, h800):
        m = LlmInferenceModel(h800)
        t = [m.estimate(LLAMA_MODELS[n],
                        Precision.BF16).tokens_per_second
             for n in ("llama-3B", "llama-2-7B", "llama-2-13B")]
        assert t[0] > t[1] > t[2]
        for spec in LLAMA_MODELS.values():
            assert m.estimate(spec, Precision.BF16).status == "ok"

    def test_workload_driven_estimate(self, h800):
        m = LlmInferenceModel(h800)
        est = m.estimate_workload(LLAMA_MODELS["llama-3B"],
                                  Precision.BF16, n_requests=32)
        assert est.status == "ok"
        assert est.tokens_per_second > 0
        assert m.estimate_workload(LLAMA_MODELS["llama-3B"],
                                   Precision.BF16, n_requests=64) \
            .tokens_per_second > 0

    @pytest.mark.parametrize("precision,tokens_per_second", [
        (Precision.BF16, 258.0361976963443),
        (Precision.FP8, 248.80490304845492),
        (Precision.FP32, 242.08496522560176),
    ])
    def test_workload_estimate_pinned(self, h800, precision,
                                      tokens_per_second):
        """H800 llama-2-7B over 64 seed-0 requests in batches of 8,
        priced one :meth:`estimate` per batch group."""
        est = LlmInferenceModel(h800).estimate_workload(
            LLAMA_MODELS["llama-2-7B"], precision, n_requests=64,
            batch=8, seed=0)
        assert est.status == "ok"
        assert est.tokens_per_second == tokens_per_second

    def test_workload_estimate_gates(self):
        from repro.arch import get_device
        llama = LLAMA_MODELS["llama-2-7B"]
        rtx = LlmInferenceModel(get_device("RTX4090"))
        assert rtx.estimate_workload(llama, Precision.FP8).status \
            == "OOM"
        a100 = LlmInferenceModel(get_device("A100"))
        assert a100.estimate_workload(llama, Precision.FP8).status \
            == "-"

    def test_cell_formatting(self, h800):
        m = LlmInferenceModel(h800)
        est = m.estimate(LLAMA_MODELS["llama-3B"], Precision.BF16)
        assert "." in est.cell


class TestWorkload:
    def test_lengths_clipped(self):
        wl = ShareGptWorkload(max_input=128, max_output=128, seed=1)
        reqs = wl.sample(500)
        assert all(1 <= r.input_len <= 128 for r in reqs)
        assert all(1 <= r.output_len <= 128 for r in reqs)

    def test_deterministic_with_seed(self):
        a = ShareGptWorkload(seed=7).sample(20)
        b = ShareGptWorkload(seed=7).sample(20)
        assert a == b
        c = ShareGptWorkload(seed=8).sample(20)
        assert a != c

    def test_distribution_shape(self):
        reqs = ShareGptWorkload(max_input=10 ** 6, max_output=10 ** 6,
                                seed=0).sample(4000)
        inputs = np.array([r.input_len for r in reqs])
        outputs = np.array([r.output_len for r in reqs])
        # heavy-tailed: mean >> median (log-normal mixture)
        assert inputs.mean() > 1.3 * np.median(inputs)
        # responses typically longer than prompts
        assert np.median(outputs) > np.median(inputs)

    def test_batches(self):
        wl = ShareGptWorkload(seed=0)
        groups = wl.batches(20, 8)
        assert [len(g) for g in groups] == [8, 8, 4]
        with pytest.raises(ValueError):
            wl.batches(10, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ShareGptWorkload(max_input=0)
        with pytest.raises(ValueError):
            ShareGptWorkload().sample(0)

    def test_total_len(self):
        from repro.te import Request
        assert Request(10, 20).total_len == 30
