"""repro.serve — schema, planner, oracle, capability gates.

The service's promise is typed questions in, structured answers out:
canonical serialization makes equal questions byte-equal, the planner
coalesces them into per-(kind, device) shards, and the oracle answers
through the vectorized engines with *structured* unsupported-capability
predictions (never exceptions) wherever a pack gate says no.
"""

from __future__ import annotations

import json

import pytest

from repro.arch import get_device, list_devices
from repro.isa.dtypes import accumulator_types
from repro.isa.mma import mma_shapes, valid_wgmma_n, wgmma_k
from repro.obs.session import ObsSession
from repro.serve import (
    CostOracle,
    Prediction,
    Query,
    QueryError,
    QueryService,
    parse_query,
    parse_query_line,
    plan_queries,
)
from repro.serve.oracle import PRECISION_DTYPES


class TestQuerySchema:
    def test_canonical_is_spelling_independent(self):
        a = parse_query_line(
            '{"kind":"te.linear","device":"h800","precision":"FP16",'
            '"params":{"m":64,"n":64,"k":64}}')
        b = parse_query_line(
            '{"params":{"k":64,"m":64,"n":64},"device":"H800",'
            '"precision":"fp16","kind":"te.linear"}')
        assert a.canonical() == b.canonical()
        assert a.key() == b.key()

    def test_qid_excluded_from_identity(self):
        a = parse_query({"kind": "dsm.bandwidth", "device": "H800",
                         "params": {"cluster_size": 4}, "id": "x"})
        b = parse_query({"kind": "dsm.bandwidth", "device": "H800",
                         "params": {"cluster_size": 4}, "id": "y"})
        assert a == b
        assert a.canonical() == b.canonical()
        assert '"id"' not in a.canonical()

    def test_defaults_enter_canonical_form(self):
        # an explicit default and an omission must dedup together
        a = parse_query({"kind": "llm.generate", "device": "H800",
                         "precision": "fp8",
                         "params": {"model": "llama-2-7B"}})
        b = parse_query({"kind": "llm.generate", "device": "H800",
                         "precision": "fp8",
                         "params": {"model": "llama-2-7B",
                                    "batch": 8}})
        assert a.canonical() == b.canonical()

    def test_unknown_kind_and_field_rejected(self):
        with pytest.raises(QueryError, match="unknown query kind"):
            Query(kind="te.nonlinear", device="H800")
        with pytest.raises(QueryError, match="unknown param"):
            parse_query({"kind": "mma", "device": "H800",
                         "params": {"ab": "fp16", "cd": "fp32",
                                    "m": 16, "n": 8, "k": 16,
                                    "zz": 1}})
        with pytest.raises(QueryError, match="requires param"):
            parse_query({"kind": "te.linear", "device": "H800",
                         "precision": "fp16",
                         "params": {"m": 64, "n": 64}})

    def test_unknown_device_gets_suggestions(self):
        # QueryError, not KeyError — answer_lines only catches the
        # former, so this is what keeps a bad device in-stream
        with pytest.raises(QueryError, match="did you mean"):
            parse_query({"kind": "mma", "device": "H80",
                         "params": {"ab": "fp16", "cd": "fp32",
                                    "m": 16, "n": 8, "k": 16}})

    def test_bad_json_line(self):
        with pytest.raises(QueryError, match="bad JSON"):
            parse_query_line("{nope")

    def test_prediction_line_is_canonical(self):
        p = Prediction(status="ok", kind="mma", device="A100",
                       metrics=(("latency_clk", 25.5),))
        obj = json.loads(p.to_line())
        assert obj["schema"].startswith("hopperdissect.prediction/")
        assert p.to_line() == Prediction.from_payload(obj).to_line()


class TestPlanner:
    def _q(self, device, m):
        return parse_query({"kind": "te.linear", "device": device,
                            "precision": "fp16",
                            "params": {"m": m, "n": m, "k": m}})

    def test_shards_group_by_kind_and_device(self):
        queries = [self._q("H800", 64), self._q("A100", 64),
                   self._q("H800", 128),
                   parse_query({"kind": "dsm.bandwidth",
                                "device": "H800",
                                "params": {"cluster_size": 2}})]
        plan = plan_queries(queries)
        assert [(s.kind, s.device, len(s.queries))
                for s in plan.shards] == [
            ("dsm.bandwidth", "H800", 1),
            ("te.linear", "A100", 1),
            ("te.linear", "H800", 2),
        ]

    def test_dedup_and_expansion_restore_input_order(self):
        queries = [self._q("H800", 64), self._q("A100", 64),
                   self._q("H800", 64)]
        plan = plan_queries(queries)
        assert plan.n_duplicates == 1
        # positions 0 and 2 share a slot; answers expand in order
        assert plan.expansion[0] == plan.expansion[2]
        assert plan.expansion[1] != plan.expansion[0]
        shard_sizes = sum(len(s.queries) for s in plan.shards)
        assert shard_sizes == 2

    def test_content_key_covers_slot_order(self):
        a = plan_queries([self._q("H800", 64), self._q("H800", 128)])
        b = plan_queries([self._q("H800", 128), self._q("H800", 64)])
        assert a.shards[0].content_key() != b.shards[0].content_key()


class TestOracle:
    def test_answers_match_point_queries(self):
        oracle = CostOracle("H800")
        queries = [
            parse_query({"kind": "te.linear", "device": "H800",
                         "precision": "fp16",
                         "params": {"m": m, "n": m, "k": m}})
            for m in (256, 512, 1024)
        ]
        grouped = oracle.answer_group("te.linear", queries)
        for q, p in zip(queries, grouped):
            assert p.status == "ok"
            assert p == oracle.answer(q)
            assert p.metric("seconds") > 0
            assert p.metric("tflops") > 0

    def test_warm_oracle_answers_are_stable(self):
        oracle = CostOracle("H800")
        q = parse_query({"kind": "llm.generate", "device": "H800",
                         "precision": "fp8",
                         "params": {"model": "llama-2-7B"}})
        assert oracle.answer(q) == oracle.answer(q)

    def test_llm_oom_is_structured(self):
        q = parse_query({"kind": "llm.generate", "device": "RTX4090",
                         "precision": "fp16",
                         "params": {"model": "llama-2-13B",
                                    "batch": 512,
                                    "input_len": 2048,
                                    "output_len": 2048}})
        p = CostOracle("RTX4090").answer(q)
        assert p.status == "oom"
        assert "GiB" in p.reason

    def test_unknown_llm_model_is_in_stream_error(self):
        q = parse_query({"kind": "llm.generate", "device": "H800",
                         "precision": "fp16",
                         "params": {"model": "llama-99B"}})
        p = CostOracle("H800").answer(q)
        assert p.status == "error"
        assert "known models" in p.reason

    def test_memory_latency_grows_past_l2(self):
        oracle = CostOracle("H800")

        def probe(kib):
            return oracle.answer(parse_query(
                {"kind": "memory.latency", "device": "H800",
                 "params": {"footprint_kib": kib}}))
        small = probe(64).metric("mean_latency_clk")
        large = probe(4096).metric("mean_latency_clk")
        assert large > small

    @pytest.mark.parametrize("device", list_devices())
    def test_memory_shard_answers_are_order_independent(self, device):
        """One ``memory.latency`` shard reuses a flushed hierarchy
        across its queries; in either order it answers and counts
        exactly as a fresh oracle per query does."""
        shapes = ((16, 128), (256, 128), (4096, 128), (64, 32),
                  (1024, 4096))
        queries = [parse_query(
            {"kind": "memory.latency", "device": device,
             "params": {"footprint_kib": kib, "stride_bytes": stride}})
            for kib, stride in shapes]

        def answered(answer):
            session = ObsSession()
            with session.activate():
                predictions = answer()
            return predictions, session.counters.dump()

        alone = answered(lambda: [CostOracle(device).answer(q)
                                  for q in queries])
        forward = answered(lambda: CostOracle(device).answer_group(
            "memory.latency", queries))
        backward = answered(lambda: CostOracle(device).answer_group(
            "memory.latency", queries[::-1])[::-1])
        assert forward == alone
        assert backward == alone

    def test_dsm_cluster_size_gate(self):
        oracle = CostOracle("H800")
        ok = oracle.answer(parse_query(
            {"kind": "dsm.bandwidth", "device": "H800",
             "params": {"cluster_size": 4}}))
        assert ok.status == "ok"
        assert ok.metric("aggregate_tbps") > 0
        over = oracle.answer(parse_query(
            {"kind": "dsm.bandwidth", "device": "H800",
             "params": {"cluster_size": 32}}))
        assert over.status == "error"
        assert "exceeds" in over.reason


class TestCapabilityGates:
    """Structured unsupported answers across every registered device.

    The matrix is the packs' own flags, so a new device pack joins
    these assertions automatically.
    """

    @pytest.mark.parametrize("device", list_devices())
    def test_wgmma_gate_matches_pack(self, device):
        q = parse_query({"kind": "wgmma", "device": device,
                         "params": {"ab": "fp16", "cd": "fp32",
                                    "n": 64}})
        p = CostOracle(device).answer(q)
        if get_device(device).pack.has_wgmma:
            assert p.status == "ok"
            assert p.metric("latency_clk") > 0
        else:
            assert p.status == "unsupported"
            assert "has_wgmma" in p.reason

    @pytest.mark.parametrize("device", list_devices())
    def test_fp8_linear_gate_matches_pack(self, device):
        q = parse_query({"kind": "te.linear", "device": device,
                         "precision": "fp8",
                         "params": {"m": 256, "n": 256, "k": 256}})
        p = CostOracle(device).answer(q)
        if get_device(device).pack.has_fp8:
            assert p.status == "ok"
        else:
            assert p.status == "unsupported"
            assert "has_fp8" in p.reason

    @pytest.mark.parametrize("device", list_devices())
    def test_dsm_gate_matches_pack(self, device):
        q = parse_query({"kind": "dsm.bandwidth", "device": device,
                         "params": {"cluster_size": 2}})
        p = CostOracle(device).answer(q)
        if get_device(device).pack.has_distributed_shared_memory:
            assert p.status == "ok"
        else:
            assert p.status == "unsupported"
            assert "has_distributed_shared_memory" in p.reason

    def test_volta_fp32_rides_sweep_entry_gate(self):
        # V100's gen-1 tensor cores are FP16-only: the tf32 mma path
        # answers through SweepEntry.supported, not an exception
        q = parse_query({"kind": "mma", "device": "V100",
                         "params": {"ab": "tf32", "cd": "fp32",
                                    "m": 16, "n": 8, "k": 8}})
        p = CostOracle("V100").answer(q)
        assert p.status == "unsupported"

    def test_unsupported_queries_keep_batch_streaming(self):
        # one unsupported query must not poison its shard's neighbours
        oracle = CostOracle("V100")
        queries = [
            parse_query({"kind": "mma", "device": "V100",
                         "params": {"ab": "fp16", "cd": "fp32",
                                    "m": 16, "n": 8, "k": 16}}),
            parse_query({"kind": "mma", "device": "V100",
                         "params": {"ab": "tf32", "cd": "fp32",
                                    "m": 16, "n": 8, "k": 8}}),
        ]
        first, second = oracle.answer_group("mma", queries)
        assert first.status == "ok"
        assert second.status == "unsupported"

    @pytest.mark.parametrize("device,ab,cd,shape", [
        ("RTX4090", "fp64", "fp64", (8, 8, 4)),     # Ada: no FP64 TC
        ("B200", "bin1", "int32", (16, 8, 256)),   # Blackwell: no BMMA
    ])
    def test_mma_without_tensor_core_peak_is_unsupported(
            self, device, ab, cd, shape):
        # the tensor cores have no peak for these inputs: the sweep
        # marks the row unsupported instead of answering a zero rate
        m, n, k = shape
        q = parse_query({"kind": "mma", "device": device,
                         "params": {"ab": ab, "cd": cd,
                                    "m": m, "n": n, "k": k}})
        p = CostOracle(device).answer(q)
        assert p.status == "unsupported"
        assert p.metrics == ()
        assert "SweepEntry.supported gate" in p.reason


#: one query spelling per dtype (the first PRECISION_DTYPES lists)
_SPELLINGS = {dtype: spelling for spelling, dtype
              in reversed(PRECISION_DTYPES.items())}


def _legal_mma_queries(device):
    for ab, spelling in _SPELLINGS.items():
        try:
            shapes = mma_shapes(ab)
        except ValueError:          # FP8 has no mma
            continue
        for cd in accumulator_types(ab):
            for s in shapes:
                for sparse in (False, True):
                    if sparse and ab.name in ("BIN1", "FP64"):
                        continue
                    yield {"kind": "mma", "device": device,
                           "params": {"ab": spelling,
                                      "cd": _SPELLINGS[cd],
                                      "m": s.m, "n": s.n, "k": s.k,
                                      "sparse": sparse}}


def _legal_wgmma_queries(device):
    for ab, spelling in _SPELLINGS.items():
        try:
            wgmma_k(ab)
        except ValueError:          # FP64 and INT4 have no wgmma
            continue
        for cd in accumulator_types(ab):
            for n in valid_wgmma_n():
                for sparse in (False, True):
                    if sparse and ab.name == "BIN1":
                        continue
                    for src in ("ss", "rs"):
                        yield {"kind": "wgmma", "device": device,
                               "params": {"ab": spelling,
                                          "cd": _SPELLINGS[cd],
                                          "n": n, "sparse": sparse,
                                          "a_source": src}}


def _no_constants(name):
    raise AssertionError(f"{name} is not JSON")


class TestPredictionLinesAreJson:
    """Every answer line parses as strict JSON: no ``NaN`` or
    ``Infinity`` literal, whatever the device lacks."""

    def _answer(self, queries):
        lines = [json.dumps(q) for q in queries]
        out = QueryService(cache=None).answer_lines_text(lines) \
            .splitlines()
        assert len(out) == len(lines)
        return [json.loads(line, parse_constant=_no_constants)
                for line in out]

    @pytest.mark.parametrize("device", list_devices())
    def test_every_legal_mma(self, device):
        answers = self._answer(list(_legal_mma_queries(device)))
        assert {a["status"] for a in answers} <= {"ok", "unsupported"}
        assert any(a["status"] == "ok" for a in answers)

    def test_every_legal_wgmma_on_h800(self):
        answers = self._answer(list(_legal_wgmma_queries("H800")))
        assert {a["status"] for a in answers} == {"ok"}

    @pytest.mark.parametrize("device", ["H800", "B200"])
    def test_cuda_core_int4_omits_fraction_of_peak(self, device):
        # Hopper and Blackwell run INT4 mma on CUDA cores, where the
        # tensor cores have no INT4 peak to be a fraction of
        q = parse_query({"kind": "mma", "device": device,
                         "params": {"ab": "int4", "cd": "int32",
                                    "m": 16, "n": 8, "k": 64}})
        p = CostOracle(device).answer(q)
        assert p.status == "ok"
        assert [k for k, _ in p.metrics] == [
            "latency_clk", "issue_interval_clk", "tflops"]
