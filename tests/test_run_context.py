"""RunContext semantics: normalization, selection, identity."""

from __future__ import annotations

import inspect
import pickle
from dataclasses import fields

import pytest

from repro.core import (
    DEFAULT_CONTEXT,
    Check,
    DeviceNotInContext,
    RunContext,
    Table,
    get_experiment,
    list_experiments,
    run_experiment,
    supported_experiments,
)
from repro.core.registry import Experiment, ExperimentResult


class TestConstruction:
    def test_default_is_the_paper_testbed(self):
        assert DEFAULT_CONTEXT.devices == ("RTX4090", "A100", "H800")
        assert DEFAULT_CONTEXT.seed == 0
        assert DEFAULT_CONTEXT.is_default

    def test_devices_are_uppercased_and_deduped(self):
        ctx = RunContext(devices=("h800", "H800", "a100"))
        assert ctx.devices == ("H800", "A100")

    def test_unregistered_device_rejected(self):
        with pytest.raises(KeyError):
            RunContext(devices=("H100",))

    def test_empty_sweep_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            RunContext(devices=())

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be non-negative"):
            RunContext(seed=-1)
        with pytest.raises(ValueError, match="seed must be non-negative"):
            DEFAULT_CONTEXT.derive(seed=-1)

    def test_non_default_contexts_are_not_default(self):
        assert not RunContext(devices=("A100",)).is_default
        assert not RunContext(seed=7).is_default

    def test_only_devices_and_seed_are_fields(self):
        assert [f.name for f in fields(RunContext)] == ["devices", "seed"]


class TestSelection:
    def test_device_order_prefers_requested_order(self):
        ctx = RunContext(devices=("RTX4090", "A100", "H800"))
        assert ctx.device_order("A100", "RTX4090", "H800") == \
            ("A100", "RTX4090", "H800")

    def test_device_order_appends_extra_context_devices(self):
        ctx = RunContext(devices=("H800", "A100"))
        assert ctx.device_order("A100") == ("A100", "H800")

    def test_select_is_the_intersection_in_request_order(self):
        ctx = RunContext(devices=("H800", "A100"))
        assert ctx.select("RTX4090", "H800") == ("H800",)
        assert ctx.select("A100", "H800") == ("A100", "H800")

    def test_pin_returns_name_or_raises(self):
        ctx = RunContext(devices=("A100",))
        assert ctx.pin("a100") == "A100"
        with pytest.raises(DeviceNotInContext):
            ctx.pin("H800")

    def test_has(self):
        ctx = RunContext(devices=("A100", "H800"))
        assert ctx.has("A100") and ctx.has("h800", "a100")
        assert not ctx.has("RTX4090")


class TestIdentity:
    def test_token_covers_every_knob(self):
        a = RunContext(devices=("A100",), seed=3)
        assert a.token() == "devices=A100;seed=3"
        assert a.token() != DEFAULT_CONTEXT.token()

    def test_payload_roundtrip(self):
        # the pool ships contexts pickled, as they are
        a = RunContext(devices=("H800", "A100"), seed=5)
        b = pickle.loads(pickle.dumps(a))
        assert b == a and b.token() == a.token()
        assert b.devices == ("H800", "A100") and b.seed == 5

    def test_rng_is_seed_deterministic(self):
        a = RunContext(seed=9).rng().integers(0, 100, 8)
        b = RunContext(seed=9).rng().integers(0, 100, 8)
        assert list(a) == list(b)


class TestRegistryIntegration:
    def test_pinned_experiments_are_filtered(self):
        ctx = RunContext(devices=("A100",))
        supported = supported_experiments(ctx)
        assert "table03_devices" in supported      # sweeps anything
        assert "fig08_dsm_rbc" not in supported    # pinned H800
        assert "table14_async_a100" in supported   # pinned A100

    def test_running_unsupported_experiment_raises(self):
        with pytest.raises(DeviceNotInContext):
            run_experiment("fig08_dsm_rbc",
                           RunContext(devices=("A100",)))

    def test_result_records_context(self):
        ctx = RunContext(devices=("A100",))
        res = run_experiment("table03_devices", ctx)
        assert res.context == ctx
        assert f"context: {ctx.token()}" in res.render()

    def test_default_context_render_has_no_token(self):
        res = run_experiment("table03_devices")
        assert "context:" not in res.render()

    def test_unknown_name_suggests_close_matches(self):
        with pytest.raises(KeyError,
                           match="table04_mem_latency"):
            get_experiment("table04_mem_latencies")

    def test_every_builder_takes_the_context(self):
        # every table row is registered under its own name and
        # resolves to a callable, named by its real path, that takes
        # the RunContext
        from repro.core.experiments import EXPERIMENTS
        assert sorted(row.name for row in EXPERIMENTS) \
            == list_experiments()
        for row in EXPERIMENTS:
            exp = get_experiment(row.name)
            assert exp == Experiment(*row)
            fn = exp.resolve()
            assert callable(fn), row.name
            params = list(inspect.signature(fn).parameters.values())
            assert len(params) == 1, row.name
            assert params[0].kind in (params[0].POSITIONAL_ONLY,
                                      params[0].POSITIONAL_OR_KEYWORD)
            assert f"{fn.__module__}:{fn.__qualname__}" == row.builder

    def test_direct_experiment_passes_context_to_builder(self):
        # no shim on the direct path either: the builder gets the ctx
        seen = []
        t = Table("direct", ["a"])
        t.add_row(1)

        def builder(ctx):
            seen.append(ctx)
            return t, [Check("ok", True)]

        exp = Experiment(name="d", paper_ref="-", description="-",
                         builder=builder)
        ctx = RunContext(devices=("H800",))
        res = exp.run(ctx)
        assert isinstance(res, ExperimentResult) and res.passed
        assert seen == [ctx]
