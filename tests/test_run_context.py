"""RunContext semantics: normalization, selection, identity, shims."""

from __future__ import annotations

import pickle

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
from repro.core.registry import Experiment, ExperimentResult, register


class TestConstruction:
    def test_default_is_the_paper_testbed(self):
        assert DEFAULT_CONTEXT.devices == ("RTX4090", "A100", "H800")
        assert DEFAULT_CONTEXT.seed == 0
        assert DEFAULT_CONTEXT.fidelity == "fast"
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

    def test_unknown_fidelity_rejected(self):
        with pytest.raises(ValueError, match="fidelity"):
            RunContext(fidelity="exact")

    def test_non_default_contexts_are_not_default(self):
        assert not RunContext(devices=("A100",)).is_default
        assert not RunContext(seed=7).is_default
        assert not RunContext(fidelity="full").is_default

    def test_hook_excluded_from_identity(self):
        with_hook = RunContext(hook=lambda n, s: None)
        assert with_hook == DEFAULT_CONTEXT
        assert with_hook.is_default
        assert with_hook.without_hook().hook is None


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
        a = RunContext(devices=("A100",), seed=3, fidelity="full")
        assert a.token() == "devices=A100;seed=3;fidelity=full"
        assert a.token() != DEFAULT_CONTEXT.token()

    def test_payload_roundtrip(self):
        a = RunContext(devices=("H800", "A100"), seed=5,
                       hook=lambda n, s: None)
        b = RunContext.from_payload(a.to_payload())
        assert b == a                 # hook excluded from equality
        assert b.hook is None
        pickle.dumps(b)               # payload-built contexts pickle

    def test_rng_is_seed_deterministic(self):
        a = RunContext(seed=9).rng().integers(0, 100, 8)
        b = RunContext(seed=9).rng().integers(0, 100, 8)
        assert list(a) == list(b)

    def test_emit_feeds_the_hook(self):
        seen = []
        ctx = RunContext(hook=lambda n, s: seen.append((n, s)))
        ctx.emit("x", 0.5)
        assert seen == [("x", 0.5)]


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

    def test_run_emits_timing_to_hook(self):
        seen = []
        ctx = RunContext(hook=lambda n, s: seen.append((n, s)))
        run_experiment("table03_devices", ctx)
        assert len(seen) == 1
        assert seen[0][0] == "table03_devices" and seen[0][1] >= 0

    def test_unknown_name_suggests_close_matches(self):
        with pytest.raises(KeyError,
                           match="table04_mem_latency"):
            get_experiment("table04_mem_latencies")

    def test_every_builder_takes_the_context(self):
        # every table row is registered under its own name and
        # resolves to a callable, named by its real path, that takes
        # the RunContext
        from repro.core.experiments import EXPERIMENTS
        from repro.core.registry import _accepts_context
        assert sorted(row.name for row in EXPERIMENTS) \
            == list_experiments()
        for row in EXPERIMENTS:
            exp = get_experiment(row.name)
            assert exp == Experiment(*row)
            fn = exp.resolve()
            assert callable(fn) and _accepts_context(fn), row.name
            assert f"{fn.__module__}:{fn.__qualname__}" == row.builder

    def test_zero_arg_builder_registration_raises(self):
        # the shim warned since PR 2; it's gone now
        from repro.core import registry as regmod
        t = Table("legacy", ["a"])
        t.add_row(1)
        try:
            with pytest.raises(TypeError, match="zero-argument"):
                register("zz_legacy_probe", "none",
                         "legacy shim coverage")(lambda: (t, []))
            assert "zz_legacy_probe" not in regmod._REGISTRY
        finally:
            regmod._REGISTRY.pop("zz_legacy_probe", None)

    def test_context_builder_still_registers_fine(self):
        from repro.core import registry as regmod
        t = Table("direct", ["a"])
        t.add_row(1)
        try:
            register("zz_ctx_probe", "none", "context builder")(
                lambda ctx: (t, [Check("ok", True)]))
            res = run_experiment(
                "zz_ctx_probe", RunContext(devices=("A100",)))
            assert isinstance(res, ExperimentResult) and res.passed
            assert res.table is t
        finally:
            regmod._REGISTRY.pop("zz_ctx_probe", None)

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
