"""Device sweeps: every experiment stays well-formed — and its
findings keep passing — under single-device contexts, and the default
context reproduces the legacy three-device layout.

The sweep list comes from the device registry, so the lineage packs
(V100, B200) are exercised alongside the paper's testbed without this
file naming them."""

from __future__ import annotations

import pickle

import pytest

from repro.arch import list_devices
from repro.core import (
    Check,
    RunContext,
    Table,
    run_all,
    run_experiment,
    supported_experiments,
)

SWEEPS = [(name,) for name in list_devices()]


@pytest.fixture(scope="module")
def sweep_results():
    """run_all under each single-device context, computed once."""
    out = {}
    for devices in SWEEPS:
        ctx = RunContext(devices=devices)
        out[devices] = (ctx, run_all(context=ctx))
    return out


class TestSingleDeviceSweeps:
    @pytest.mark.parametrize("devices", SWEEPS,
                             ids=[d[0] for d in SWEEPS])
    def test_tables_and_checks_are_well_formed(self, devices,
                                               sweep_results):
        ctx, results = sweep_results[devices]
        assert results, "no experiments supported?"
        for name, res in results.items():
            assert isinstance(res.table, Table), name
            assert res.table.columns, name
            assert len(res.table) > 0, f"{name}: empty table"
            for row in res.table.rows:
                assert len(row) == len(res.table.columns), name
            for c in res.checks:
                assert isinstance(c, Check), name
            assert res.context == ctx

    @pytest.mark.parametrize("devices", SWEEPS,
                             ids=[d[0] for d in SWEEPS])
    def test_findings_pass_under_restricted_sweeps(self, devices,
                                                   sweep_results):
        _, results = sweep_results[devices]
        failing = [f"{name}: {c.description}"
                   for name, res in results.items()
                   for c in res.checks if not c.passed]
        assert not failing, failing

    @pytest.mark.parametrize("devices", SWEEPS,
                             ids=[d[0] for d in SWEEPS])
    def test_only_supported_experiments_ran(self, devices,
                                            sweep_results):
        ctx, results = sweep_results[devices]
        assert sorted(results) == supported_experiments(ctx)

    def test_pinned_artifacts_only_under_their_device(self,
                                                     sweep_results):
        _, h800 = sweep_results[("H800",)]
        _, a100 = sweep_results[("A100",)]
        assert "fig08_dsm_rbc" in h800 and "fig08_dsm_rbc" not in a100
        assert "table14_async_a100" in a100 and \
            "table14_async_a100" not in h800

    def test_sweep_tables_only_mention_context_devices(self,
                                                       sweep_results):
        _, results = sweep_results[("A100",)]
        t = results["table04_mem_latency"].table
        assert t.columns == ["Type", "A100"]

    def test_seed_reaches_seeded_workloads(self):
        base = run_experiment("ext_fp8_accuracy", RunContext(seed=0))
        same = run_experiment("ext_fp8_accuracy", RunContext(seed=0))
        other = run_experiment("ext_fp8_accuracy",
                               RunContext(seed=123))
        assert base.table == same.table
        # different random activations -> different measured errors
        assert base.table != other.table


class TestDefaultContextCompatibility:
    def test_default_matches_no_context_run(self):
        a = run_experiment("table05_mem_throughput")
        b = run_experiment("table05_mem_throughput",
                           RunContext())
        assert a.render() == b.render()

    def test_paper_column_orders_preserved(self):
        t3 = run_experiment("table03_devices").table
        assert t3.columns == ["Property", "A100 PCIe", "RTX4090",
                              "H800 PCIe"]
        t4 = run_experiment("table04_mem_latency").table
        assert t4.columns == ["Type", "RTX4090", "A100", "H800"]


class TestColumnarTable:
    def test_row_views_and_len(self):
        t = Table("t", ["a", "b"])
        t.add_row(1, "x")
        t.add_row(2, "y")
        assert len(t) == 2
        assert list(t.rows) == [[1, "x"], [2, "y"]]
        assert t.rows[-1] == [2, "y"]
        assert t.rows[0:1] == [[1, "x"]]
        assert t.cell(1, "a") == 2
        assert t.column("b") == ["x", "y"]

    def test_pickle_roundtrip_preserves_exact_types(self):
        t = Table("t", ["i", "f", "m"])
        t.add_row(12, 12.0, "s")
        t.add_row(-3, 0.5, 7)       # mixed column stays a list
        u = pickle.loads(pickle.dumps(t))
        assert u == t
        assert type(u.cell(0, "i")) is int
        assert type(u.cell(0, "f")) is float
        assert u.render() == t.render()

    def test_rows_equality_supports_determinism_checks(self):
        t = Table("t", ["a"])
        t.add_row(1.5)
        u = pickle.loads(pickle.dumps(t))
        assert t.rows == u.rows
        assert t.rows == [[1.5]]
