"""Tests for the experiment harness: tables, checks, registry, CLI."""

from __future__ import annotations

import pytest

from repro.core import (
    Check,
    Table,
    approx,
    get_experiment,
    list_experiments,
    ordered,
    ratio_between,
    run_experiment,
)
from repro.core.registry import Experiment
from repro.core.report import experiments_markdown, summary_line


class TestTable:
    def test_add_and_access(self):
        t = Table("demo", ["a", "b"])
        t.add_row(1, 2.5)
        t.add_dict_row({"a": 3, "b": 4.0, "ignored": 9})
        assert t.column("a") == [1, 3]
        assert t.cell(1, "b") == 4.0
        assert len(t) == 2

    def test_row_width_checked(self):
        t = Table("demo", ["a", "b"])
        with pytest.raises(ValueError):
            t.add_row(1)

    def test_unknown_column(self):
        t = Table("demo", ["a"])
        with pytest.raises(KeyError):
            t.column("z")

    def test_render_contains_everything(self):
        t = Table("My Title", ["col", "val"])
        t.add_row("x", 12345.6)
        out = t.render()
        assert "My Title" in out
        assert "col" in out and "x" in out
        assert "12346" in out  # large floats rendered as integers

    def test_markdown(self):
        t = Table("t", ["a"])
        t.add_row(1)
        md = t.to_markdown()
        assert md.startswith("| a |")
        assert "| 1 |" in md


class TestChecks:
    def test_approx(self):
        assert approx("x", 100.0, 100.0).passed
        assert approx("x", 120.0, 100.0, rel_tol=0.25).passed
        assert not approx("x", 130.0, 100.0, rel_tol=0.25).passed
        assert approx("zero", 0.0, 0.0).passed

    def test_ordered(self):
        assert ordered("up", [1, 2, 3], strict=True).passed
        assert not ordered("up", [1, 1, 3], strict=True).passed
        assert ordered("up", [1, 1, 3]).passed
        assert ordered("down", [3, 2, 1], descending=True).passed

    def test_ratio_between(self):
        assert ratio_between("r", 2.0, 1.0, 1.9, 2.1).passed
        assert not ratio_between("r", 3.0, 1.0, 1.9, 2.1).passed
        assert not ratio_between("r", 1.0, 0.0, 0, 10).passed

    def test_check_render(self):
        c = Check("finding", True, detail="d")
        assert "PASS" in c.render() and "finding" in c.render()
        assert bool(c)
        assert "FAIL" in Check("f", False).render()


class TestRegistry:
    def test_all_paper_artefacts_registered(self):
        names = list_experiments()
        for n in ("table03_devices", "table04_mem_latency",
                  "table05_mem_throughput", "table06_sass",
                  "table07_mma", "table08_wgmma_dense",
                  "table09_wgmma_sparse", "table10_wgmma_nsweep",
                  "table11_energy", "table12_llm",
                  "table13_async_h800", "table14_async_a100",
                  "fig03_te_breakdown", "fig04_te_linear",
                  "fig05_te_layer", "fig06_dpx_latency",
                  "fig07_dpx_throughput", "fig08_dsm_rbc",
                  "fig09_dsm_histogram"):
            assert n in names, n

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            get_experiment("table99")

    def test_experiment_metadata(self):
        exp = get_experiment("table07_mma")
        assert exp.paper_ref == "Table VII"
        assert isinstance(exp, Experiment)


@pytest.mark.parametrize("name", sorted(
    __import__("repro.core", fromlist=["list_experiments"])
    .list_experiments()
))
def test_every_experiment_passes_its_checks(name):
    """The repository's headline guarantee: every regenerated artefact
    verifies every one of the paper's qualitative findings."""
    res = run_experiment(name)
    assert len(res.table) > 0
    failed = [c for c in res.checks if not c.passed]
    assert not failed, "\n".join(c.render() for c in failed)
    assert res.passed
    # render paths exercised
    rendered = res.render()
    assert res.experiment.paper_ref
    assert res.table.title in rendered


class TestReport:
    def test_markdown_generation(self):
        # run a small subset through the report path
        from repro.core.registry import run_experiment as run
        results = {n: run(n) for n in ("table03_devices",
                                       "table06_sass")}
        md = experiments_markdown(results)
        assert "## Table III — `table03_devices`" in md
        assert "- [x]" in md
        assert summary_line(results).endswith("2 experiments")
