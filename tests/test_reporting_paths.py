"""Coverage for reporting paths: failing checks, fidelity CLI, render
edge cases."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.core import Check, Table
from repro.core.registry import Experiment, ExperimentResult
from repro.core.report import experiments_markdown, summary_line


def _fake_result(passed: bool) -> ExperimentResult:
    t = Table("fake", ["a"])
    t.add_row(1)
    exp = Experiment(
        name="fake_exp", paper_ref="Table 0",
        description="a fake", builder=lambda: (t, []),
    )
    return ExperimentResult(
        experiment=exp, table=t,
        checks=(Check("always", passed, detail="d"),),
    )


class TestReportRendering:
    def test_failing_check_renders_unchecked_box(self):
        md = experiments_markdown({"fake_exp": _fake_result(False)})
        assert "- [ ] always" in md
        assert "*(d)*" in md

    def test_passing_check_renders_checked_box(self):
        md = experiments_markdown({"fake_exp": _fake_result(True)})
        assert "- [x] always" in md

    def test_summary_counts(self):
        results = {"a": _fake_result(True), "b": _fake_result(False)}
        assert summary_line(results).startswith("1/2 findings")

    def test_result_render_marks_failures(self):
        out = _fake_result(False).render()
        assert "[FAIL]" in out
        assert not _fake_result(False).passed


class TestCliFidelity:
    def test_fidelity_command(self, capsys, monkeypatch):
        # stub the expensive computation
        from repro.core import fidelity as fmod

        def fake_compute():
            from repro.core.fidelity import FidelityEntry, \
                TableFidelity
            return [TableFidelity(
                "Stub", (FidelityEntry("x", 10.0, 10.5),))]

        monkeypatch.setattr(fmod, "compute_all", fake_compute)
        assert main(["fidelity"]) == 0
        out = capsys.readouterr().out
        assert "Stub" in out
        assert "MAPE" in out

    def test_run_all_flag(self, capsys, monkeypatch):
        import repro.cli as cli
        import repro.perf

        ran = []

        def fake_run_experiments(names, **_kw):
            from repro.perf.runner import RunReport
            from repro.perf.runner import Profiler
            ran.extend(names)
            return RunReport(
                results={n: _fake_result(True) for n in names},
                profiler=Profiler(),
            )

        monkeypatch.setattr(
            cli, "list_experiments", lambda: ["table06_sass"])
        monkeypatch.setattr(repro.perf, "run_experiments",
                            fake_run_experiments)
        assert main(["run", "--all"]) == 0
        assert ran == ["table06_sass"]

    def test_run_reports_failures_via_exit_code(self, capsys,
                                                monkeypatch):
        import repro.perf
        from repro.perf.runner import Profiler
        from repro.perf.runner import RunReport

        monkeypatch.setattr(
            repro.perf, "run_experiments",
            lambda names, **_kw: RunReport(
                results={n: _fake_result(False) for n in names},
                profiler=Profiler(),
            ),
        )
        assert main(["run", "whatever"]) == 1
        assert "FAILED" in capsys.readouterr().err


class TestTableFormatting:
    def test_float_formats(self):
        t = Table("f", ["v"])
        for v in (0.0, 0.00123, 12.34, 12345.6):
            t.add_row(v)
        out = t.render()
        assert "0.00123" in out
        assert "12.3" in out
        assert "12346" in out

    def test_empty_table_renders(self):
        t = Table("empty", ["a", "bb"])
        out = t.render()
        assert "empty" in out and "bb" in out
