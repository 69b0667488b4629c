"""The streaming fuzz loop.

``run_fuzz`` generates scenarios from ``(seed, index)``, fans
:func:`~repro.fuzz.oracle.check_scenario` over the work-stealing pool
(:func:`repro.perf.runner.parallel_imap`, so thousands of small
scenario checks saturate the workers regardless of per-scenario cost
skew), and **streams** the results: violations and ``fuzz.*``
counters accumulate one report at a time instead of materializing
every result object.

Determinism is the point, and :func:`~repro.perf.runner.parallel_imap`
provides it: each scenario is checked under a fresh nested
:class:`~repro.obs.ObsSession` (in-process for serial runs, in the
worker otherwise) and comes back in scenario-index order with its
counter delta; the parent merges the deltas — and fires its own
``fuzz.*`` aggregates — in that order.  A serial run and a ``--jobs
N`` run therefore produce byte-identical violation lists *and* counter
dumps.

Violating scenarios are shrunk (in the parent, after the sweep — the
violation list is already deterministic by then) and written as
replayable repro files.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.fuzz.generator import ScenarioGenerator
from repro.fuzz.oracle import ScenarioReport, Violation, check_scenario
from repro.fuzz.shrink import shrink_scenario, write_repro
from repro.obs import session as _obs

__all__ = ["FuzzReport", "run_fuzz"]

@dataclass
class FuzzReport:
    """Outcome of one :func:`run_fuzz` sweep."""

    seed: int
    budget: int
    devices: Tuple[str, ...]
    scenarios: int = 0
    queries: int = 0
    checks: int = 0
    status_counts: Dict[str, int] = field(default_factory=dict)
    violations: List[Violation] = field(default_factory=list)
    repro_paths: List[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        statuses = ", ".join(
            f"{k}={v}" for k, v in sorted(self.status_counts.items()))
        lines = [
            f"fuzz seed={self.seed}: {self.scenarios} scenarios, "
            f"{self.queries} queries, {self.checks} checks "
            f"({statuses or 'no answers'})",
            f"violations: {len(self.violations)}",
        ]
        for v in self.violations:
            lines.append(f"  [{v.invariant}] scenario "
                         f"{v.scenario_index}: {v.message}")
        for path in self.repro_paths:
            lines.append(f"  repro written: {path}")
        return "\n".join(lines)


class _Aggregator:
    """Streams per-scenario reports into totals + ``fuzz.*`` counters,
    strictly in scenario-index order."""

    def __init__(self, report: FuzzReport, sess) -> None:
        self.report = report
        self.sess = sess
        self.by_index: Dict[int, ScenarioReport] = {}

    def consume(self, scenario_report: ScenarioReport,
                dump: Optional[Dict[str, Any]]) -> None:
        rep, agg = scenario_report, self.report
        agg.scenarios += 1
        agg.queries += rep.n_queries
        agg.checks += rep.n_checks
        for status, n in rep.status_counts.items():
            agg.status_counts[status] = \
                agg.status_counts.get(status, 0) + n
        agg.violations.extend(rep.violations)
        if rep.violations:
            self.by_index[rep.index] = rep
        if self.sess is not None:
            c = self.sess.counters
            c.add("fuzz.scenarios")
            c.add("fuzz.queries", rep.n_queries)
            c.add("fuzz.checks", rep.n_checks)
            if rep.violations:
                c.add("fuzz.violations", len(rep.violations))
            for status, n in sorted(rep.status_counts.items()):
                c.add(f"fuzz.status.{status}", n)
            c.observe("fuzz.scenario.queries", rep.n_queries)
            self.sess.merge(dump)


def run_fuzz(
    seed: int,
    budget: int,
    *,
    jobs: int = 1,
    devices: Optional[Sequence[str]] = None,
    repro_dir=None,
    max_repros: int = 5,
    shrink: bool = True,
) -> FuzzReport:
    """Check ``budget`` scenarios of ``seed``; shrink what violates.

    ``repro_dir`` (optional) receives one
    ``repro-<scenario>-<invariant>.jsonl`` file per violating
    scenario, up to ``max_repros``.  The returned report — and the
    active session's counter bank — is identical for ``jobs=1`` and
    ``jobs=N``.
    """
    from repro.perf.runner import parallel_imap

    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    gen = ScenarioGenerator(seed, devices=devices)
    report = FuzzReport(seed=gen.seed, budget=budget,
                        devices=gen.devices)
    sess = _obs.ACTIVE
    tracer = sess.tracer if sess is not None else None

    def _span(label: str, **args):
        if tracer is None:
            return nullcontext()
        return tracer.span(label, cat="fuzz", tid="fuzz",
                           args=args or None)

    with _span("fuzz.generate", budget=budget):
        scenarios = [gen.scenario(i) for i in range(budget)]

    agg = _Aggregator(report, sess)
    with _span("fuzz.dispatch", jobs=max(1, jobs),
               scenarios=len(scenarios)):
        for scenario_report, dump in parallel_imap(
                check_scenario, scenarios, jobs=jobs):
            agg.consume(scenario_report, dump)

    if report.violations and (shrink or repro_dir is not None):
        with _span("fuzz.shrink",
                   violating=len(agg.by_index)):
            _write_repros(gen, agg, report, repro_dir, max_repros,
                          shrink)
    return report


def _write_repros(gen: ScenarioGenerator, agg: _Aggregator,
                  report: FuzzReport, repro_dir,
                  max_repros: int, shrink: bool) -> None:
    """Shrink the first violation of each violating scenario and
    (when asked) write it as a repro file, lowest index first."""
    sess = _obs.ACTIVE
    for index in sorted(agg.by_index)[:max(0, max_repros)]:
        violation = agg.by_index[index].violations[0]
        scenario = gen.scenario(index)
        if shrink:
            scenario, violation = shrink_scenario(scenario, violation)
        if sess is not None:
            sess.counters.add("fuzz.repros")
            sess.counters.observe("fuzz.repro.queries",
                                  len(scenario.queries))
        if repro_dir is not None:
            directory = Path(repro_dir)
            directory.mkdir(parents=True, exist_ok=True)
            slug = violation.invariant.replace(".", "_")
            path = directory / (f"repro-{scenario.index:06d}-"
                                f"{slug}.jsonl")
            report.repro_paths.append(
                write_repro(path, scenario, violation))
