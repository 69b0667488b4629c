"""The counter-regression gate — typed drift reports over counters/v2.

A simulator change that silently stops firing a counter (an engine
refactor that drops its instrumentation, a renamed family, a histogram
whose distribution shifted) is invisible to the result checks: tables
still render, findings still pass.  The drift gate catches it by
diffing a fresh run's labeled counter banks against a committed golden
baseline (``tests/golden/counters/<experiment>.json``, regenerated by
``benchmarks/gen_counter_goldens.py``).

:func:`diff_payloads` compares two ``hopperdissect.counters/v2``
documents and returns a :class:`DriftReport` of typed
:class:`CounterDrift` entries — ``new`` / ``removed`` / ``changed``
counters plus ``context`` mismatches.  Counters are exact integers, so
the default tolerance is **zero**: any drift fails.  Histogram bucket
counters (``<family>.le<bound>``) may instead be granted a *relative*
tolerance — ``tolerance × max(total observations of the family)`` per
bucket — because a legitimate timing-model recalibration moves tail
observations one bucket over without changing what the counter means;
plain counters never get slack.

``hopperdissect stats EXPERIMENT --diff BASELINE`` wires this into the
CLI (exit 1 on failing drift) and the obs-tripwire CI job runs it over
every committed golden.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.obs.counters import counter_sort_key, split_bucket

__all__ = ["CounterDrift", "DriftReport", "diff_payloads", "diff_files"]


@dataclass(frozen=True)
class CounterDrift:
    """One drifted counter (or metadata mismatch).

    ``kind`` is ``new`` (counter fired now, absent from the
    baseline), ``removed`` (in the baseline, silent now), ``changed``
    (both, different values) or ``context`` (the runs are not
    comparable — device sweep or seed differ).  ``ok`` marks
    drift absorbed by the histogram-tail tolerance.
    """

    kind: str
    experiment: str
    counter: str
    #: int counter values, or run-context tokens for ``context`` drift
    baseline: Optional[Any]
    current: Optional[Any]
    ok: bool

    def describe(self) -> str:
        if self.kind == "context":
            return (f"context mismatch: baseline "
                    f"{self.baseline!r} vs current {self.current!r}")
        arrow = {
            "new": f"(absent) -> {self.current}",
            "removed": f"{self.baseline} -> (silent)",
            "changed": f"{self.baseline} -> {self.current}",
        }[self.kind]
        return (f"{self.kind:8s} {self.experiment}:{self.counter} "
                f"{arrow}")


@dataclass(frozen=True)
class DriftReport:
    """Every drift between a baseline and a current counters/v2 run."""

    baseline_label: str
    drifts: Tuple[CounterDrift, ...]
    tolerance: float = 0.0

    @property
    def failures(self) -> Tuple[CounterDrift, ...]:
        return tuple(d for d in self.drifts if not d.ok)

    @property
    def passed(self) -> bool:
        return not self.failures

    def render(self) -> str:
        """Human-readable gate verdict (one line per drift)."""
        head = f"counter drift vs {self.baseline_label}"
        if not self.drifts:
            return f"{head}: clean (no drift)"
        lines = [f"{head}: {len(self.failures)} failing, "
                 f"{len(self.drifts) - len(self.failures)} within "
                 f"tolerance ({self.tolerance:g})"]
        for d in self.drifts:
            flag = "ok  " if d.ok else "FAIL"
            lines.append(f"  {flag} {d.describe()}")
        return "\n".join(lines)


def _family_totals(bank: Mapping[str, int]) -> Dict[str, int]:
    """Total observations per histogram family in one bank."""
    totals: Dict[str, int] = {}
    for name, value in bank.items():
        family, bound = split_bucket(name)
        if bound is not None:
            totals[family] = totals.get(family, 0) + value
    return totals


def _diff_bank(
    experiment: str,
    baseline: Mapping[str, int],
    current: Mapping[str, int],
    tolerance: float,
    out: List[CounterDrift],
) -> None:
    allowed: Dict[str, float] = {}
    if tolerance > 0:
        base_totals = _family_totals(baseline)
        cur_totals = _family_totals(current)
        for family in set(base_totals) | set(cur_totals):
            allowed[family] = tolerance * max(
                base_totals.get(family, 0), cur_totals.get(family, 0))

    names = sorted(set(baseline) | set(current),
                   key=counter_sort_key)
    for name in names:
        b = baseline.get(name)
        c = current.get(name)
        if b == c:
            continue
        family, bound = split_bucket(name)
        slack = allowed.get(family, 0.0) if bound is not None else 0.0
        if b is None:
            out.append(CounterDrift("new", experiment, name, None, c,
                                    ok=c <= slack))
        elif c is None:
            out.append(CounterDrift("removed", experiment, name, b,
                                    None, ok=b <= slack))
        else:
            out.append(CounterDrift("changed", experiment, name, b, c,
                                    ok=abs(c - b) <= slack))


def diff_payloads(
    baseline: Mapping[str, Any],
    current: Mapping[str, Any],
    *,
    tolerance: float = 0.0,
    baseline_label: str = "baseline",
) -> DriftReport:
    """Diff two counters/v2 documents (see module docstring).

    Experiments are matched by name across the union of both
    documents' ``experiments`` maps plus the ``orchestration`` bank;
    a whole experiment present on only one side shows up as per-counter
    ``new``/``removed`` drift.
    """
    drifts: List[CounterDrift] = []
    b_ctx = baseline.get("context")
    c_ctx = current.get("context")
    if b_ctx != c_ctx:
        drifts.append(CounterDrift("context", "", "", b_ctx, c_ctx,
                                   ok=False))
    b_exps = dict(baseline.get("experiments", {}))
    c_exps = dict(current.get("experiments", {}))
    b_exps["_orchestration"] = baseline.get("orchestration", {})
    c_exps["_orchestration"] = current.get("orchestration", {})
    for exp in sorted(set(b_exps) | set(c_exps)):
        _diff_bank(exp, b_exps.get(exp, {}), c_exps.get(exp, {}),
                   tolerance, drifts)
    return DriftReport(baseline_label=baseline_label,
                       drifts=tuple(drifts), tolerance=tolerance)


def diff_files(baseline_path, current_path, *,
               tolerance: float = 0.0) -> DriftReport:
    """Diff two counters/v2 files on disk."""
    from repro.obs.export import load_counters_v2

    baseline = load_counters_v2(baseline_path)
    current = load_counters_v2(current_path)
    return diff_payloads(baseline, current, tolerance=tolerance,
                         baseline_label=str(baseline_path))
