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
the gate is exact: any drift fails.

``hopperdissect stats EXPERIMENT --diff BASELINE`` wires this into the
CLI (exit 1 on failing drift) and the obs-tripwire CI job runs it over
every committed golden.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Mapping, Optional, Tuple

from repro.obs.counters import counter_sort_key

__all__ = ["CounterDrift", "DriftReport", "diff_payloads"]


@dataclass(frozen=True)
class CounterDrift:
    """One drifted counter (or metadata mismatch).

    ``kind`` is ``new`` (counter fired now, absent from the
    baseline), ``removed`` (in the baseline, silent now), ``changed``
    (both, different values) or ``context`` (the runs are not
    comparable — device sweep or seed differ).
    """

    kind: str
    experiment: str
    counter: str
    #: int counter values, or run-context tokens for ``context`` drift
    baseline: Optional[Any]
    current: Optional[Any]

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

    @property
    def passed(self) -> bool:
        return not self.drifts

    def render(self) -> str:
        """Human-readable gate verdict (one line per drift)."""
        head = f"counter drift vs {self.baseline_label}"
        if not self.drifts:
            return f"{head}: clean (no drift)"
        lines = [f"{head}: {len(self.drifts)} failing"]
        lines.extend(f"  FAIL {d.describe()}" for d in self.drifts)
        return "\n".join(lines)


def _diff_bank(
    experiment: str,
    baseline: Mapping[str, int],
    current: Mapping[str, int],
    out: List[CounterDrift],
) -> None:
    names = sorted(set(baseline) | set(current),
                   key=counter_sort_key)
    for name in names:
        b = baseline.get(name)
        c = current.get(name)
        if b == c:
            continue
        kind = ("new" if b is None else "removed" if c is None
                else "changed")
        out.append(CounterDrift(kind, experiment, name, b, c))


def diff_payloads(
    baseline: Mapping[str, Any],
    current: Mapping[str, Any],
    *,
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
        drifts.append(CounterDrift("context", "", "", b_ctx, c_ctx))
    b_exps = dict(baseline.get("experiments", {}))
    c_exps = dict(current.get("experiments", {}))
    b_exps["_orchestration"] = baseline.get("orchestration", {})
    c_exps["_orchestration"] = current.get("orchestration", {})
    for exp in sorted(set(b_exps) | set(c_exps)):
        _diff_bank(exp, b_exps.get(exp, {}), c_exps.get(exp, {}),
                   drifts)
    return DriftReport(baseline_label=baseline_label,
                       drifts=tuple(drifts))
