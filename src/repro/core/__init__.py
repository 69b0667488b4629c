"""Experiment harness — the paper's primary deliverable.

Every table and figure of the paper's evaluation has a registered
:class:`Experiment` here that (a) regenerates the artefact from the
simulator subsystems and (b) verifies the paper's *qualitative*
findings against it (orderings, ratios, crossovers — the shape
contract spelled out in DESIGN.md §3).

Usage::

    from repro.core import run_experiment, list_experiments

    result = run_experiment("table07_mma")
    print(result.table.render())
    assert all(c.passed for c in result.checks)
"""

from __future__ import annotations

from repro.core.tables import Table
from repro.core.checks import Check, approx, ordered, ratio_between
from repro.core.context import (
    DEFAULT_CONTEXT,
    DeviceNotInContext,
    RunContext,
)
from repro.core.registry import (
    Experiment,
    ExperimentResult,
    get_experiment,
    list_experiments,
    register,
    run_experiment,
    run_all,
    supported_experiments,
)
from repro.core.fidelity import fidelity_report
from repro.core.report import experiments_markdown

__all__ = [
    "fidelity_report",
    "experiments_markdown",
    "Table",
    "Check",
    "approx",
    "ordered",
    "ratio_between",
    "RunContext",
    "DEFAULT_CONTEXT",
    "DeviceNotInContext",
    "Experiment",
    "ExperimentResult",
    "register",
    "get_experiment",
    "list_experiments",
    "run_experiment",
    "run_all",
    "supported_experiments",
]
