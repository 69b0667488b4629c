"""The experiment registry.

An :class:`Experiment` bundles an artefact id (``table04_mem_latency``),
the paper reference, a builder that produces the result table and the
shape checks that verify the paper's findings on it.

The registry starts as the experiment table in
:mod:`repro.core.experiments`, whose rows name their builders as
``"module:function"`` paths: a lookup, a pin check or a cache key
imports no builder module, and :meth:`Experiment.run` imports one on
first use.  :func:`register` adds callables at run time.

Builders are **context-parameterized**: they take a
:class:`~repro.core.context.RunContext` and draw their device list
and seed from it instead of hardcoding the paper's testbed.  Zero-argument builders are not accepted — :func:`register`
raises a :class:`TypeError`.
"""

from __future__ import annotations

import difflib
import importlib
import inspect
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from repro.core.checks import Check
from repro.core.context import DEFAULT_CONTEXT, DeviceNotInContext, \
    RunContext
from repro.core.experiments import EXPERIMENTS
from repro.core.tables import Table

__all__ = [
    "Experiment",
    "ExperimentResult",
    "register",
    "get_experiment",
    "list_experiments",
    "supported_experiments",
    "run_experiment",
    "run_all",
]

Builder = Callable[[RunContext], Tuple[Table, List[Check]]]


def _accepts_context(fn: Callable) -> bool:
    """Does ``fn`` take the RunContext positional parameter?"""
    try:
        sig = inspect.signature(fn)
    except (TypeError, ValueError):   # builtins, odd callables
        return False
    for p in sig.parameters.values():
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD,
                      p.VAR_POSITIONAL):
            return True
    return False


@dataclass(frozen=True)
class ExperimentResult:
    """Output of one experiment run."""

    experiment: "Experiment"
    table: Table
    checks: Tuple[Check, ...]
    context: Optional[RunContext] = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        parts = [self.table.render(), ""]
        parts += [c.render() for c in self.checks]
        if self.context is not None and not self.context.is_default:
            parts.append(f"(context: {self.context.token()})")
        return "\n".join(parts)


@dataclass(frozen=True)
class Experiment:
    """One paper artefact reproduction.

    ``builder`` is the callable, or its ``"module:function"`` path,
    imported by :meth:`resolve`.  ``devices`` names the devices the
    artefact is *pinned* to (the paper measured it on exactly those
    GPUs — the context must provide **all** of them); ``devices_any``
    is the weaker "any of" mode: the builder adapts to whichever of
    the named devices the context offers, so one present device
    suffices.  ``None`` for both means the builder sweeps whatever the
    context provides.
    """

    name: str
    paper_ref: str        # e.g. "Table IV" / "Fig. 8"
    description: str
    builder: Union[Builder, str]
    devices: Optional[Tuple[str, ...]] = None
    devices_any: Optional[Tuple[str, ...]] = None

    @property
    def target(self) -> str:
        """The builder as ``"module:function"``, read without
        importing it."""
        if isinstance(self.builder, str):
            return self.builder
        return (f"{getattr(self.builder, '__module__', '') or ''}:"
                f"{getattr(self.builder, '__qualname__', '')}")

    def resolve(self) -> Builder:
        """The builder callable, importing its module if the
        experiment names it by path."""
        if not isinstance(self.builder, str):
            return self.builder
        module, _, attr = self.builder.partition(":")
        return getattr(importlib.import_module(module), attr)

    def supports(self, context: RunContext) -> bool:
        """Can this experiment run under ``context``'s device sweep?"""
        if self.devices and not context.has(*self.devices):
            return False
        if self.devices_any and not any(
                context.has(d) for d in self.devices_any):
            return False
        return True

    def pin_note(self) -> str:
        """Human-readable device requirement, for skip messages."""
        parts = []
        if self.devices:
            parts.append(f"pinned to {', '.join(self.devices)}")
        if self.devices_any:
            parts.append(f"needs any of "
                         f"{', '.join(self.devices_any)}")
        return "; ".join(parts) if parts else "no device pin"

    def run(self, context: Optional[RunContext] = None) \
            -> ExperimentResult:
        ctx = DEFAULT_CONTEXT if context is None else context
        if not self.supports(ctx):
            raise DeviceNotInContext(
                f"{self.name} is {self.pin_note()} but the context "
                f"only provides {list(ctx.devices)}"
            )
        builder = self.resolve()
        t0 = time.perf_counter()
        table, checks = builder(ctx)
        ctx.emit(self.name, time.perf_counter() - t0)
        return ExperimentResult(self, table, tuple(checks), context=ctx)


_REGISTRY: Dict[str, Experiment] = {
    row.name: Experiment(*row) for row in EXPERIMENTS}


def register(name: str, paper_ref: str, description: str, *,
             devices: Optional[Tuple[str, ...]] = None,
             devices_any: Optional[Tuple[str, ...]] = None):
    """Decorator registering a builder function as an experiment at
    run time; the package's own experiments are rows of the table in
    :mod:`repro.core.experiments`.

    The builder must accept a :class:`RunContext` as its positional
    parameter; registering a zero-argument builder raises
    :class:`TypeError`.  ``devices`` requires every named device in
    the context; ``devices_any`` requires at least one (for builders
    that adapt their sweep).
    """

    def deco(fn: Builder):
        if name in _REGISTRY:
            raise ValueError(f"experiment {name!r} already registered")
        if not _accepts_context(fn):
            raise TypeError(
                f"experiment {name!r} registered a zero-argument "
                "builder; builders must take a RunContext "
                "(the legacy zero-arg shim has been removed)"
            )
        _REGISTRY[name] = Experiment(
            name=name, paper_ref=paper_ref,
            description=description, builder=fn,
            devices=tuple(d.upper() for d in devices) if devices
            else None,
            devices_any=tuple(d.upper() for d in devices_any)
            if devices_any else None,
        )
        return fn

    return deco


def get_experiment(name: str) -> Experiment:
    try:
        return _REGISTRY[name]
    except KeyError:
        close = difflib.get_close_matches(
            name, list_experiments(), n=3, cutoff=0.4)
        hint = (f"did you mean {' or '.join(repr(c) for c in close)}?"
                if close else
                "see `hopperdissect list` for the registered names")
        raise KeyError(
            f"unknown experiment {name!r}; {hint}"
        ) from None


def list_experiments() -> List[str]:
    return sorted(_REGISTRY)


def supported_experiments(context: RunContext) -> List[str]:
    """Registered experiments runnable under ``context``'s devices."""
    return [n for n in list_experiments()
            if _REGISTRY[n].supports(context)]


def run_experiment(name: str,
                   context: Optional[RunContext] = None) \
        -> ExperimentResult:
    return get_experiment(name).run(context)


def run_all(*, jobs: int = 1, cache=None,
            context: Optional[RunContext] = None) \
        -> Dict[str, ExperimentResult]:
    """Run every registered experiment (the EXPERIMENTS.md generator).

    ``jobs > 1`` fans the builders out over a process pool and
    ``cache`` (a :class:`repro.perf.ResultCache`) serves previously
    computed results; both are wall-time-only knobs — the returned
    mapping is identical to the serial uncached run, in
    :func:`list_experiments` order.  A restrictive ``context`` drops
    experiments pinned to devices outside its sweep.
    """
    ctx = DEFAULT_CONTEXT if context is None else context
    names = supported_experiments(ctx)
    if jobs <= 1 and cache is None:
        return {name: run_experiment(name, ctx) for name in names}
    from repro.perf.runner import run_experiments

    return run_experiments(names, jobs=jobs, cache=cache,
                           context=ctx).results
