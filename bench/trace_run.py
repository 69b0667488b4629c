"""Run one ``hopperdissect`` invocation with a span around every call
into each layer's public functions, then write the spans as JSON.

    PYTHONPATH=src python bench/trace_run.py SPANS.json <cli args...>

A span records its name, start and end (``time.perf_counter_ns``), its
own id and the id of the span it ran inside (0 at top level).  Spans
stay in memory and are written once, when the invocation ends.  A
wrapped name the program no longer has is listed under ``missing``
rather than failing the run.  Modules the invocation imports lazily
(``repro.perf``, ``repro.serve``) are patched when they are imported,
so tracing adds no imports of its own.

The wrappers live here, not in the program: the program is timed as it
is.  Calls inside pool workers are not seen, so trace a serial run.
"""

from __future__ import annotations

import functools
import importlib.abc
import importlib.machinery
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple


def _exp_label(args) -> str:
    return f"exp.{args[0].name}"


def _kind_label(args) -> str:
    return f"serve.oracle.{args[1]}"


def _hit(result, _args) -> dict:
    return {"hit": result is not None}


def _plan(result, _args) -> dict:
    return {"shards": len(result.shards), "queries": result.n_queries,
            "duplicates": result.n_duplicates}


def _service_stats(_result, args) -> dict:
    return args[0].stats_payload()["stats"]


#: (span name, module, attribute, label(args), note(result, args)).
#: Functions are patched in every module that binds them, because a
#: ``from x import f`` copies the reference the caller looks up.
WRAPS: Tuple[Tuple[str, str, str, Optional[Callable],
                   Optional[Callable]], ...] = (
    ("core.registry.lookup", "repro.core.registry", "get_experiment",
     None, None),
    ("core.registry.lookup", "repro.core.registry", "list_experiments",
     None, None),
    ("core.registry.lookup", "repro.cli", "get_experiment", None, None),
    ("core.registry.lookup", "repro.cli", "list_experiments", None,
     None),
    ("exp", "repro.core.registry", "Experiment.run", _exp_label, None),
    ("core.report.render", "repro.core.registry",
     "ExperimentResult.render", None, None),
    ("core.report.render", "repro.cli", "experiments_markdown", None,
     None),
    ("perf.cache.key", "repro.perf.cache", "ResultCache.key_for", None,
     None),
    ("perf.cache.get", "repro.perf.cache", "ResultCache.get", None,
     _hit),
    ("perf.cache.put", "repro.perf.cache", "ResultCache.put", None,
     None),
    ("perf.cache.blob_get", "repro.perf.cache", "ResultCache.get_blob",
     None, _hit),
    ("perf.cache.blob_put", "repro.perf.cache", "ResultCache.put_blob",
     None, None),
    ("perf.runner", "repro.perf.runner", "run_experiments", None, None),
    ("perf.runner", "repro.perf", "run_experiments", None, None),
    ("serve.schema.parse", "repro.serve.service", "parse_query_line",
     None, None),
    ("serve.planner.plan", "repro.serve.service", "plan_queries", None,
     _plan),
    ("serve.dispatch", "repro.serve.service", "dispatch_shards", None,
     None),
    ("serve.oracle", "repro.serve.oracle", "CostOracle.answer_group",
     _kind_label, None),
    ("serve.service", "repro.serve.service",
     "QueryService.answer_lines", None, _service_stats),
)


class Recorder:
    """The span store of one invocation."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.missing: List[str] = []
        self._stack: List[int] = [0]
        self._next = 1

    def wrap(self, fn: Callable, name: str, label: Optional[Callable],
             note: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1]
            self._stack.append(sid)
            result = done = None
            t0 = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append([
                    label(args) if label else name, t0, t1, sid, parent,
                    note(result, args) if note and done else None])

        wrapper.__bench_wrapped__ = True
        return wrapper

    def patch(self, module: Any) -> None:
        """Install every wrapper that targets ``module``."""
        for name, modname, attr, label, note in WRAPS:
            if modname != module.__name__:
                continue
            owner_path, _, fname = attr.rpartition(".")
            owner = module
            for part in filter(None, owner_path.split(".")):
                owner = getattr(owner, part, None)
            fn = getattr(owner, fname, None) if owner is not None \
                else None
            if fn is None:
                self.missing.append(f"{modname}.{attr}")
            elif not getattr(fn, "__bench_wrapped__", False):
                setattr(owner, fname, self.wrap(fn, name, label, note))


class _PatchOnImport(importlib.abc.MetaPathFinder):
    """Patches a wrapped module right after it first executes."""

    def __init__(self, recorder: Recorder, names) -> None:
        self.recorder = recorder
        self.names = set(names)

    def find_spec(self, fullname, path, target=None):
        if fullname not in self.names:
            return None
        spec = importlib.machinery.PathFinder.find_spec(fullname, path)
        if spec is None or spec.loader is None:
            return None
        execute = spec.loader.exec_module

        def exec_module(module):
            execute(module)
            self.recorder.patch(module)

        spec.loader.exec_module = exec_module
        return spec


def _exists(modname: str) -> bool:
    """Whether ``repro`` still has ``modname``, without importing it
    (an import here would be timed as part of the invocation)."""
    import repro

    path = Path(repro.__file__).parent.joinpath(*modname.split(".")[1:])
    return path.with_suffix(".py").is_file() \
        or (path / "__init__.py").is_file()


def main(argv: List[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    import repro.cli

    recorder = Recorder()
    targets = {modname for _, modname, *_ in WRAPS}
    for modname in sorted(targets):
        if modname in sys.modules:
            recorder.patch(sys.modules[modname])
    sys.meta_path.insert(0, _PatchOnImport(
        recorder, targets - set(sys.modules)))
    try:
        code = repro.cli.main(cli_args)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    sys.stdout.flush()
    # a target module this invocation never imported is only missing
    # if the program no longer has it
    gone = [m for m in sorted(targets - set(sys.modules))
            if not _exists(m)]
    payload: Dict[str, Any] = {
        "spans": recorder.spans,
        "missing": sorted(recorder.missing + gone),
    }
    with open(out_path, "w") as fh:
        json.dump(payload, fh)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
