"""The observability session — activation and transport.

An :class:`ObsSession` owns one :class:`~repro.obs.counters.CounterSet`
and (optionally) one :class:`~repro.obs.trace.Tracer` for the duration
of a run.  Exactly one session is *active* per process at a time,
published through the module-global :data:`ACTIVE`.  Instrumented code
reaches it one way: it reads ``ACTIVE`` as a module attribute when a
call starts (``from repro.obs import session as _obs``, then
``_obs.ACTIVE`` — a ``from``-import of the name would bind ``None`` at
import time) and records only when it is not ``None``.  Wall-clock
spans open through :func:`span`, a null context unless the active
session traces.  With observability off either costs one attribute
read and one ``is None`` test, keeping the default path byte-identical
to an uninstrumented build.

Wiring into the pool: :func:`repro.perf.runner.parallel_imap` runs
every item under a **fresh nested session** — in workers *and* on
the serial path — and yields its :meth:`dump` with the result; the
caller :meth:`merge`\\ s the deltas in input order.  Counters are
integers, so the grouping cannot change totals: serial and parallel
runs produce byte-identical counter dumps.  A nested tracer counts
from its caller's epoch, so merged spans keep their wall alignment.
The experiment runner adds each computed experiment's
``exp.completed`` counter itself; the experiment's wall span is
recorded inside the item, where it runs.

Sessions activate as context managers and nest (the previous session
is restored on exit), so a worker-side session composes with a
CLI-level one.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Any, Dict, Optional

from repro.obs.counters import CounterSet
from repro.obs.trace import Tracer

__all__ = ["ObsSession", "ACTIVE", "span"]

#: the process's active session (``None`` — the default — means off)
ACTIVE: Optional["ObsSession"] = None


def span(name: str, *, cat: str = "", tid: str = "main",
         args: Optional[Dict[str, Any]] = None):
    """A wall-clock span on the active session's tracer, or a null
    context when no session is active or it does not trace."""
    s = ACTIVE
    if s is None or s.tracer is None:
        return nullcontext()
    return s.tracer.span(name, cat=cat, tid=tid, args=args or None)


class ObsSession:
    """One run's worth of counters and (optionally) trace events."""

    def __init__(self, *, trace: bool = False) -> None:
        self.counters = CounterSet()
        self.tracer: Optional[Tracer] = Tracer() if trace else None
        #: per-experiment counter banks — populated when the runner
        #: merges worker dumps with an ``experiment=`` attribution;
        #: what the labeled exports (OpenMetrics, counters/v2) render
        self.per_experiment: Dict[str, CounterSet] = {}

    # -- activation ---------------------------------------------------------

    @contextmanager
    def activate(self):
        """Publish this session as :data:`ACTIVE`; restores the
        previous session (sessions nest) on exit."""
        global ACTIVE
        previous = ACTIVE
        ACTIVE = self
        try:
            yield self
        finally:
            ACTIVE = previous

    # -- transport ----------------------------------------------------------

    def dump(self) -> Dict[str, Any]:
        """The picklable delta a worker ships back with its result."""
        return {
            "counters": self.counters.as_dict(),
            "events": list(self.tracer.events)
            if self.tracer is not None else [],
        }

    def merge(self, dump: Optional[Dict[str, Any]],
              experiment: Optional[str] = None) -> None:
        """Fold a worker's (or nested session's) delta into this one.

        ``experiment`` attributes the delta's counters to that
        experiment's labeled bank as well as the flat totals; the
        runner passes the experiment name so the export layer can
        label every counter.  Attribution is pure addition of integer
        deltas, so it inherits the flat bank's determinism: serial and
        process-pool runs build identical labeled banks.
        """
        if not dump:
            return
        counters = dump.get("counters", {})
        self.counters.merge(counters)
        if experiment is not None and counters:
            bank = self.per_experiment.get(experiment)
            if bank is None:
                bank = self.per_experiment[experiment] = CounterSet()
            bank.merge(counters)
        events = dump.get("events")
        if events and self.tracer is not None:
            self.tracer.merge(events)

    # -- labeled views ------------------------------------------------------

    def experiment_counters(self) -> Dict[str, Dict[str, int]]:
        """Per-experiment banks as plain dicts, experiments sorted by
        name, counters in canonical order."""
        return {name: self.per_experiment[name].as_dict()
                for name in sorted(self.per_experiment)}

    def orchestration_counters(self) -> Dict[str, int]:
        """Counters fired *outside* any experiment — the flat totals
        minus every attributed bank: cache probes, the runner's
        ``exp.completed``."""
        from repro.obs.counters import counter_sort_key

        rem = dict(self.counters.as_dict())
        for bank in self.per_experiment.values():
            for name, value in bank.as_dict().items():
                left = rem.get(name, 0) - value
                if left:
                    rem[name] = left
                else:
                    rem.pop(name, None)
        return dict(sorted(rem.items(),
                           key=lambda kv: counter_sort_key(kv[0])))

    # -- rendering ----------------------------------------------------------

    def counters_table(self, title: str = "hardware counters"):
        """The counter bank as a :class:`~repro.core.tables.Table`."""
        from repro.core.tables import Table

        table = Table(title, ["counter", "value"])
        for name, value in self.counters.items():
            table.add_row(name, value)
        return table

    def render_counters(self) -> str:
        if not self.counters:
            return "(no counters recorded)"
        return self.counters_table().render()

    # -- counter output -----------------------------------------------------

    #: schema tag stamped into :meth:`write_counters_json` payloads;
    #: bump the ``/vN`` suffix on breaking shape changes
    COUNTERS_SCHEMA = "hopperdissect.counters/v1"

    def write_counters_json(self, path, *,
                            context: Optional[Any] = None) -> str:
        """Serialize the counter bank as machine-readable JSON.

        The payload is canonical (sorted keys, fixed separators), so
        equal counter states produce byte-identical files — diffable
        in CI and stable under serial/parallel regrouping::

            {"schema": "hopperdissect.counters/v1",
             "context": "A100,H800/seed0/fast" | null,
             "counters": {"exp.completed": 3, ...}}

        ``context`` may be a :class:`~repro.core.context.RunContext`
        (its token is recorded) or ``None``.  Returns the written
        path.  ``benchmarks/validate_counters.py`` checks this shape.
        """
        import json

        token = None
        if context is not None:
            token = context.token() if hasattr(context, "token") \
                else str(context)
        payload = {
            "schema": self.COUNTERS_SCHEMA,
            "context": token,
            "counters": self.counters.as_dict(),
        }
        path = str(path)
        with open(path, "w") as fh:
            json.dump(payload, fh, sort_keys=True,
                      separators=(",", ":"))
            fh.write("\n")
        return path

    def _labeled_banks(self) -> Dict[str, Dict[str, int]]:
        """Every labeled bank plus the orchestration remainder under
        the :data:`~repro.obs.export.ORCHESTRATION` key — the input
        shape of the OpenMetrics renderer."""
        from repro.obs.export import ORCHESTRATION

        banks = self.experiment_counters()
        orchestration = self.orchestration_counters()
        if orchestration or not banks:
            banks[ORCHESTRATION] = orchestration
        return banks

    def write_openmetrics(self, path, *,
                          context: Optional[Any] = None) -> str:
        """Serialize the labeled banks as OpenMetrics text exposition
        (see :func:`repro.obs.export.render_openmetrics`); returns the
        written path."""
        from repro.obs.export import context_labels, render_openmetrics

        text = render_openmetrics(self._labeled_banks(),
                                  labels=context_labels(context))
        path = str(path)
        with open(path, "w") as fh:
            fh.write(text)
        return path

    def counters_v2_payload(self, *,
                            context: Optional[Any] = None) \
            -> Dict[str, Any]:
        """The in-memory counters/v2 document — what the drift gate
        diffs against a committed golden baseline without touching
        disk."""
        from repro.obs.export import context_labels, counters_v2_payload

        return counters_v2_payload(self.experiment_counters(),
                                   self.orchestration_counters(),
                                   labels=context_labels(context),
                                   context=context)

    def write_counters_v2(self, path, *,
                          context: Optional[Any] = None) -> str:
        """Serialize the labeled banks as ``hopperdissect.counters/v2``
        JSON (see :func:`repro.obs.export.render_counters_v2`); returns
        the written path."""
        from repro.obs.export import context_labels, render_counters_v2

        text = render_counters_v2(self.experiment_counters(),
                                  self.orchestration_counters(),
                                  labels=context_labels(context),
                                  context=context)
        path = str(path)
        with open(path, "w") as fh:
            fh.write(text)
        return path

    # -- trace output -------------------------------------------------------

    def write_trace(self, path) -> Optional[str]:
        """Write the Chrome-trace JSON (or compact JSONL when ``path``
        ends in ``.jsonl``); returns the written path or ``None`` when
        tracing was off."""
        if self.tracer is None:
            return None
        path = str(path)
        if path.endswith(".jsonl"):
            return str(self.tracer.write_jsonl(path))
        return str(self.tracer.write_chrome(path))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        trace = len(self.tracer) if self.tracer is not None else "off"
        return (f"<ObsSession: {len(self.counters)} counters, "
                f"trace={trace}>")
