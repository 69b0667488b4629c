"""Structured span/event tracing with Chrome-trace export.

The tracer records three event shapes on named tracks:

* **complete spans** (``ph="X"``) — a name, a start timestamp and a
  duration.  The runner emits one per experiment (wall clock); the
  probe sweeps emit one per sweep with their budget in ``args``.
* **instant events** (``ph="i"``) — point markers (a result-cache hit,
  a wave boundary, a tensor-core instruction issue).
* **counter samples** (``ph="C"``) — optional numeric series.

Two clock domains coexist: *wall* tracks use microseconds since the
tracer's epoch (``time.perf_counter``), while *sim* tracks use the
simulator's own cycle count as the timestamp (one trace "microsecond"
per cycle), so a zoomed-in Perfetto view shows per-cycle issue slots.
Tracks are (pid, tid) pairs; the exporter assigns stable integer ids
and emits ``process_name``/``thread_name`` metadata so Perfetto and
``chrome://tracing`` label them.

Export formats:

* :meth:`Tracer.chrome_payload` / :meth:`write_chrome` — the Chrome
  trace-event JSON object (``{"traceEvents": [...]}``) that loads
  directly in Perfetto.
* :meth:`Tracer.write_jsonl` — one event object per line, for cheap
  streaming diffs and ``jq``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

__all__ = ["Tracer", "WALL_TRACK", "SIM_TRACK"]

#: canonical process (track-group) names
WALL_TRACK = "wall"
SIM_TRACK = "sim"


class Tracer:
    """Collects trace events; cheap when unused, absent when off.

    The observability layer holds ``Optional[Tracer]`` — ``None`` when
    tracing is disabled — so the hot paths guard with an ``is not
    None`` check and a disabled run allocates nothing.
    """

    def __init__(self) -> None:
        self._epoch = time.perf_counter()
        self.events: List[Dict[str, Any]] = []

    # -- clocks -------------------------------------------------------------

    def now_us(self) -> float:
        """Microseconds since this tracer's epoch (the wall clock)."""
        return (time.perf_counter() - self._epoch) * 1e6

    # -- event emission -----------------------------------------------------

    def _event(self, name: str, ph: str, ts: float, *,
               cat: str = "", pid: str = WALL_TRACK, tid: str = "main",
               dur: Optional[float] = None,
               args: Optional[Dict[str, Any]] = None) -> None:
        ev: Dict[str, Any] = {
            "name": name, "ph": ph, "ts": round(float(ts), 3),
            "pid": pid, "tid": tid,
        }
        if cat:
            ev["cat"] = cat
        if dur is not None:
            ev["dur"] = round(float(dur), 3)
        if args:
            ev["args"] = args
        self.events.append(ev)

    def complete(self, name: str, ts: float, dur: float, *,
                 cat: str = "", pid: str = WALL_TRACK,
                 tid: str = "main",
                 args: Optional[Dict[str, Any]] = None) -> None:
        """A finished span: started at ``ts``, lasted ``dur`` (both in
        the track's time unit)."""
        self._event(name, "X", ts, dur=max(dur, 0.0), cat=cat,
                    pid=pid, tid=tid, args=args)

    def instant(self, name: str, *, ts: Optional[float] = None,
                cat: str = "", pid: str = WALL_TRACK,
                tid: str = "main",
                args: Optional[Dict[str, Any]] = None) -> None:
        """A point marker (wall clock when ``ts`` is omitted)."""
        ev_ts = self.now_us() if ts is None else ts
        self._event(name, "i", ev_ts, cat=cat, pid=pid, tid=tid,
                    args=args)
        self.events[-1]["s"] = "t"      # instant scope: thread

    def counter(self, name: str, values: Dict[str, float], *,
                ts: Optional[float] = None, pid: str = WALL_TRACK,
                tid: str = "main") -> None:
        """A counter sample (renders as a stacked series)."""
        ev_ts = self.now_us() if ts is None else ts
        self._event(name, "C", ev_ts, pid=pid, tid=tid, args=values)

    @contextmanager
    def span(self, name: str, *, cat: str = "", tid: str = "main",
             args: Optional[Dict[str, Any]] = None):
        """Wall-clock span context manager."""
        t0 = self.now_us()
        try:
            yield
        finally:
            self.complete(name, t0, self.now_us() - t0, cat=cat,
                          tid=tid, args=args)

    # -- composition --------------------------------------------------------

    def merge(self, events: Iterable[Dict[str, Any]]) -> None:
        """Append events shipped back from a worker, as-is.

        Worker wall timestamps are relative to the worker's own epoch;
        sim-track timestamps are cycle counts and merge exactly.
        """
        self.events.extend(events)

    # -- export -------------------------------------------------------------

    def _track_ids(self) -> Tuple[Dict[str, int],
                                  Dict[Tuple[str, str], int]]:
        pids: Dict[str, int] = {}
        tids: Dict[Tuple[str, str], int] = {}
        for ev in self.events:
            pid = str(ev.get("pid", WALL_TRACK))
            tid = (pid, str(ev.get("tid", "main")))
            pids.setdefault(pid, len(pids) + 1)
            tids.setdefault(tid, len(tids) + 1)
        return pids, tids

    def chrome_payload(self) -> Dict[str, Any]:
        """The Chrome trace-event JSON object (Perfetto-loadable)."""
        pids, tids = self._track_ids()
        out: List[Dict[str, Any]] = []
        for name, pid in sorted(pids.items(), key=lambda kv: kv[1]):
            out.append({"name": "process_name", "ph": "M", "pid": pid,
                        "tid": 0, "args": {"name": name}})
        for (pname, tname), tid in sorted(tids.items(),
                                          key=lambda kv: kv[1]):
            out.append({"name": "thread_name", "ph": "M",
                        "pid": pids[pname], "tid": tid,
                        "args": {"name": tname}})
        for ev in self.events:
            pid = str(ev.get("pid", WALL_TRACK))
            tid = (pid, str(ev.get("tid", "main")))
            mapped = dict(ev)
            mapped["pid"] = pids[pid]
            mapped["tid"] = tids[tid]
            out.append(mapped)
        return {
            "traceEvents": out,
            "displayTimeUnit": "ms",
            "otherData": {
                "generator": "hopperdissect repro.obs",
                "clock_note": (
                    f"'{SIM_TRACK}' track timestamps are simulator "
                    f"cycles, not microseconds"),
            },
        }

    def write_chrome(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(self.chrome_payload(), sort_keys=True) + "\n")
        return path

    def write_jsonl(self, path: Union[str, Path]) -> Path:
        """One raw event per line (named tracks, unmapped ids)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for ev in self.events:
                fh.write(json.dumps(ev, sort_keys=True) + "\n")
        return path

    def __len__(self) -> int:
        return len(self.events)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Tracer: {len(self.events)} events>"
