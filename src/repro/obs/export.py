"""Metrics export — OpenMetrics text and labeled counters/v2 JSON.

The counter bank's native dump (``hopperdissect.counters/v1``) is a
flat name→int map: perfect for diffing, useless for a metrics
backend, which wants *labels*.  This module renders the session's
per-experiment counter banks into the two standard shapes:

* **OpenMetrics / Prometheus text exposition** —
  :func:`render_openmetrics`.  Counter names become metric names
  (``dsm.hops`` → ``hopperdissect_dsm_hops_total``); the power-of-two
  latency histograms (``mem.latency.l2.le00000512`` …) become real
  OpenMetrics histograms with cumulative ``_bucket{le="…"}`` samples,
  a ``+Inf`` bucket and ``_count``.  Every sample carries the
  ``{device, experiment}`` label set; counters the
  orchestration layer fired outside any experiment (cache probes, the
  runner's ``exp.completed``) are labeled
  ``experiment="_orchestration"``.

* **``hopperdissect.counters/v2``** — :func:`render_counters_v2`, the
  labeled JSON form: the same per-experiment banks keyed by
  experiment name, with the run-level labels and context token
  alongside.  The v1 shape (``ObsSession.write_counters_json``) stays
  as the flat, lexically sorted legacy format.

Both renderings are canonical: experiments sort by name, counters by
:func:`~repro.obs.counters.counter_sort_key` (histogram buckets
numeric by bound), no timestamps — equal counter states produce
byte-identical output no matter how many workers the deltas crossed.
The obs-tripwire CI job holds serial and ``--jobs N`` runs to exactly
that.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.obs.counters import counter_sort_key, split_bucket

__all__ = [
    "COUNTERS_V2_SCHEMA",
    "METRIC_PREFIX",
    "ORCHESTRATION",
    "context_labels",
    "counters_v2_payload",
    "metric_name",
    "render_counters_v2",
    "render_openmetrics",
    "load_counters_v2",
]

#: schema tag of the labeled JSON form; the flat legacy form is
#: ``hopperdissect.counters/v1`` (see ``ObsSession.COUNTERS_SCHEMA``)
COUNTERS_V2_SCHEMA = "hopperdissect.counters/v2"

#: every exported metric name starts with this (OpenMetrics convention
#: for a single-application exposition)
METRIC_PREFIX = "hopperdissect"

#: pseudo-experiment label for counters fired outside any experiment —
#: the runner and cache orchestration layer.  The leading underscore
#: keeps it out of the experiment namespace (registry names are
#: identifier-like) and sorts it first.
ORCHESTRATION = "_orchestration"

#: characters legal in an OpenMetrics metric name
_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")


def metric_name(counter: str) -> str:
    """OpenMetrics metric name for a counter family
    (``dsm.stall.contention`` → ``hopperdissect_dsm_stall_contention``)."""
    return f"{METRIC_PREFIX}_" + _NAME_OK.sub("_", counter.replace(".", "_"))


def _escape(value: str) -> str:
    """OpenMetrics label-value escaping."""
    return (value.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def context_labels(context: Optional[Any]) -> Dict[str, str]:
    """The run-level label set a :class:`~repro.core.context.RunContext`
    contributes: the device sweep.  (The seed is carried by the context
    token, not a label — it never changes what a counter *means*.)"""
    if context is None:
        return {}
    labels: Dict[str, str] = {}
    devices = getattr(context, "devices", None)
    if devices:
        labels["device"] = ",".join(devices)
    return labels


def _label_str(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{_escape(str(v))}"'
                     for k, v in labels.items())
    return "{" + inner + "}"


def _families(banks: Mapping[str, Mapping[str, int]]) \
        -> Tuple[List[str], Dict[str, bool]]:
    """All counter families across ``banks`` plus whether each is a
    histogram (has ``.le<bound>`` buckets) — sorted by family name."""
    is_hist: Dict[str, bool] = {}
    for counters in banks.values():
        for name in counters:
            family, bound = split_bucket(name)
            if bound is not None:
                is_hist[family] = True
            else:
                is_hist.setdefault(name, False)
    return sorted(is_hist), is_hist


def render_openmetrics(
    banks: Mapping[str, Mapping[str, int]],
    *,
    labels: Optional[Mapping[str, str]] = None,
) -> str:
    """The OpenMetrics text exposition of labeled counter banks.

    ``banks`` maps experiment name → counter dict (the
    :data:`ORCHESTRATION` key holds the runner's own counters).  Each
    sample carries ``labels`` (typically ``{device}`` from
    :func:`context_labels`) plus its ``experiment``.  Output is
    canonical — families and experiments sorted, histogram buckets
    cumulative in numeric bound order, terminated by ``# EOF`` — so
    equal banks render byte-identically.
    """
    base = dict(labels or {})
    families, is_hist = _families(banks)
    exp_names = sorted(banks)
    lines: List[str] = []
    for family in families:
        metric = metric_name(family)
        if is_hist[family]:
            lines.append(f"# TYPE {metric} histogram")
            for exp in exp_names:
                buckets = sorted(
                    (bound, count)
                    for name, count in banks[exp].items()
                    for fam, bound in [split_bucket(name)]
                    if bound is not None and fam == family
                )
                if not buckets:
                    continue
                sample = dict(base)
                sample["experiment"] = exp
                cum = 0
                for bound, count in buckets:
                    cum += count
                    with_le = dict(sample)
                    with_le["le"] = str(bound)
                    lines.append(f"{metric}_bucket"
                                 f"{_label_str(with_le)} {cum}")
                inf = dict(sample)
                inf["le"] = "+Inf"
                lines.append(f"{metric}_bucket{_label_str(inf)} {cum}")
                lines.append(f"{metric}_count{_label_str(sample)} {cum}")
        else:
            lines.append(f"# TYPE {metric} counter")
            for exp in exp_names:
                if family not in banks[exp]:
                    continue
                sample = dict(base)
                sample["experiment"] = exp
                lines.append(f"{metric}_total{_label_str(sample)} "
                             f"{banks[exp][family]}")
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def _canonical_bank(counters: Mapping[str, int]) -> Dict[str, int]:
    return dict(sorted(counters.items(),
                       key=lambda kv: counter_sort_key(kv[0])))


def counters_v2_payload(
    banks: Mapping[str, Mapping[str, int]],
    orchestration: Mapping[str, int],
    *,
    labels: Optional[Mapping[str, str]] = None,
    context: Optional[Any] = None,
) -> Dict[str, Any]:
    """The counters/v2 document as a dict in canonical key order —
    what :func:`render_counters_v2` serializes and the drift gate
    (:mod:`repro.obs.diff`) compares."""
    token = None
    if context is not None:
        token = context.token() if hasattr(context, "token") \
            else str(context)
    return {
        "schema": COUNTERS_V2_SCHEMA,
        "context": token,
        "labels": {k: str(v)
                   for k, v in sorted((labels or {}).items())},
        "experiments": {name: _canonical_bank(banks[name])
                        for name in sorted(banks)},
        "orchestration": _canonical_bank(orchestration),
    }


def render_counters_v2(
    banks: Mapping[str, Mapping[str, int]],
    orchestration: Mapping[str, int],
    *,
    labels: Optional[Mapping[str, str]] = None,
    context: Optional[Any] = None,
) -> str:
    """The ``hopperdissect.counters/v2`` labeled JSON document.

    Key order is fixed (schema, context, labels, experiments,
    orchestration; experiments by name, counters in canonical order)
    and serialization is compact with a trailing newline, so equal
    states are byte-identical files — the property the export
    determinism tests and the golden-counter diff gate rely on.
    """
    payload = counters_v2_payload(banks, orchestration, labels=labels,
                                  context=context)
    return json.dumps(payload, sort_keys=False,
                      separators=(",", ":")) + "\n"


def load_counters_v2(path) -> Dict[str, Any]:
    """Parse a counters/v2 file, checking the schema tag."""
    with open(str(path)) as fh:
        payload = json.load(fh)
    schema = payload.get("schema") if isinstance(payload, dict) \
        else None
    if schema != COUNTERS_V2_SCHEMA:
        raise ValueError(
            f"{path}: expected schema {COUNTERS_V2_SCHEMA!r}, "
            f"found {schema!r}")
    return payload
