"""Named monotonic counters — the simulator's hardware-counter bank.

Modeled on what Nsight/CUPTI expose off real silicon: a flat namespace
of monotonically increasing integer counters (``cache.l1.hits``,
``sm.stall.scoreboard``, ``mem.bytes.dram``, …) plus power-of-two
latency histograms folded into the same namespace
(``mem.latency.l2.le00000512``), so one sorted dump describes a whole
run and two dumps merge by plain addition.

Determinism is a design constraint, not an afterthought: counters hold
**integers only** (byte counts, event counts, histogram buckets), so
merging per-experiment deltas in any grouping — one process or a pool
of workers — produces bit-identical totals.  The serial and parallel
runners therefore emit byte-identical counter dumps for the same seed
and context.

The hot-loop contract is the :class:`NullCounterSet` fast path: code
asks for either a real :class:`CounterSet` or the shared
:data:`NULL_COUNTERS` sentinel once per batch and guards
instrumentation with the class-level ``enabled`` flag::

    obs = counters_or_null()         # CounterSet or NULL_COUNTERS
    if obs.enabled:
        obs.add("mem.loads", n)

With observability off that is one call and one attribute load per
batch — the vectorized paths pay nothing measurable.
"""

from __future__ import annotations

import json
import re
from typing import Dict, Iterator, Mapping, Optional, Tuple, Union

__all__ = [
    "CounterSet",
    "NullCounterSet",
    "NULL_COUNTERS",
    "bucket_bound",
    "bucket_label",
    "counter_sort_key",
    "split_bucket",
]


def bucket_bound(value: float) -> int:
    """The power-of-two histogram bucket upper bound covering
    ``value`` (smallest ``2**k >= value``, at least 1)."""
    bound = 1
    v = int(value) if value == int(value) else int(value) + 1
    while bound < v:
        bound <<= 1
    return bound


def bucket_label(name: str, value: float) -> str:
    """Counter key of the histogram bucket ``value`` falls into.

    Bounds are zero-padded so a lexicographic sort of the dump lists
    buckets in numeric order.
    """
    return f"{name}.le{bucket_bound(value):08d}"


#: a histogram bucket key: ``<family>.le<decimal bound>``
_BUCKET_RE = re.compile(r"^(?P<family>.+)\.le(?P<bound>\d+)$")


def split_bucket(name: str) -> Tuple[str, Optional[int]]:
    """``(family, bound)`` for a histogram bucket key, else
    ``(name, None)`` — how the export/diff layers recognise which
    counters belong to the same latency histogram."""
    m = _BUCKET_RE.match(name)
    if m is None:
        return name, None
    return m.group("family"), int(m.group("bound"))


def counter_sort_key(name: str) -> Tuple[str, int]:
    """Canonical dump ordering: histogram buckets sort *numerically*
    by bound within their family.

    Zero-padding keeps the lexicographic order numeric only up to
    eight digits; a ``.le134217728`` bucket (2^27 cycles) would sort
    *after* ``.le1073741824`` (2^30) lexically.  Every dump/rendering
    path sorts with this key instead, so deep-tail buckets list in
    bound order.  For names without a bucket suffix (and for all
    bounds below 10^8) the order is identical to a plain string sort.
    """
    family, bound = split_bucket(name)
    if bound is None:
        return name, -1
    return f"{family}.le", bound


class CounterSet:
    """A bank of named monotonic integer counters."""

    __slots__ = ("_counters",)

    #: class-level flag hot loops branch on (see module docstring)
    enabled = True

    def __init__(self,
                 values: Optional[Mapping[str, int]] = None) -> None:
        self._counters: Dict[str, int] = {}
        if values:
            self.merge(values)

    # -- increments ---------------------------------------------------------

    def add(self, name: str, n: int = 1) -> None:
        """Increment ``name`` by ``n`` (an integer; floats are
        truncated deliberately — counters stay exact)."""
        self._counters[name] = self._counters.get(name, 0) + int(n)

    def observe(self, name: str, value: float, n: int = 1) -> None:
        """Record ``value`` into ``name``'s power-of-two histogram."""
        self.add(bucket_label(name, value), n)

    def observe_many(self, name: str, values) -> None:
        """Vectorized :meth:`observe` over an array of values."""
        import numpy as np

        a = np.asarray(values)
        if a.size == 0:
            return
        # each value's bucket is 2**e; count the exponents
        exponents = np.ceil(np.log2(np.maximum(a, 1.0))).astype(np.int64)
        counts = np.bincount(exponents)
        for e in np.flatnonzero(counts).tolist():
            self.add(f"{name}.le{1 << e:08d}", int(counts[e]))

    # -- reads --------------------------------------------------------------

    def get(self, name: str, default: int = 0) -> int:
        return self._counters.get(name, default)

    def total(self, prefix: str) -> int:
        """Sum of every counter whose name starts with ``prefix``."""
        return sum(v for k, v in self._counters.items()
                   if k.startswith(prefix))

    def items(self) -> Iterator[Tuple[str, int]]:
        """Counters in canonical order (:func:`counter_sort_key` —
        name order, histogram buckets numeric by bound)."""
        return iter(sorted(self._counters.items(),
                           key=lambda kv: counter_sort_key(kv[0])))

    def as_dict(self) -> Dict[str, int]:
        """A canonically ordered plain-dict snapshot (the
        merge/transport format)."""
        return dict(self.items())

    def dump(self) -> str:
        """Canonical JSON — byte-identical for equal counter states.

        Keys keep :meth:`items` order (``sort_keys`` would fall back
        to the lexicographic order that misplaces 9-digit histogram
        bounds)."""
        return json.dumps(self.as_dict(), sort_keys=False,
                          separators=(",", ":"))

    # -- composition --------------------------------------------------------

    def merge(self,
              other: Union["CounterSet", Mapping[str, int]]) -> None:
        """Add another counter bank (a worker's delta) into this one."""
        items = other.as_dict().items() \
            if isinstance(other, CounterSet) else other.items()
        for name, value in items:
            self.add(name, value)

    def clear(self) -> None:
        self._counters.clear()

    def __len__(self) -> int:
        return len(self._counters)

    def __bool__(self) -> bool:
        return bool(self._counters)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<CounterSet: {len(self._counters)} counters>"


class NullCounterSet(CounterSet):
    """The disabled-observability sentinel.

    Every mutator is a no-op and ``enabled`` is False, so hot loops
    holding it skip instrumentation with one attribute check while
    cold paths may still call the mutators unconditionally.
    """

    __slots__ = ()

    enabled = False

    def add(self, name: str, n: int = 1) -> None:
        pass

    def observe(self, name: str, value: float, n: int = 1) -> None:
        pass

    def observe_many(self, name: str, values) -> None:
        pass

    def merge(self, other) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<NullCounterSet>"


#: the shared do-nothing sink — hold this when no session is active
NULL_COUNTERS = NullCounterSet()
