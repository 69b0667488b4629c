"""The invariant oracle — what makes a random scenario *checkable*.

Each scenario's answer stream is tested against declared properties
instead of golden values, following the cross-generation observation
(K80→A100→Hopper→Blackwell lineage studies) that *more resource is
never slower*:

``no_raise``
    Answering a well-formed batch never raises — unsupported
    capabilities are structured ``status="unsupported"`` answers.
``status.wellformed``
    Every status is one of ``ok/unsupported/oom/error``, and a
    generator-built (in-domain) query is never answered ``error``.
``batch_sequential_equiv``
    One ``answer_batch`` over the scenario renders byte-identically
    to a one-``answer()``-at-a-time loop on a fresh service.
``warm_equiv``
    Asking the same batch twice on one service (cold compute, then
    warm memo tier) renders byte-identically.
``linear_monotone``
    At fixed (device, precision, n, k), te.linear ``seconds`` is
    non-decreasing in ``m`` — more work is never faster.
``latency_monotone``
    At fixed (device, stride), mean chase latency is non-decreasing
    in footprint — a bigger working set never hits closer.
``wgmma_monotone``
    At fixed (device, ab, cd, sparse, a_source), wgmma ``tflops`` is
    non-decreasing in ``n`` — wider warpgroup tiles amortize issue.
``dsm_contention_monotone``
    Per-SM fabric contention never *helps*: ``aggregate_tbps`` is 0
    at cluster size 1 (no remote traffic) and non-increasing across
    cluster sizes ≥ 2.
``lineage_peaks``
    Across the HBM lineage V100→A100→H800→B200, FP16 dense peak,
    DRAM bandwidth and L2 capacity never regress.
``fraction_of_peak_bound``
    No modeled kernel exceeds its device's peak.

Monotone chains are *re-derived* from the queries themselves (group
by the fixed params, sort by the swept one), so a shrunk subset of a
scenario is checked by exactly the code that convicted the original.

Comparisons use the same ``1.0001`` relative slack the model
invariant suite uses — rounding at the 12th significant digit must
never convict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.serve.schema import Prediction, Query

__all__ = ["INVARIANTS", "ScenarioReport", "Violation",
           "check_scenario"]

#: relative slack for "never slower/faster" comparisons
_TOL = 1.0001

#: fixed HBM lineage, oldest first (mirrors test_model_invariants)
_HBM_LINEAGE = ("V100", "A100", "H800", "B200")

_STATUSES = frozenset(("ok", "unsupported", "oom", "error"))

INVARIANTS: Tuple[str, ...] = (
    "no_raise",
    "status.wellformed",
    "batch_sequential_equiv",
    "warm_equiv",
    "linear_monotone",
    "latency_monotone",
    "wgmma_monotone",
    "dsm_contention_monotone",
    "lineage_peaks",
    "fraction_of_peak_bound",
)


@dataclass(frozen=True)
class Violation:
    """One broken invariant, pinned to its scenario and queries."""

    invariant: str
    scenario_index: int
    seed: int
    message: str
    #: canonical forms of the smallest query set the message is about
    queries: Tuple[str, ...] = ()


@dataclass
class ScenarioReport:
    """One checked scenario, reduced to what the aggregator streams."""

    index: int
    n_queries: int
    n_checks: int = 0
    status_counts: Dict[str, int] = field(default_factory=dict)
    violations: List[Violation] = field(default_factory=list)


class _Checker:
    def __init__(self, scenario) -> None:
        self.scenario = scenario
        self.report = ScenarioReport(index=scenario.index,
                                     n_queries=len(scenario.queries))

    def _fail(self, invariant: str, message: str,
              queries: Sequence[Query] = ()) -> None:
        self.report.violations.append(Violation(
            invariant=invariant,
            scenario_index=self.scenario.index,
            seed=self.scenario.seed,
            message=message,
            queries=tuple(q.canonical() for q in queries),
        ))

    def _check(self) -> None:
        self.report.n_checks += 1

    # -- service passes -----------------------------------------------------

    def _fresh_service(self):
        from repro.serve import QueryService

        # no persistent cache: the fuzzer must convict the *model*,
        # never a stale blob, and a fresh service per pass keeps
        # cold/warm tiers exactly where each invariant expects them
        return QueryService(cache=None)

    def run(self, *, deep: bool) -> ScenarioReport:
        queries = list(self.scenario.queries)
        service = self._fresh_service()
        self._check()
        try:
            predictions = service.answer_batch(queries)
        except Exception as exc:  # noqa: BLE001 - the invariant
            self._fail("no_raise",
                       f"answer_batch raised {type(exc).__name__}: "
                       f"{exc}", queries)
            return self.report

        self._statuses(queries, predictions)
        if deep:
            self._sequential(queries, predictions)
        self._warm(service, queries, predictions)
        self._linear_monotone(queries, predictions)
        self._latency_monotone(queries, predictions)
        self._wgmma_monotone(queries, predictions)
        self._dsm_monotone(queries, predictions)
        self._lineage()
        self._peak_bound(queries, predictions)
        return self.report

    # -- invariants ---------------------------------------------------------

    def _statuses(self, queries: List[Query],
                  predictions: List[Prediction]) -> None:
        self._check()
        counts = self.report.status_counts
        for q, p in zip(queries, predictions):
            counts[p.status] = counts.get(p.status, 0) + 1
            if p.status not in _STATUSES:
                self._fail("status.wellformed",
                           f"illegal status {p.status!r}", [q])
            elif p.status == "error":
                self._fail("status.wellformed",
                           "in-domain query answered status=error: "
                           f"{p.reason}", [q])

    def _sequential(self, queries: List[Query],
                    predictions: List[Prediction]) -> None:
        self._check()
        service = self._fresh_service()
        solo = [service.answer(q) for q in queries]
        for q, batched, single in zip(queries, predictions, solo):
            if batched.to_line() != single.to_line():
                self._fail(
                    "batch_sequential_equiv",
                    f"batched {batched.to_line()} != sequential "
                    f"{single.to_line()}", [q])

    def _warm(self, service, queries: List[Query],
              cold: List[Prediction]) -> None:
        self._check()
        warm = service.answer_batch(queries)
        for q, c, w in zip(queries, cold, warm):
            if c.to_line() != w.to_line():
                self._fail("warm_equiv",
                           f"cold {c.to_line()} != warm "
                           f"{w.to_line()}", [q])

    def _monotone(self, invariant: str, chains: Dict[Any, list],
                  metric: str, *, decreasing: bool = False) -> None:
        """``chains`` maps a fixed-param key to [(swept_value, query,
        prediction)]; the metric must move one way along each chain."""
        self._check()
        for chain in chains.values():
            chain.sort(key=lambda item: item[0])
            kept = [(x, q, p) for x, q, p in chain if p.ok]
            for (x0, q0, p0), (x1, q1, p1) in zip(kept, kept[1:]):
                lo, hi = p0.metric(metric), p1.metric(metric)
                bad = (hi > lo * _TOL) if decreasing \
                    else (hi * _TOL < lo)
                if bad:
                    direction = "increased" if decreasing else "dropped"
                    self._fail(
                        invariant,
                        f"{metric} {direction} along the chain: "
                        f"{lo!r} at {x0} -> {hi!r} at {x1}",
                        [q0, q1])

    def _linear_monotone(self, queries, predictions) -> None:
        chains: Dict[Any, list] = {}
        for q, p in zip(queries, predictions):
            if q.kind == "te.linear":
                key = (q.device, q.precision, q.param("n"),
                       q.param("k"))
                chains.setdefault(key, []).append(
                    (q.param("m"), q, p))
        self._monotone("linear_monotone", chains, "seconds")

    def _latency_monotone(self, queries, predictions) -> None:
        chains: Dict[Any, list] = {}
        for q, p in zip(queries, predictions):
            if q.kind == "memory.latency":
                key = (q.device, q.param("stride_bytes"))
                chains.setdefault(key, []).append(
                    (q.param("footprint_kib"), q, p))
        self._monotone("latency_monotone", chains, "mean_latency_clk")

    def _wgmma_monotone(self, queries, predictions) -> None:
        chains: Dict[Any, list] = {}
        for q, p in zip(queries, predictions):
            if q.kind == "wgmma":
                key = (q.device, q.param("ab"), q.param("cd"),
                       q.param("sparse"), q.param("a_source"))
                chains.setdefault(key, []).append(
                    (q.param("n"), q, p))
        self._monotone("wgmma_monotone", chains, "tflops")

    def _dsm_monotone(self, queries, predictions) -> None:
        chains: Dict[Any, list] = {}
        self._check()
        for q, p in zip(queries, predictions):
            if q.kind != "dsm.bandwidth" or not p.ok:
                continue
            cs = q.param("cluster_size")
            tbps = p.metric("aggregate_tbps")
            if cs == 1 and tbps != 0.0:
                self._fail("dsm_contention_monotone",
                           f"cluster size 1 has no remote traffic "
                           f"but aggregate_tbps={tbps!r}", [q])
            if cs >= 2:
                chains.setdefault(q.device, []).append((cs, q, p))
        self._monotone("dsm_contention_monotone", chains,
                       "aggregate_tbps", decreasing=True)

    def _lineage(self) -> None:
        from repro.arch import get_device

        self._check()
        lineup = [d for d in _HBM_LINEAGE
                  if d in self.scenario.devices]
        specs = [get_device(d) for d in lineup]
        axes = (
            ("fp16 dense peak",
             lambda s: s.tensor_core.dense_peak_tflops.get("fp16",
                                                           0.0)),
            ("dram bandwidth",
             lambda s: s.dram.peak_bandwidth_gbps),
            ("l2 capacity",
             lambda s: s.cache.l2_size_kib),
        )
        for older, newer in zip(specs, specs[1:]):
            for label, axis in axes:
                if axis(newer) * _TOL < axis(older):
                    self._fail(
                        "lineage_peaks",
                        f"{label} regressed {older.name}->"
                        f"{newer.name}: {axis(older)!r} -> "
                        f"{axis(newer)!r}")

    def _peak_bound(self, queries, predictions) -> None:
        self._check()
        for q, p in zip(queries, predictions):
            if q.kind in ("mma", "wgmma") and p.ok:
                frac = p.metric("fraction_of_peak", 0.0)
                if frac > _TOL:
                    self._fail("fraction_of_peak_bound",
                               f"fraction_of_peak={frac!r} exceeds "
                               "the device peak", [q])


def check_scenario(scenario, *, deep: Optional[bool] = None) \
        -> ScenarioReport:
    """Answer ``scenario`` and test every applicable invariant.

    ``deep`` turns on the (costly) batch-vs-sequential recompute; by
    default every fourth scenario gets it — a deterministic function
    of the scenario index, so serial and fanned runs sample the same
    cases.
    """
    if deep is None:
        deep = scenario.index % 4 == 0
    return _Checker(scenario).run(deep=deep)
