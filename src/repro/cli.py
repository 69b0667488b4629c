"""``hopperdissect`` command-line interface.

Subcommands::

    hopperdissect list                 # all experiments
    hopperdissect run table07_mma      # one experiment + checks
    hopperdissect run --all            # everything
    hopperdissect run --all --jobs 4   # ... on four processes
    hopperdissect run --all --profile  # ... + per-experiment timings
    hopperdissect run --devices A100   # single-device sweep
    hopperdissect run --all --seed 7   # reseed the RNG-using workloads
    hopperdissect devices              # Table III
    hopperdissect report -o EXPERIMENTS.md
    hopperdissect run --all --counters # + hardware-counter table
    hopperdissect run --all --counters-json c.json  # machine-readable
    hopperdissect run --all --trace t.json   # + Perfetto trace
    hopperdissect stats table04_mem_latency  # counter deep-dive
    hopperdissect serve < queries.jsonl      # batch cost oracle
    hopperdissect query mma -d A100 -p ab=fp16 -p cd=fp32 \
        -p m=16 -p n=8 -p k=16               # one-shot point query

``--device/--devices`` and ``--seed`` build the
:class:`~repro.core.context.RunContext` the builders run under; the
default context is the paper's testbed (RTX4090, A100, H800, seed 0).
Under a restrictive device sweep, experiments pinned to excluded
devices are skipped with a note (``--all``) or fail with a clear error
(named explicitly).  ``--fidelity fast|full`` is still accepted and
ignored: there is one probe configuration.

Results are served from a content-addressed on-disk cache
(``~/.cache/hopperdissect`` or ``$HOPPERDISSECT_CACHE_DIR``) keyed on
the run context, the context's device specs and a digest of the
``repro`` source, so a re-run with no model or experiment code changed
is near-instant; ``--no-cache`` forces fresh builds.

:func:`main` runs BLAS on one thread, in its own process and in every
pool worker it starts: ``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``
and ``MKL_NUM_THREADS`` default to 1, so ``--jobs N`` is N
single-threaded processes.  A value the user exported wins.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from typing import Optional, Sequence, Tuple

from repro.arch import get_device, list_devices
from repro.core import (
    DEFAULT_CONTEXT,
    RunContext,
    get_experiment,
    list_experiments,
    run_all,
)
from repro.core.report import experiments_markdown, summary_line

__all__ = ["main"]


def _cmd_list(_args) -> int:
    for name in list_experiments():
        exp = get_experiment(name)
        print(f"{name:28s} {exp.paper_ref:12s} {exp.description}")
    return 0


def _cmd_devices(_args) -> int:
    names = list_devices()
    # capability matrix — one row per device, straight off each
    # device's ArchPack, so third-party packs show up automatically
    flags = (("wgmma", "has_wgmma"), ("tma", "has_tma"),
             ("dsm", "has_distributed_shared_memory"),
             ("fp8", "has_fp8"), ("dpx", "has_dpx_hardware"),
             ("cp.async", "has_cp_async"),
             ("sparse", "has_sparse_mma"))
    header = (["Device", "Arch", "CC", "TC gen"]
              + [label for label, _ in flags] + ["cluster"])
    rows = []
    for name in names:
        d = get_device(name)
        pack = d.pack
        rows.append(
            [name, pack.display_name, pack.compute_capability,
             str(pack.tensor_core_generation)]
            + [("yes" if getattr(pack, attr) else "-")
               for _, attr in flags]
            + [str(d.max_cluster_size)
               if pack.has_distributed_shared_memory else "-"])
    widths = [max(len(header[i]), *(len(r[i]) for r in rows))
              for i in range(len(header))]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip())
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
    for name in names:
        d = get_device(name)
        print(f"\n{name}")
        for k, v in d.table3_row().items():
            print(f"  {k}: {v}")
    return 0


def _make_cache(args):
    if getattr(args, "no_cache", False):
        return None
    from repro.perf import ResultCache

    try:
        return ResultCache()
    except ValueError as exc:      # a malformed $..._MAX_ENTRIES
        raise SystemExit(f"hopperdissect: {exc}")


def _make_obs(args):
    """An :class:`~repro.obs.ObsSession` when ``--counters``,
    ``--counters-json``, ``--metrics`` or ``--trace`` asked for one,
    else ``None`` (instrumentation stays on its null-object fast
    path)."""
    if (getattr(args, "counters", False)
            or getattr(args, "counters_json", None)
            or getattr(args, "metrics", None)
            or getattr(args, "trace", None)):
        from repro.obs import ObsSession

        return ObsSession(trace=bool(getattr(args, "trace", None)))
    return None


def _activate(session):
    """``session.activate()``, or a do-nothing context when no session
    was asked for."""
    return nullcontext() if session is None else session.activate()


def _write_metrics(session, path, context) -> None:
    """``--metrics PATH``: labeled export, format by extension —
    ``.json`` gets the counters/v2 document, anything else the
    OpenMetrics text exposition."""
    if str(path).endswith(".json"):
        session.write_counters_v2(path, context=context)
        form = "counters/v2 JSON"
    else:
        session.write_openmetrics(path, context=context)
        form = "OpenMetrics text"
    print(f"wrote {path} ({form}, "
          f"{len(session.per_experiment)} experiment banks)",
          file=sys.stderr)


def _finish_obs(session, args, context=None, *, table=None) -> None:
    """Print/serialize whatever the session collected: the
    ``--counters`` table on ``table`` (stdout by default; ``serve`` and
    ``query`` pass stderr, so their stdout carries only predictions)
    and each ``wrote PATH`` status line on stderr."""
    if session is None:
        return
    if getattr(args, "counters", False):
        print(session.render_counters(), file=table)
        print(file=table)
    counters_path = getattr(args, "counters_json", None)
    if counters_path:
        session.write_counters_json(counters_path, context=context)
        print(f"wrote {counters_path} "
              f"({len(session.counters)} counters)", file=sys.stderr)
    metrics_path = getattr(args, "metrics", None)
    if metrics_path:
        _write_metrics(session, metrics_path, context)
    trace_path = getattr(args, "trace", None)
    if trace_path:
        session.write_trace(trace_path)
        print(f"wrote {trace_path} "
              f"({len(session.tracer.events)} events; load in "
              f"ui.perfetto.dev or chrome://tracing)", file=sys.stderr)


def _device_names(items) -> Optional[Tuple[str, ...]]:
    """Repeated ``--device`` values, comma lists split, as one tuple;
    ``None`` when the flag was not given."""
    if not items:
        return None
    return tuple(name for item in items
                 for name in item.split(",") if name)


def _make_context(args) -> RunContext:
    """The :class:`RunContext` the flags describe (default testbed
    when nothing was overridden)."""
    devices = _device_names(getattr(args, "devices", None))
    kwargs = {}
    if devices is not None:
        kwargs["devices"] = devices
    if getattr(args, "seed", None) is not None:
        kwargs["seed"] = args.seed
    if not kwargs:
        return DEFAULT_CONTEXT
    try:
        return RunContext(**kwargs)
    except (KeyError, ValueError) as exc:
        raise SystemExit(f"hopperdissect: bad run context: {exc}")


def _cmd_run(args) -> int:
    context = _make_context(args)
    if args.all:
        names = []
        for name in list_experiments():
            exp = get_experiment(name)
            if exp.supports(context):
                names.append(name)
            else:
                print(f"note: skipping {name} ({exp.pin_note()}; "
                      f"not satisfied by context "
                      f"{','.join(context.devices)})", file=sys.stderr)
    else:
        names = args.experiments
    if not names:
        print("nothing to run: name experiments or pass --all",
              file=sys.stderr)
        return 2
    from repro.perf import run_experiments

    session = _make_obs(args)
    with _activate(session):
        report = run_experiments(names, jobs=args.jobs,
                                 cache=_make_cache(args),
                                 context=context)
    failed = 0
    for res in report.results.values():
        print(res.render())
        print()
        failed += sum(1 for c in res.checks if not c.passed)
    _finish_obs(session, args, context)
    if args.profile:
        print(report.profiler.render())
    if failed:
        print(f"{failed} finding check(s) FAILED", file=sys.stderr)
        return 1
    return 0


def _cmd_fidelity(_args) -> int:
    from repro.core.fidelity import fidelity_report
    print(fidelity_report().render())
    return 0


def _cmd_report(args) -> int:
    context = _make_context(args)
    session = _make_obs(args)
    with _activate(session):
        results = run_all(jobs=args.jobs, cache=_make_cache(args),
                          context=context)
    md = experiments_markdown(results)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(md)
        print(f"wrote {args.output}: {summary_line(results)}",
              file=sys.stderr)
    else:
        print(md)
    _finish_obs(session, args, context)
    return 0


def _cmd_stats(args) -> int:
    """Deep-dive one experiment: run it fresh (no result cache — a
    cache hit would skip the instrumented code entirely) with counters
    forced on, and render the counter table next to the result."""
    from repro.obs import ObsSession
    from repro.perf import run_experiments

    context = _make_context(args)
    exp = get_experiment(args.experiment)
    if not exp.supports(context):
        print(f"hopperdissect: {args.experiment} cannot run here "
              f"({exp.pin_note()}; context "
              f"{','.join(context.devices)})", file=sys.stderr)
        return 2
    session = ObsSession(trace=bool(args.trace))
    with session.activate():
        report = run_experiments([args.experiment], jobs=1,
                                 cache=None, context=context)
    res = report.results[args.experiment]
    print(res.render())
    print()
    print(session.render_counters())
    _finish_obs(session, args, context)
    drift_failed = False
    if args.diff:
        from repro.obs.diff import diff_payloads
        from repro.obs.export import load_counters_v2

        baseline_path = args.diff
        if os.path.isdir(baseline_path):
            baseline_path = os.path.join(baseline_path,
                                         f"{args.experiment}.json")
        try:
            baseline = load_counters_v2(baseline_path)
        except (OSError, ValueError) as exc:
            print(f"hopperdissect: cannot load baseline: {exc}",
                  file=sys.stderr)
            return 2
        report_drift = diff_payloads(
            baseline,
            session.counters_v2_payload(context=context),
            baseline_label=baseline_path,
        )
        print()
        print(report_drift.render())
        drift_failed = not report_drift.passed
    return 0 if res.passed and not drift_failed else 1


def _parse_param(item: str):
    """One ``-p key=value`` flag → (key, typed value): ints stay
    ints, ``true``/``false`` become booleans, the rest stay strings."""
    key, sep, raw = item.partition("=")
    if not sep or not key:
        raise SystemExit(
            f"hopperdissect: bad param {item!r}; expected key=value")
    low = raw.lower()
    if low in ("true", "false"):
        return key, low == "true"
    try:
        return key, int(raw)
    except ValueError:
        return key, raw


def _make_service(args, context):
    from repro.serve import QueryService

    cache = _make_cache(args)
    try:
        return QueryService(context=context, cache=cache,
                            jobs=args.jobs)
    except ValueError as exc:      # a malformed $..._MAX_ENTRIES
        raise SystemExit(f"hopperdissect: {exc}")


def _cmd_serve(args) -> int:
    """Batch query loop: JSONL requests in (stdin or ``--input``),
    canonical JSONL predictions out.  The whole stream is answered as
    one batch so duplicate and same-(kind, device) queries coalesce
    onto single vectorized sweeps."""
    context = _make_context(args)
    if args.input:
        with open(args.input) as fh:
            lines = fh.readlines()
    else:
        lines = sys.stdin.readlines()
    session = _make_obs(args)
    service = _make_service(args, context)
    with _activate(session):
        text = service.answer_lines_text(lines)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        sys.stdout.write(text)
    _finish_obs(session, args, context, table=sys.stderr)
    if args.stats_json:
        service.write_stats_json(args.stats_json)
        print(f"wrote {args.stats_json} (service stats)",
              file=sys.stderr)
    return 0


def _cmd_query(args) -> int:
    """One-shot point query from flags (or a raw ``--json`` object);
    prints the canonical prediction line.  Unknown devices and
    experiment names fail with the registries' did-you-mean
    suggestions."""
    import json as _json

    from repro.serve import QueryError, parse_query

    if args.json:
        try:
            obj = _json.loads(args.json)
        except _json.JSONDecodeError as exc:
            print(f"hopperdissect: bad --json: {exc}",
                  file=sys.stderr)
            return 2
    else:
        if not args.kind:
            print("hopperdissect: name a query kind (or pass --json)",
                  file=sys.stderr)
            return 2
        obj = {"kind": args.kind}
        if args.query_device:
            obj["device"] = args.query_device
        if args.precision:
            obj["precision"] = args.precision
        if args.param:
            obj["params"] = dict(_parse_param(p) for p in args.param)
    try:
        query = parse_query(obj)
    except QueryError as exc:
        # covers unknown devices too — the schema re-raises the
        # registry's did-you-mean KeyError as a QueryError
        print(f"hopperdissect: bad query: {exc}", file=sys.stderr)
        return 2
    context = _make_context(args)
    session = _make_obs(args)
    service = _make_service(args, context)
    with _activate(session):
        prediction = service.answer(query)
    print(prediction.to_line())
    _finish_obs(session, args, context, table=sys.stderr)
    return 0 if prediction.status != "error" else 1


def _cmd_fuzz(args) -> int:
    """Scenario fuzzing: seeded random workloads through the query
    service, every answer stream checked against the invariant
    oracle, violations shrunk to replayable repro files.  Exits 1
    when any invariant fired (``--replay`` included — a repro that
    still reproduces reports its violation and exits 1)."""
    from repro.fuzz import replay_repro, run_fuzz

    session = _make_obs(args)

    if args.replay:
        try:
            with _activate(session):
                report = replay_repro(args.replay)
        except (OSError, ValueError, KeyError) as exc:
            print(f"hopperdissect: bad repro file: {exc}",
                  file=sys.stderr)
            return 2
        for v in report.violations:
            print(f"[{v.invariant}] {v.message}")
        if not report.violations:
            print(f"{args.replay}: no invariant fires any more "
                  f"({report.n_queries} queries, "
                  f"{report.n_checks} checks)")
        _finish_obs(session, args)
        return 1 if report.violations else 0

    kwargs = dict(jobs=args.jobs, devices=_device_names(args.devices),
                  repro_dir=args.repro_dir,
                  max_repros=args.max_repros,
                  shrink=not args.no_shrink)
    try:
        with _activate(session):
            report = run_fuzz(args.seed, args.budget, **kwargs)
    except (KeyError, ValueError) as exc:
        print(f"hopperdissect: {exc}", file=sys.stderr)
        return 2
    print(report.summary())
    _finish_obs(session, args)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="hopperdissect",
        description=(
            "Simulator-backed reproduction of 'Benchmarking and "
            "Dissecting the Nvidia Hopper GPU Architecture'"
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list experiments").set_defaults(
        fn=_cmd_list)
    sub.add_parser("devices", help="show device specs").set_defaults(
        fn=_cmd_devices)

    def add_perf_flags(sp) -> None:
        sp.add_argument("-j", "--jobs", type=int, default=1,
                        metavar="N",
                        help="run experiments on N processes")
        sp.add_argument("--no-cache", action="store_true",
                        help="ignore the on-disk result cache")

    def add_export_flags(sp) -> None:
        sp.add_argument("--counters-json", default=None,
                        metavar="PATH", dest="counters_json",
                        help="dump the counter bank as canonical "
                             "JSON (hopperdissect.counters/v1)")
        sp.add_argument("--metrics", default=None, metavar="PATH",
                        help="export labeled per-experiment counters: "
                             "counters/v2 JSON for .json paths, "
                             "OpenMetrics text otherwise")
        sp.add_argument("--trace", default=None, metavar="PATH",
                        help="write a structured trace (Chrome/"
                             "Perfetto JSON, or JSONL for .jsonl "
                             "paths)")

    def add_obs_flags(sp) -> None:
        sp.add_argument("--counters", action="store_true",
                        help="collect hardware-style counters and "
                             "print the counter table")
        add_export_flags(sp)

    def add_context_flags(sp) -> None:
        sp.add_argument("--device", "--devices", dest="devices",
                        action="append", default=None,
                        metavar="NAME[,NAME]",
                        help="device sweep for the run context; "
                             "repeat or comma-separate for several "
                             "(default: RTX4090,A100,H800)")
        sp.add_argument("--seed", type=int, default=None, metavar="N",
                        help="RNG seed for seeded workloads "
                             "(default: 0)")
        # accepted and ignored: older scripts still pass it
        sp.add_argument("--fidelity", choices=("fast", "full"),
                        help=argparse.SUPPRESS)

    run_p = sub.add_parser("run", help="run experiments")
    run_p.add_argument("experiments", nargs="*",
                       help="experiment names (see `list`)")
    run_p.add_argument("--all", action="store_true",
                       help="run every experiment the context supports")
    add_perf_flags(run_p)
    add_context_flags(run_p)
    add_obs_flags(run_p)
    run_p.add_argument("--profile", action="store_true",
                       help="print per-experiment timings")
    run_p.set_defaults(fn=_cmd_run)

    sub.add_parser(
        "fidelity",
        help="score the simulator against the paper's absolute numbers",
    ).set_defaults(fn=_cmd_fidelity)

    rep_p = sub.add_parser("report",
                           help="generate the EXPERIMENTS.md report")
    rep_p.add_argument("-o", "--output", default=None,
                       help="output path (default: stdout)")
    add_perf_flags(rep_p)
    add_context_flags(rep_p)
    add_obs_flags(rep_p)
    rep_p.set_defaults(fn=_cmd_report)

    stats_p = sub.add_parser(
        "stats",
        help="run one experiment fresh and show its counter table",
    )
    stats_p.add_argument("experiment",
                         help="experiment name (see `list`)")
    add_context_flags(stats_p)
    add_export_flags(stats_p)
    stats_p.add_argument("--diff", default=None, metavar="BASELINE",
                         help="diff this run's counters against a "
                              "golden counters/v2 baseline (file, or "
                              "directory holding "
                              "<experiment>.json); exits 1 on any "
                              "drift")
    stats_p.set_defaults(fn=_cmd_stats)

    serve_p = sub.add_parser(
        "serve",
        help="answer a JSONL batch of cost queries (stdin → stdout)",
    )
    serve_p.add_argument("-i", "--input", default=None, metavar="PATH",
                         help="JSONL request file (default: stdin)")
    serve_p.add_argument("-o", "--output", default=None, metavar="PATH",
                         help="prediction JSONL output "
                              "(default: stdout)")
    serve_p.add_argument("--stats-json", default=None, metavar="PATH",
                         dest="stats_json",
                         help="dump private service stats (cache hit "
                              "tiers, wall-stage latency histograms) — "
                              "kept out of the deterministic counter "
                              "bank")
    add_perf_flags(serve_p)
    add_context_flags(serve_p)
    add_obs_flags(serve_p)
    serve_p.set_defaults(fn=_cmd_serve)

    query_p = sub.add_parser(
        "query",
        help="answer one point query from flags",
    )
    query_p.add_argument("kind", nargs="?", default=None,
                         help="query kind (te.linear, llm.generate, "
                              "mma, wgmma, memory.latency, "
                              "dsm.bandwidth, experiment)")
    query_p.add_argument("-d", "--on", dest="query_device",
                         default=None, metavar="NAME",
                         help="target device of the query (registry "
                              "name; --device/--devices remain the "
                              "run-context sweep for experiment "
                              "queries)")
    query_p.add_argument("--precision", default=None,
                         help="fp32/fp16/bf16/fp8 for te.linear and "
                              "llm.generate")
    query_p.add_argument("-p", "--param", action="append",
                         default=None, metavar="KEY=VALUE",
                         help="query parameter; repeatable "
                              "(e.g. -p m=4096 -p n=4096 -p k=4096)")
    query_p.add_argument("--json", default=None, metavar="OBJECT",
                         help="raw query JSON object (overrides the "
                              "flag form)")
    add_perf_flags(query_p)
    add_context_flags(query_p)
    add_obs_flags(query_p)
    query_p.set_defaults(fn=_cmd_query)

    fuzz_p = sub.add_parser(
        "fuzz",
        help="fuzz the cost models against the invariant oracle",
    )
    fuzz_p.add_argument("--seed", type=int, default=0, metavar="S",
                        help="scenario-stream seed (default: 0); "
                             "scenario i of seed S is identical "
                             "across runs and --jobs fan-outs")
    fuzz_p.add_argument("--budget", type=int, default=200,
                        metavar="N",
                        help="number of scenarios to check "
                             "(default: 200)")
    fuzz_p.add_argument("-j", "--jobs", type=int, default=1,
                        metavar="N",
                        help="check scenarios on N processes "
                             "(work-stealing pool; results and "
                             "counter dumps match --jobs 1)")
    fuzz_p.add_argument("--device", "--devices", dest="devices",
                        action="append", default=None,
                        metavar="NAME[,NAME]",
                        help="device pool scenarios draw lineups "
                             "from (default: every registered "
                             "device)")
    fuzz_p.add_argument("--repro-dir", default=None, metavar="DIR",
                        dest="repro_dir",
                        help="write one shrunk repro-*.jsonl per "
                             "violating scenario here")
    fuzz_p.add_argument("--max-repros", type=int, default=5,
                        metavar="N", dest="max_repros",
                        help="shrink at most N violating scenarios "
                             "(default: 5)")
    fuzz_p.add_argument("--no-shrink", action="store_true",
                        dest="no_shrink",
                        help="write repros without minimizing them")
    fuzz_p.add_argument("--replay", default=None, metavar="FILE",
                        help="re-check a repro file instead of "
                             "fuzzing; exits 1 if it still "
                             "reproduces")
    add_obs_flags(fuzz_p)
    fuzz_p.set_defaults(fn=_cmd_fuzz)
    return p


def main(argv: Optional[Sequence[str]] = None) -> int:
    # One BLAS thread per process.  BLAS helper threads spin for work
    # and cost more CPU than they save on matmuls this small, and
    # under --jobs N they would oversubscribe the CPUs the N workers
    # already fill.  OpenBLAS (NumPy's wheels), OpenMP and MKL read
    # these once, when numpy loads, so set them before any command
    # does; pool workers inherit them.  A value the user exported
    # wins; library callers keep their own settings.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
