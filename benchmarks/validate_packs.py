#!/usr/bin/env python
"""Validate the pack of every registered device and the golden pins.

Usage::

    PYTHONPATH=src python benchmarks/validate_packs.py
    PYTHONPATH=src python benchmarks/validate_packs.py --skip-golden

Three layers of checks, mirroring what the engines rely on:

1. **Schema** — the pack every registered device carries passes
   :func:`repro.arch.validate_pack`: all capability flags present and
   boolean, calibration tables complete for the capabilities the pack
   claims, no capability without the data the engines read for it.
2. **Golden pins** — every snapshot ``tests/test_golden_tables.py``
   owns re-renders byte-for-byte: the nine paper-device fixtures plus
   the five-device report, the fidelity report and the committed serve
   stream, so a pack edit that moves any device's number fails here.
3. **Calibration sweep** — every numeric leaf of every stock device's
   spec and pack (nested dataclass fields and mapping entries) moves
   some output.  Each leaf is bumped (floats ×1.1 and ×0.9, ints ×2
   and ÷2, a zero to one; a bump that fails validation is skipped),
   the variant is registered under the device's own name, and the
   device's outputs are recomputed: every experiment a one-device
   context supports, the device's lines of
   ``tests/golden/serve_batch.jsonl`` and, on the paper's devices,
   ``fidelity_report()``.  A leaf path that moves nothing on every
   device carrying it fails, unless :data:`INERT_LEAVES` names it with
   a reason; an entry there that does move an output fails as stale.

Exit code 0 when everything validates; prints one line per layer.
``--skip-golden`` runs the schema layer only.  CI runs this in the
tier-1 job right after the test suite.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time
from pathlib import Path
from typing import Mapping

_REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO / "src"))

from repro.arch import (  # noqa: E402
    PAPER_DEVICES,
    get_device,
    list_devices,
    register_device,
    validate_pack,
)

#: why a power-table entry moves no stock output
_UNDER_CAP = ("every stock stream that reads it stays under the power "
              "cap at ±10 %, so it throttles nothing, and no table "
              "reports its power")

#: leaf paths that no stock output exercises, each with the reason
INERT_LEAVES = {
    "cache.line_bytes":
        "stock probes stride 128 B and load 32 B sectors; no stock "
        "hit or miss changes with the line size",
    "cache.l2_associativity":
        "every stock L2 probe fits in L2 or overfills it in LRU order, "
        "so the way count changes no hit",
    "max_blocks_per_sm":
        "the async-copy grid saturates by 8 resident blocks per SM, "
        "below every stock block limit, halved or not",
    "mem_latencies.tlb_miss_clk":
        "every stock chase warms the TLB first; only the cold-TLB "
        "probe, which no output runs, pays a miss",
    **{f"pack.power.mma_energy_pj[('bf16', 'f32', {sparse})]":
       "Table XI has no BF16 row, and " + _UNDER_CAP
       for sparse in (False, True)},
    **{f"pack.power.wgmma_energy_pj[{key!r}]": _UNDER_CAP for key in (
        ("bf16", "f16", False), ("bf16", "f16", True),
        ("bf16", "f32", True), ("fp8", "f16", False),
        ("fp8", "f32", False), ("int8", "s32", False))},
}


def check_schemas() -> int:
    names = set()
    for dev_name in list_devices():
        pack = get_device(dev_name).pack
        validate_pack(pack)
        names.add(pack.name)
    print(f"OK: {len(names)} packs pass schema validation "
          f"({', '.join(sorted(names))})")
    return len(names)


def check_golden_pins() -> int:
    sys.path.insert(0, str(_REPO))
    from tests.test_golden_tables import SNAPSHOTS, drift

    for fixture in sorted(SNAPSHOTS):
        diff = drift(fixture)
        if diff:
            raise AssertionError(
                f"rendered output drifted from tests/golden/{fixture} "
                "— a pack edit moved a device's number:\n"
                + "".join(diff[:40]))
    print(f"OK: {len(SNAPSHOTS)} golden fixtures re-render "
          "byte-for-byte")
    return len(SNAPSHOTS)


# -- the calibration sweep ---------------------------------------------------
#
# A leaf path is a tuple of steps: a field name (str) or a mapping key
# wrapped in a 1-tuple.


def _leaves(obj, path=()):
    """``(path, value)`` of every numeric leaf under ``obj``."""
    if isinstance(obj, bool):
        return
    if isinstance(obj, (int, float)):
        yield path, obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _leaves(getattr(obj, f.name), path + (f.name,))
    elif isinstance(obj, Mapping):
        for key, value in obj.items():
            yield from _leaves(value, path + ((key,),))


def _label(path) -> str:
    return "".join(f"[{step[0]!r}]" if isinstance(step, tuple)
                   else f".{step}" for step in path).lstrip(".")


def _replace(obj, path, value):
    """``obj`` with the leaf at ``path`` set to ``value``; dataclass
    fields go through ``replace``, so their checks run."""
    if not path:
        return value
    step, rest = path[0], path[1:]
    if isinstance(step, tuple):
        return {**obj, step[0]: _replace(obj[step[0]], rest, value)}
    return dataclasses.replace(
        obj, **{step: _replace(getattr(obj, step), rest, value)})


def _bumps(value):
    if value == 0:
        return (type(value)(1),)
    if isinstance(value, int):
        return (value * 2, value // 2)
    return (value * 1.1, value * 0.9)


def _outputs(name):
    """A renderer for every output the sweep compares on the
    registered device ``name``."""
    from repro.core import RunContext, get_experiment, list_experiments
    from repro.core.fidelity import fidelity_report
    from repro.serve import QueryService

    ctx = RunContext(devices=(name,))
    outputs = [lambda exp=exp: get_experiment(exp).run(ctx).render()
               for exp in list_experiments()
               if get_experiment(exp).supports(ctx)]
    lines = []
    batch = _REPO / "tests" / "golden" / "serve_batch.jsonl"
    for line in batch.read_text().splitlines(keepends=True):
        try:
            query = json.loads(line)
        except ValueError:
            continue
        if isinstance(query, dict) and query.get("device") == name:
            lines.append(line)
    outputs.append(
        lambda: QueryService(cache=None).answer_lines_text(lines))
    if name in PAPER_DEVICES:
        outputs.append(lambda: fidelity_report().render())
    return outputs


def _moves_an_output(stock, path, value, baseline) -> bool:
    """Whether a valid bump of the leaf ``value`` at ``path`` changes
    any of ``baseline``'s ``(render, text)`` outputs."""
    for bumped in _bumps(value):
        try:
            register_device(_replace(stock, path, bumped), overwrite=True)
        except ValueError:          # PackValidationError included
            continue
        try:
            if any(render() != text for render, text in baseline):
                return True
        finally:
            register_device(stock, overwrite=True)
    return False


def check_calibration_sweep() -> int:
    t0 = time.perf_counter()
    moved = {}
    for name in list_devices():
        stock = get_device(name)
        timed = []
        for render in _outputs(name):
            start = time.perf_counter()
            text = render()
            timed.append((time.perf_counter() - start, render, text))
        # cheapest output first: most bumps stop at the first change
        baseline = [(render, text) for _, render, text
                    in sorted(timed, key=lambda t: t[0])]
        for path, value in _leaves(stock):
            label = _label(path)
            if not moved.get(label):
                moved[label] = _moves_an_output(stock, path, value,
                                                baseline)
    inert = sorted(p for p, m in moved.items()
                   if not m and p not in INERT_LEAVES)
    stale = sorted(p for p in INERT_LEAVES if moved.get(p, True))
    if inert or stale:
        raise AssertionError(
            "calibration sweep: "
            + "".join(f"\n  {p} moves no output on any device carrying it"
                      for p in inert)
            + "".join(f"\n  {p} is in INERT_LEAVES but moves an output "
                      "(or no device carries it)" for p in stale))
    print(f"OK: {len(moved) - len(INERT_LEAVES)} of {len(moved)} leaf "
          f"paths move an output, the other {len(INERT_LEAVES)} are "
          f"allowlisted as inert ({time.perf_counter() - t0:.0f} s)")
    return len(moved)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--skip-golden", action="store_true",
                    help="schema only (fast)")
    args = ap.parse_args(argv)
    check_schemas()
    failed = False
    for check in (() if args.skip_golden
                  else (check_golden_pins, check_calibration_sweep)):
        try:
            check()
        except AssertionError as exc:
            print(f"FAIL: {exc}")
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
