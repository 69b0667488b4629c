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
2. **Registry coherence** — the pack's tensor-core generation matches
   each device's ``TensorCoreSpec.generation``.
3. **Golden pins** — every snapshot ``tests/test_golden_tables.py``
   owns re-renders byte-for-byte: the nine paper-device fixtures plus
   the five-device report, the fidelity report and the committed serve
   stream, so a pack edit that moves any device's number fails here.

Exit code 0 when everything validates; prints one line per layer.
CI runs this in the tier-1 job right after the test suite.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

_REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO / "src"))

from repro.arch import (  # noqa: E402
    get_device,
    list_devices,
    validate_pack,
)


def check_schemas() -> int:
    names = set()
    for dev_name in list_devices():
        pack = get_device(dev_name).pack
        validate_pack(pack)
        names.add(pack.name)
    print(f"OK: {len(names)} packs pass schema validation "
          f"({', '.join(sorted(names))})")
    return len(names)


def check_registry_coherence() -> int:
    devices = list_devices()
    for dev_name in devices:
        dev = get_device(dev_name)
        pack = dev.pack
        if pack.tensor_core_generation != dev.tensor_core.generation:
            raise AssertionError(
                f"{dev_name}: pack generation "
                f"{pack.tensor_core_generation} != spec generation "
                f"{dev.tensor_core.generation}")
    print(f"OK: {len(devices)} devices carry coherent packs")
    return len(devices)


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


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--skip-golden", action="store_true",
                    help="schema + coherence only (fast)")
    args = ap.parse_args(argv)
    check_schemas()
    check_registry_coherence()
    if not args.skip_golden:
        check_golden_pins()
    return 0


if __name__ == "__main__":
    sys.exit(main())
