"""Device architecture registry.

This subpackage holds the architectural ground truth the rest of the
simulator derives behaviour from: SM counts, clock domains, cache
geometry, per-unit widths and — via :mod:`repro.arch.packs` — the
per-generation capability flags and calibration tables that
distinguish Volta, Ampere, Ada Lovelace, Hopper and Blackwell
(Table III of the paper, extended).

Only *primitive* quantities live here — published spec-sheet values and
single-number microbenchmark calibrations (e.g. an L1 hit latency).
Composite results (sweep shapes, ratios, crossovers) are computed by the
subsystem models, never stored.
"""

from __future__ import annotations

from repro.arch.packs import (
    ArchPack,
    AsyncCopyCalibration,
    DsmCalibration,
    MmaCalibration,
    PackValidationError,
    PowerCalibration,
    WgmmaCalibration,
    validate_pack,
)
from repro.arch.specs import (
    CacheGeometry,
    ClockDomain,
    DeviceSpec,
    DramSpec,
    MemoryLatencies,
    MemoryWidths,
    TensorCoreSpec,
)
from repro.arch.registry import (
    PAPER_DEVICES,
    get_device,
    list_devices,
    register_device,
    DEVICES,
)

__all__ = [
    "ArchPack",
    "AsyncCopyCalibration",
    "CacheGeometry",
    "ClockDomain",
    "DeviceSpec",
    "DramSpec",
    "DsmCalibration",
    "MemoryLatencies",
    "MemoryWidths",
    "MmaCalibration",
    "PackValidationError",
    "PowerCalibration",
    "TensorCoreSpec",
    "WgmmaCalibration",
    "PAPER_DEVICES",
    "get_device",
    "list_devices",
    "register_device",
    "validate_pack",
    "DEVICES",
]
