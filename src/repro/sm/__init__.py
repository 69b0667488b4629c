"""Streaming-multiprocessor execution model.

* :mod:`repro.sm.occupancy` — how many blocks/warps fit on an SM given
  threads, registers and shared memory (drives Fig 9's Nbins story and
  the resident blocks of Tables XIII/XIV),
* :mod:`repro.sm.scheduler` — the wave-based block scheduler (drives
  Fig 7's throughput sawtooth at SM-count multiples),
* :mod:`repro.sm.kernel` and :mod:`repro.sm.roofline` — a kernel's
  per-thread work and its place on a device's roofline (the
  ``ext_roofline`` experiment).
"""
from __future__ import annotations

from repro.sm.occupancy import BlockConfig, Occupancy, occupancy
from repro.sm.scheduler import KernelLaunch, ScheduleResult, schedule_blocks
from repro.sm.kernel import KernelSpec
from repro.sm.roofline import Roofline, RooflinePoint

__all__ = [
    "KernelSpec",
    "Roofline",
    "RooflinePoint",
    "BlockConfig",
    "Occupancy",
    "occupancy",
    "KernelLaunch",
    "ScheduleResult",
    "schedule_blocks",
]
