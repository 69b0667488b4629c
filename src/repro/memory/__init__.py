"""GPU memory-hierarchy simulator.

Implements the substrate beneath the paper's §III-A experiments:

* :mod:`repro.memory.cache` — sectored set-associative caches (L1, L2),
* :mod:`repro.memory.shared` — banked shared memory with a conflict
  model and real byte-addressable storage,
* :mod:`repro.memory.dram` — the off-chip channel (latency + sustained
  bandwidth derived from refresh/turnaround mechanics),
* :mod:`repro.memory.tlb` — an LRU TLB,
* :mod:`repro.memory.hierarchy` — the per-device façade that routes
  loads through L1 → L2 → DRAM honouring PTX cache operators,
* :mod:`repro.memory.chase` — the steady-state pointer-chase engine
  (periodic streams detected at a fixed point and extrapolated
  exactly),
* :mod:`repro.memory.pchase` — the pointer-chase latency benchmark
  (Table IV),
* :mod:`repro.memory.throughput` — sustained-throughput models per
  level and data type (Table V).
"""

from __future__ import annotations

from repro.memory.cache import CacheStats, SetAssociativeCache
from repro.memory.shared import BankConflictReport, SharedMemory
from repro.memory.dram import DramChannel
from repro.memory.tlb import Tlb
from repro.memory.hierarchy import (
    AccessResult,
    BatchAccessResult,
    MemoryHierarchy,
    MemLevel,
)
from repro.memory.chase import (
    ChaseEngine,
    ChaseStats,
    chase_total_clk,
    latency_counts,
)
from repro.memory.pchase import PChase, PChaseResult, measure_latencies
from repro.memory.throughput import (
    MemoryThroughputModel,
    ThroughputResult,
    measure_throughputs,
)
from repro.memory.cache_study import CacheProbe, DetectedParameters

__all__ = [
    "SetAssociativeCache",
    "CacheStats",
    "SharedMemory",
    "BankConflictReport",
    "DramChannel",
    "Tlb",
    "MemoryHierarchy",
    "MemLevel",
    "AccessResult",
    "BatchAccessResult",
    "ChaseEngine",
    "ChaseStats",
    "chase_total_clk",
    "latency_counts",
    "PChase",
    "PChaseResult",
    "measure_latencies",
    "MemoryThroughputModel",
    "ThroughputResult",
    "measure_throughputs",
    "CacheProbe",
    "DetectedParameters",
]
