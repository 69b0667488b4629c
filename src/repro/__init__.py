"""hopperdissect — a simulator-backed reproduction of
"Benchmarking and Dissecting the Nvidia Hopper GPU Architecture"
(Luo et al., IPDPS 2024).

The package models the paper's three GPUs — Ampere (A100 PCIe), Ada
Lovelace (RTX 4090) and Hopper (H800 PCIe) — and two lineage devices,
Volta (V100) and Blackwell (B200), at the level the paper's
microbenchmarks probe them:

* :mod:`repro.arch` — device specifications and the clock model.
* :mod:`repro.numerics` — bit-accurate low-precision float/int codecs
  (FP16, BF16, TF32, FP8-E4M3/E5M2, INT8, INT4).
* :mod:`repro.isa` — PTX instruction model and per-architecture
  PTX → SASS lowering (Table VI).
* :mod:`repro.memory` — set-associative caches, banked shared memory,
  DRAM and TLB models plus a P-chase driver (Tables IV, V).
* :mod:`repro.sm` — occupancy, block scheduling and the roofline.
* :mod:`repro.tensorcore` — functional and timing models of ``mma`` /
  ``wgmma`` dense and 2:4-sparse tensor-core instructions
  (Tables VII–X).
* :mod:`repro.dpx` — the DPX dynamic-programming instruction family,
  hardware-accelerated on Hopper and emulated elsewhere (Figs 6, 7).
* :mod:`repro.asynccopy` — ``cp.async``/TMA pipelines and the
  globalToShmemAsyncCopy study (Tables XIII, XIV).
* :mod:`repro.dsm` — thread-block clusters and the SM-to-SM network:
  ring-based copy and the DSM histogram application (Figs 8, 9).
* :mod:`repro.te` — a Transformer-Engine analogue with real FP8
  quantisation and an LLM decode cost model (Figs 3–5, Table XII).
* :mod:`repro.power` — activity-based power/energy model (Table XI).
* :mod:`repro.core` — the experiment harness that regenerates every
  table and figure and checks the paper's qualitative findings.

Quickstart::

    from repro import get_device
    from repro.core import run_experiment

    h800 = get_device("H800")
    table4 = run_experiment("table04_mem_latency")
    print(table4.render())
"""

from __future__ import annotations

from repro.arch import DeviceSpec, get_device, list_devices

__all__ = ["DeviceSpec", "get_device", "list_devices", "__version__"]

__version__ = "1.0.0"
