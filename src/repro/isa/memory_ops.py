"""Memory-access instruction descriptors.

The PTX memory operations the simulator's engines take as input:

* the ``ld.global`` cache operators — ``.ca`` (cache at all levels,
  used to warm L1) and ``.cg`` (cache global, L2 only; used to isolate
  L2 in the latency tests) — that the P-chase probes load with,
* TMA bulk tensor copies (Hopper ``cp.async.bulk.tensor``), priced by
  :mod:`repro.asynccopy.tma`.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = ["CacheOp", "TmaCopy"]


class CacheOp(enum.Enum):
    """PTX load cache operators (the ``.ca``/``.cg`` modifiers)."""

    CACHE_ALL = "ca"        # cache in L1 and L2
    CACHE_GLOBAL = "cg"     # cache in L2, bypass L1
    STREAMING = "cs"        # evict-first
    LAST_USE = "lu"
    VOLATILE = "cv"         # don't cache

    @property
    def allocates_l1(self) -> bool:
        return self in (CacheOp.CACHE_ALL, CacheOp.STREAMING,
                        CacheOp.LAST_USE)

    @property
    def allocates_l2(self) -> bool:
        return self is not CacheOp.VOLATILE


@dataclass(frozen=True)
class TmaCopy:
    """Hopper Tensor Memory Accelerator bulk tensor copy.

    A single descriptor-driven instruction moves a whole tile; the TMA
    engine computes addresses, so no threads are occupied during the
    transfer at all (vs one warp issuing many ``cp.async``).
    """

    tile_bytes: int

    def __post_init__(self) -> None:
        if self.tile_bytes <= 0:
            raise ValueError("tile_bytes must be positive")
