"""Sequence alignment on DPX intrinsics.

Smith-Waterman (local) and Needleman-Wunsch (global) alignment with
linear gap penalties.  The recurrences are evaluated anti-diagonal by
anti-diagonal — the wavefront parallelisation a GPU kernel uses — with
the per-cell max chains expressed as DPX intrinsic calls:

* SW:  ``H[i,j] = relu(max(H[i-1,j-1] + s, max(H[i-1,j] - g, H[i,j-1] - g)))``
  → one ``__viaddmax_s32`` + one ``__viaddmax_s32_relu`` per cell,
* NW:  same without the ReLU clamp → two ``__viaddmax_s32``.

Scores are exact 32-bit integer DP; results are verified against naive
references in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.dpx import get_dpx_function

__all__ = ["AlignmentResult", "SmithWaterman", "NeedlemanWunsch"]

_viaddmax = get_dpx_function("__viaddmax_s32")
_viaddmax_relu = get_dpx_function("__viaddmax_s32_relu")


@dataclass(frozen=True)
class AlignmentResult:
    """Outcome of one alignment."""

    score: int
    dpx_calls: int
    cells: int
    matrix: Optional[np.ndarray] = None

    @property
    def dpx_calls_per_cell(self) -> float:
        return self.dpx_calls / self.cells if self.cells else 0.0


def _encode(seq: str) -> np.ndarray:
    if not seq:
        raise ValueError("sequences must be non-empty")
    return np.frombuffer(seq.encode(), dtype=np.uint8)


class _AffineBase:
    """Shared wavefront machinery for linear-gap alignment."""

    def __init__(self, match: int = 3, mismatch: int = -2,
                 gap: int = 4) -> None:
        if gap < 0:
            raise ValueError("gap is a penalty; pass it positive")
        self.match = int(match)
        self.mismatch = int(mismatch)
        self.gap = int(gap)

    def _substitution(self, av, bv, i, j) -> np.ndarray:
        return np.where(av[i - 1] == bv[j - 1], self.match,
                        self.mismatch)

    def _sweep(self, a: str, b: str, *, local: bool,
               keep_matrix: bool) -> AlignmentResult:
        av, bv = _encode(a), _encode(b)
        n, m = len(av), len(bv)
        H = np.zeros((n + 1, m + 1), dtype=np.int64)
        if not local:
            H[:, 0] = -self.gap * np.arange(n + 1)
            H[0, :] = -self.gap * np.arange(m + 1)
        calls = 0
        for d in range(2, n + m + 1):
            i_lo, i_hi = max(1, d - m), min(n, d - 1)
            if i_lo > i_hi:
                continue
            i = np.arange(i_lo, i_hi + 1)
            j = d - i
            s = self._substitution(av, bv, i, j)
            diag, up, left = H[i - 1, j - 1], H[i - 1, j], H[i, j - 1]
            gap_vec = np.full_like(up, -self.gap)
            gaps = _viaddmax(up, gap_vec, left - self.gap)
            if local:
                H[i, j] = _viaddmax_relu(diag, s, gaps)
            else:
                H[i, j] = _viaddmax(diag, s, gaps)
            calls += 2 * len(i)
        score = int(H.max()) if local else int(H[n, m])
        return AlignmentResult(
            score=score, dpx_calls=calls, cells=n * m,
            matrix=H if keep_matrix else None,
        )


class SmithWaterman(_AffineBase):
    """Local alignment (the paper's canonical DPX workload)."""

    def align(self, a: str, b: str,
              keep_matrix: bool = False) -> AlignmentResult:
        return self._sweep(a, b, local=True, keep_matrix=keep_matrix)

    def score(self, a: str, b: str) -> int:
        return self.align(a, b).score


class NeedlemanWunsch(_AffineBase):
    """Global alignment."""

    def align(self, a: str, b: str,
              keep_matrix: bool = False) -> AlignmentResult:
        return self._sweep(a, b, local=False, keep_matrix=keep_matrix)

    def score(self, a: str, b: str) -> int:
        return self.align(a, b).score
