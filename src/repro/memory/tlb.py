"""A simple LRU TLB.

The paper's global-latency benchmark initialises its buffer before
timing *"to warm up the TLB to avoid the occurrence of cold misses"*
(§III-A4).  The model exists so the P-chase driver can demonstrate both
regimes: a cold chase pays ``tlb_miss_clk`` per new page; a warmed chase
pays nothing.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence, Union

import numpy as np

__all__ = ["Tlb"]


class Tlb:
    """LRU translation lookaside buffer."""

    def __init__(self, entries: int = 512,
                 page_bytes: int = 2 * 1024 * 1024) -> None:
        if entries <= 0 or page_bytes <= 0:
            raise ValueError("entries and page_bytes must be positive")
        self.entries = entries
        self.page_bytes = page_bytes
        self._pages: "OrderedDict[int, None]" = OrderedDict()

    def access(self, addr: int) -> bool:
        """Translate ``addr``; returns True on a TLB hit."""
        page = addr // self.page_bytes
        if page in self._pages:
            self._pages.move_to_end(page)
            return True
        self._pages[page] = None
        if len(self._pages) > self.entries:
            self._pages.popitem(last=False)
        return False

    def access_many(self, addrs: Union[Sequence[int], np.ndarray]) \
            -> np.ndarray:
        """Batched :meth:`access` — per-access hit booleans, identical
        to sequential calls.

        Runs of one page collapse first (the head decides, the repeats
        are guaranteed hits), so the sorts below scale with the page
        runs, not the accesses; a batch inside one page is one run.
        When every touched page is already resident nothing can be
        evicted, so the whole batch hits and only the recency order
        needs fixing: each touched page moves to the MRU end in order
        of its *last* run.  Otherwise the run heads replay through
        :meth:`access`.
        """
        a = np.ascontiguousarray(addrs, dtype=np.int64)
        n = len(a)
        hits = np.empty(n, dtype=bool)
        if not n:
            return hits
        page = int(a[0]) // self.page_bytes
        if int(a.min()) // self.page_bytes == page \
                == int(a.max()) // self.page_bytes:
            # one page (every probe chase): its first access decides
            hits.fill(True)
            hits[0] = self.access(page * self.page_bytes)
            return hits
        pages = a // self.page_bytes
        starts = np.flatnonzero(np.r_[True, pages[1:] != pages[:-1]])
        heads = pages[starts]
        resident = self._pages
        if all(p in resident for p in set(heads.tolist())):
            hits.fill(True)
            rev_uniq, rev_idx = np.unique(heads[::-1],
                                          return_index=True)
            last = len(heads) - 1 - rev_idx   # last run per page
            for p in rev_uniq[np.argsort(last)].tolist():
                resident.move_to_end(p)
            return hits
        ends = np.r_[starts[1:], n]
        for s, e, page in zip(starts.tolist(), ends.tolist(),
                              heads.tolist()):
            hits[s] = self.access(page * self.page_bytes)
            if e > s + 1:
                hits[s + 1:e] = True
        return hits

    def warm(self, base: int, size: int) -> None:
        """Touch every page of [base, base+size)."""
        page = base // self.page_bytes
        last = (base + max(size - 1, 0)) // self.page_bytes
        for p in range(page, last + 1):
            self.access(p * self.page_bytes)

    def flush(self) -> None:
        self._pages.clear()

    @property
    def resident_pages(self) -> int:
        return len(self._pages)

    def state_digest(self) -> bytes:
        """Digest of the resident pages *in recency order* — the full
        behavioural state of an LRU TLB."""
        import hashlib

        arr = np.fromiter(self._pages.keys(), dtype=np.int64,
                          count=len(self._pages))
        return hashlib.blake2b(arr.tobytes(), digest_size=16).digest()
