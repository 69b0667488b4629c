"""Seeded scenario generation.

A :class:`Scenario` is one fuzz case: a device lineup plus a batch of
:class:`~repro.serve.schema.Query` objects mixing kernel sweeps,
(batch, seq) grids, precisions, cluster sizes and deliberate
capability gaps.  :class:`ScenarioGenerator` derives every scenario
from ``(seed, index)`` alone via :class:`random.Random` — no
Hypothesis at runtime, no global RNG state — so scenario *i* of seed
*S* is identical across runs, platforms and ``--jobs`` fan-outs, and
a shrunk repro can name its origin exactly.

The generator plants *structured* families on purpose: monotone
chains (a te.linear ``m``-chain, a memory-latency footprint chain, a
wgmma ``n``-chain, a DSM cluster-size ladder) give the oracle
something to check beyond "did it crash", and queries for
capabilities the device lacks (wgmma on Volta, FP8 on Ampere) pin the
"always ``unsupported``, never a raise" contract.  Chains carry no
side-channel metadata — the oracle re-derives them by grouping
queries on their fixed parameters, which is what keeps a shrunk
subset checkable by the same code path.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.arch import get_device, list_devices
from repro.serve.schema import Query

__all__ = ["Scenario", "ScenarioGenerator"]

_PRECISIONS = ("fp32", "fp16", "bf16", "fp8")
_LLM_MODELS = ("llama-3B", "llama-2-7B", "llama-2-13B")
_STRIDES = (128, 4096)
_MMA_AB = ("fp16", "bf16", "tf32", "int8")
_WGMMA_AB = ("fp16", "bf16", "tf32", "e4m3", "int8")
_ACCUM = {"fp16": ("fp16", "fp32"), "bf16": ("fp32",),
          "tf32": ("fp32",), "int8": ("int32",),
          "e4m3": ("fp16", "fp32")}
_WGMMA_N = (8, 16, 32, 64, 128, 256)
#: legal PTX mma shapes per input dtype (paper Table VII grid)
_MMA_SHAPES = {
    "fp16": ((16, 8, 8), (16, 8, 16)),
    "bf16": ((16, 8, 8), (16, 8, 16)),
    "tf32": ((16, 8, 4), (16, 8, 8)),
    "int8": ((16, 8, 16), (16, 8, 32)),
}


@dataclass(frozen=True)
class Scenario:
    """One reproducible fuzz case."""

    index: int
    seed: int
    devices: Tuple[str, ...]
    queries: Tuple[Query, ...]


class ScenarioGenerator:
    """Derives scenarios from ``(seed, index)``; nothing else."""

    def __init__(self, seed: int,
                 devices: Optional[Sequence[str]] = None) -> None:
        self.seed = int(seed)
        names = tuple(devices) if devices else tuple(list_devices())
        self.devices = tuple(get_device(n).name for n in names)
        if not self.devices:
            raise ValueError("fuzz needs at least one device")

    # -- per-scenario RNG ---------------------------------------------------

    def _rng(self, index: int) -> random.Random:
        # string seeding hashes with sha512 (seed version 2):
        # deterministic across processes and platforms, unlike
        # hash()-based tuple seeding under PYTHONHASHSEED
        return random.Random(f"hopperdissect.fuzz:{self.seed}:{index}")

    # -- query families -----------------------------------------------------

    def _linear_chain(self, rng: random.Random, dev: str) -> List[Query]:
        prec = rng.choice(_PRECISIONS)
        n = rng.choice((256, 1024, 4096))
        k = rng.choice((256, 1024, 4096))
        base = rng.randrange(1, 2048)
        ms = sorted({base * (i + 1) for i in range(rng.randrange(3, 6))})
        return [Query(kind="te.linear", device=dev, precision=prec,
                      params=(("m", m), ("n", n), ("k", k)))
                for m in ms]

    def _latency_chain(self, rng: random.Random, dev: str) -> List[Query]:
        stride = rng.choice(_STRIDES)
        lo = rng.randrange(1, 64)
        foots = sorted({lo * (1 << i)
                        for i in range(rng.randrange(3, 6))
                        if lo * (1 << i) <= 1024})
        return [Query(kind="memory.latency", device=dev,
                      params=(("footprint_kib", f),
                              ("stride_bytes", stride)))
                for f in foots]

    def _wgmma_chain(self, rng: random.Random, dev: str) -> List[Query]:
        ab = rng.choice(_WGMMA_AB)
        cd = rng.choice(_ACCUM[ab])
        src = rng.choice(("ss", "rs"))
        ns = sorted(rng.sample(_WGMMA_N, rng.randrange(2, 5)))
        return [Query(kind="wgmma", device=dev,
                      params=(("ab", ab), ("cd", cd), ("n", n),
                              ("a_source", src)))
                for n in ns]

    def _dsm_ladder(self, rng: random.Random, dev: str) -> List[Query]:
        top = get_device(dev).max_cluster_size
        sizes = sorted({cs for cs in (1, 2, 4, 8, 16) if cs <= top})
        if len(sizes) > 2:
            sizes = sorted(rng.sample(sizes, rng.randrange(2, len(sizes) + 1)))
        return [Query(kind="dsm.bandwidth", device=dev,
                      params=(("cluster_size", cs),))
                for cs in sizes]

    def _mma_points(self, rng: random.Random, dev: str) -> List[Query]:
        out = []
        for _ in range(rng.randrange(1, 4)):
            ab = rng.choice(_MMA_AB)
            cd = rng.choice(_ACCUM[ab])
            m, n, k = rng.choice(_MMA_SHAPES[ab])
            out.append(Query(kind="mma", device=dev,
                             params=(("ab", ab), ("cd", cd),
                                     ("m", m), ("n", n), ("k", k))))
        return out

    def _llm_points(self, rng: random.Random, dev: str) -> List[Query]:
        model = rng.choice(_LLM_MODELS)
        prec = rng.choice(_PRECISIONS)
        batch = rng.choice((1, 4, 8, 16, 64))
        seq = rng.choice((128, 512, 2048))
        return [Query(kind="llm.generate", device=dev, precision=prec,
                      params=(("model", model), ("batch", batch),
                              ("input_len", seq),
                              ("output_len", seq)))]

    def _capability_gaps(self, rng: random.Random, dev: str) -> List[Query]:
        """Questions the device may have to decline — the oracle pins
        that declining is a structured answer, never an exception."""
        out = [Query(kind="wgmma", device=dev,
                     params=(("ab", "fp16"), ("cd", "fp32"),
                             ("n", rng.choice(_WGMMA_N))))]
        if rng.random() < 0.5:
            out.append(Query(kind="te.linear", device=dev,
                             precision="fp8",
                             params=(("m", 1024), ("n", 1024),
                                     ("k", 1024))))
        if rng.random() < 0.5:
            out.append(Query(kind="dsm.bandwidth", device=dev,
                             params=(("cluster_size", 2),)))
        return out

    _FAMILIES = ("linear", "latency", "wgmma", "dsm", "mma", "llm",
                 "gaps")

    def scenario(self, index: int) -> Scenario:
        rng = self._rng(index)
        k = min(len(self.devices), rng.randrange(1, 4))
        lineup = tuple(sorted(rng.sample(self.devices, k)))
        queries: List[Query] = []
        families = rng.sample(self._FAMILIES,
                              rng.randrange(2, len(self._FAMILIES) + 1))
        for fam in sorted(families):
            dev = rng.choice(lineup)
            fn = {
                "linear": self._linear_chain,
                "latency": self._latency_chain,
                "wgmma": self._wgmma_chain,
                "dsm": self._dsm_ladder,
                "mma": self._mma_points,
                "llm": self._llm_points,
                "gaps": self._capability_gaps,
            }[fam]
            queries.extend(fn(rng, dev))
        return Scenario(index=index, seed=self.seed, devices=lineup,
                        queries=tuple(queries))

    def generate(self, budget: int) -> Iterator[Scenario]:
        """The first ``budget`` scenarios of this seed, in order."""
        for index in range(budget):
            yield self.scenario(index)
