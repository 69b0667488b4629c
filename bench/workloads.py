"""The benchmark's workloads and the seeded serve batch they share.

A workload is a closed loop with one client: each ``python -m
repro.cli`` invocation starts when the previous one has exited.  Set-up
runs a reference invocation three times, each in a fresh cache
directory; its output is what every timed iteration must reproduce byte
for byte, and for the ``*-warm`` workloads its cache directory is the
one the iterations read.

The program only ever sees the generated ``batch.jsonl``; the seed
stays on this side.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: the registered devices, in lineage order
DEVICES = ("V100", "RTX4090", "A100", "H800", "B200")
#: devices with an SM-to-SM network, and their largest cluster
DSM_MAX_CLUSTER = {"H800": 16, "B200": 16}

PRECISIONS = ("fp32", "fp16", "bf16", "fp8")
LLM_MODELS = ("llama-3B", "llama-2-7B", "llama-2-13B")
#: legal (ab, cd) pairs and dense shapes of warp-level mma
MMA_TYPES = (("fp16", "fp16"), ("fp16", "fp32"), ("bf16", "fp32"),
             ("tf32", "fp32"), ("int8", "int32"))
MMA_SHAPES = {"fp16": ((16, 8, 8), (16, 8, 16)),
              "bf16": ((16, 8, 8), (16, 8, 16)),
              "tf32": ((16, 8, 4), (16, 8, 8)),
              "int8": ((16, 8, 16), (16, 8, 32))}
WGMMA_TYPES = MMA_TYPES + (("e4m3", "fp16"), ("e4m3", "fp32"))
#: chase footprints spanning L1, L2 and DRAM on every device
FOOTPRINTS_KIB = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096)
#: cheap experiment families asked for without a device
FAMILY_QUERIES = (("table03_devices", 0), ("table06_sass", 0),
                  ("fig08_dsm_rbc", 1))

# Unique questions per device.  The composition is fixed so that every
# seed asks for the same amount of work; the seed picks the sizes,
# precisions, spellings and order.
TE_LINEAR_PER_DEVICE = 180
LLM_PER_DEVICE = 16
WGMMA_PER_DEVICE = 48
REPEATED_SHARE = 0.30
MALFORMED_SHARE = 0.01


@dataclass(frozen=True)
class Batch:
    """One generated ``batch.jsonl``: its lines, which of them repeat
    an earlier question and which are deliberately malformed."""

    lines: Tuple[str, ...]
    repeated: int
    malformed: Tuple[int, ...]

    @property
    def text(self) -> str:
        return "\n".join(self.lines) + "\n"

    @property
    def sha256(self) -> str:
        return hashlib.sha256(self.text.encode()).hexdigest()

    def summary(self) -> Dict[str, object]:
        n = len(self.lines)
        return {"lines": n, "repeated": self.repeated,
                "repeated_frac": self.repeated / n,
                "malformed": len(self.malformed), "sha256": self.sha256}


def _unique_queries(rng: random.Random) -> List[dict]:
    """Distinct well-formed questions: every kind, every device."""
    out: List[dict] = []

    def distinct(count: int, draw: Callable[[], dict]) -> None:
        seen = set()
        while len(seen) < count:
            q = draw()
            key = json.dumps(q, sort_keys=True)
            if key not in seen:
                seen.add(key)
                out.append(q)

    for dev in DEVICES:
        distinct(TE_LINEAR_PER_DEVICE, lambda: {
            "kind": "te.linear", "device": dev,
            "precision": rng.choice(PRECISIONS),
            "params": {"m": rng.randrange(1, 8193),
                       "n": rng.choice((256, 1024, 4096, 8192)),
                       "k": rng.choice((256, 1024, 4096, 8192))}})
        distinct(LLM_PER_DEVICE, lambda: {
            "kind": "llm.generate", "device": dev,
            "precision": rng.choice(PRECISIONS),
            "params": {"model": rng.choice(LLM_MODELS),
                       "batch": rng.choice((1, 4, 16, 64, 256)),
                       "input_len": rng.choice((128, 512, 2048)),
                       "output_len": rng.choice((128, 512, 2048))}})
        for ab, cd in MMA_TYPES:
            for m, n, k in MMA_SHAPES[ab]:
                for sparse in (False, True):
                    out.append({"kind": "mma", "device": dev,
                                "params": {"ab": ab, "cd": cd, "m": m,
                                           "n": n, "k": k,
                                           "sparse": sparse}})
        distinct(WGMMA_PER_DEVICE, lambda: {
            "kind": "wgmma", "device": dev,
            "params": dict(zip(("ab", "cd"), rng.choice(WGMMA_TYPES)),
                           n=8 * rng.randrange(1, 33),
                           sparse=rng.random() < 0.5,
                           a_source=rng.choice(("ss", "rs")))})
        for kib in FOOTPRINTS_KIB:
            out.append({"kind": "memory.latency", "device": dev,
                        "params": {"footprint_kib": kib,
                                   "stride_bytes": 128}})
        # devices without the fabric answer "unsupported"
        sizes = range(1, DSM_MAX_CLUSTER[dev] + 1) \
            if dev in DSM_MAX_CLUSTER else (2, 4)
        for cs in sizes:
            out.append({"kind": "dsm.bandwidth", "device": dev,
                        "params": {"cluster_size": cs}})
    for name, seed in FAMILY_QUERIES:
        out.append({"kind": "experiment",
                    "params": {"name": name, "seed": seed}})
    return out


def _shuffled(obj: dict, rng: random.Random) -> dict:
    keys = list(obj)
    rng.shuffle(keys)
    return {k: _shuffled(obj[k], rng) if isinstance(obj[k], dict)
            else obj[k] for k in keys}


def _respell(query: dict, qid: str, rng: random.Random) -> str:
    """The same question in another spelling: key order, client tag
    and the case of the device and precision."""
    q = dict(query, id=qid)
    if "device" in q and rng.random() < 0.5:
        q["device"] = q["device"].lower()
    if "precision" in q and rng.random() < 0.5:
        q["precision"] = q["precision"].upper()
    return json.dumps(_shuffled(q, rng), separators=(",", ":"))


#: malformed request lines, each answered ``status="error"`` in-stream
_MALFORMED = (
    lambda dev: '{"kind":"mma","device":"' + dev + '","params":{"ab"',
    lambda dev: json.dumps({"kind": "te.conv", "device": dev}),
    lambda dev: json.dumps({"kind": "te.linear", "device": dev,
                            "precision": "fp16",
                            "params": {"m": 64, "n": 64, "k": 64,
                                       "batch": 4}}),
    lambda dev: json.dumps({"kind": "mma", "device": dev,
                            "params": {"ab": "fp16", "cd": "fp32",
                                       "m": 16, "n": 8}}),
    lambda dev: json.dumps({"kind": "wgmma", "device": "H900",
                            "params": {"ab": "fp16", "cd": "fp32",
                                       "n": 64}}),
    lambda dev: json.dumps({"kind": "memory.latency", "device": dev,
                            "params": {"footprint_kib": "64"}}),
    lambda dev: json.dumps({"kind": "te.linear", "device": dev,
                            "params": {"m": 64, "n": 64, "k": 64}}),
    lambda dev: "[1, 2, 3]",
)


def make_batch(seed: int) -> Batch:
    """The serve batch for ``seed``; the same seed gives the same
    bytes."""
    rng = random.Random(f"hopperdissect.bench:{seed}")
    unique = _unique_queries(rng)
    originals = [json.dumps(dict(q, id=f"q{i}"), separators=(",", ":"))
                 for i, q in enumerate(unique)]
    total = round(len(unique) / (1 - REPEATED_SHARE - MALFORMED_SHARE))
    n_repeated = round(total * REPEATED_SHARE)
    repeats = []
    for j in range(n_repeated):
        i = rng.randrange(len(unique))
        if rng.random() < 0.5:
            repeats.append(originals[i])
        else:
            repeats.append(_respell(unique[i], f"r{j}", rng))
    entries = [(line, False) for line in originals + repeats]
    rng.shuffle(entries)
    for j in range(total - len(entries)):
        bad = _MALFORMED[j % len(_MALFORMED)](rng.choice(DEVICES))
        entries.insert(rng.randrange(len(entries) + 1), (bad, True))
    return Batch(lines=tuple(line for line, _ in entries),
                 repeated=n_repeated,
                 malformed=tuple(i for i, (_, bad) in enumerate(entries)
                                 if bad))


# -- workloads ----------------------------------------------------------------

#: ``argv(seed, batch_path)`` → the hopperdissect arguments
Argv = Callable[[int, str], List[str]]


def _run_all(seed: int, _batch: str) -> List[str]:
    return ["run", "--all", "--seed", str(seed)]


def _no_cache(argv: Argv) -> Argv:
    return lambda seed, batch: argv(seed, batch) + ["--no-cache"]


def _report(jobs: int) -> Argv:
    return lambda seed, _batch: [
        "report", "--no-cache", "--fidelity", "full",
        "--devices", ",".join(DEVICES), "--jobs", str(jobs),
        "--seed", str(seed)]


def _serve(_seed: int, batch: str) -> List[str]:
    return ["serve", "-i", batch]


def _query_mma(_seed: int, _batch: str) -> List[str]:
    return ["query", "mma", "-d", "A100", "-p", "ab=fp16", "-p",
            "cd=fp32", "-p", "m=16", "-p", "n=8", "-p", "k=16"]


def _query_latency(_seed: int, _batch: str) -> List[str]:
    return ["query", "memory.latency", "-d", "H800", "-p",
            "footprint_kib=1024"]


@dataclass(frozen=True)
class Workload:
    """What set-up and one iteration of a workload run.

    ``invocations`` run in order in one iteration; the first is the
    primary, whose wall time is ``wall_s``.  ``reference`` runs in
    set-up; its output is the expected output of the primary.  With
    ``warm`` the iterations reuse set-up's cache directory, otherwise
    each iteration starts from an empty one.  ``serve`` workloads read
    the generated batch.  With ``pool`` the reference is the primary
    run serially: their wall times give the pool's speed-up, and the
    traced run uses it, because spans inside pool workers are lost.
    """

    name: str
    invocations: Tuple[Argv, ...]
    reference: Argv
    warm: bool = False
    serve: bool = False
    pool: bool = False

    def argvs(self, seed: int, batch: str,
              traced: bool = False) -> List[List[str]]:
        fns = list(self.invocations)
        if traced and self.pool:
            fns[0] = self.reference
        return [fn(seed, batch) for fn in fns]


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("reproduce-cold", (_run_all,), _no_cache(_run_all)),
    Workload("reproduce-warm", (_run_all,), _run_all, warm=True),
    Workload("fleet-full", (_report(2),), _report(1), pool=True),
    Workload("serve-cold", (_serve, _query_mma, _query_latency),
             _no_cache(_serve), serve=True),
    Workload("serve-warm", (_serve,), _serve, warm=True, serve=True),
)}


# -- output checks ------------------------------------------------------------

def output_failures(argv: Sequence[str], exit_code: int, stdout: bytes,
                    expected_sha256: Optional[str] = None,
                    batch: Optional[Batch] = None) -> List[str]:
    """Why one invocation counts as failed (empty when it passed)."""
    why = []
    if exit_code != 0:
        why.append(f"exit code {exit_code}")
    passed, total = findings(stdout)
    if passed < total:
        why.append(f"{total - passed} of {total} finding checks failed")
    if expected_sha256 is not None \
            and hashlib.sha256(stdout).hexdigest() != expected_sha256:
        why.append("output differs from the reference output")
    if batch is not None and argv and argv[0] == "serve":
        why.extend(_serve_failures(
            stdout.decode("utf-8", errors="replace").splitlines(),
            batch))
    return why


def findings(stdout: bytes) -> Tuple[int, int]:
    """(passed, total) finding checks: ``[PASS]``/``[FAIL]`` lines of
    ``run``, or the ``**Summary: P/T`` line of ``report``."""
    passed = total = 0
    for line in stdout.decode("utf-8", errors="replace").splitlines():
        if line.startswith(("[PASS]", "[FAIL]")):
            total += 1
            passed += line.startswith("[PASS]")
        elif line.startswith("**Summary: "):
            p, _, rest = line[len("**Summary: "):].partition("/")
            t = rest.split(" ", 1)[0]
            # an unreadable summary counts as one failed check
            passed, total = (int(p), int(t)) \
                if p.isdigit() and t.isdigit() else (0, 1)
    return passed, total


def _serve_failures(lines: List[str], batch: Batch) -> List[str]:
    if len(lines) != len(batch.lines):
        return [f"{len(lines)} answers for {len(batch.lines)} lines"]
    malformed = set(batch.malformed)
    why = []
    for i, line in enumerate(lines):
        try:
            status = json.loads(line).get("status")
        except (json.JSONDecodeError, AttributeError):
            status = None
        if (status == "error") != (i in malformed):
            why.append(f"line {i} answered {status!r}")
    return why


def answers(workload: Workload, stdout: bytes) -> int:
    """How many answers the primary invocation gave: predictions for
    serve, experiment results for run and report."""
    lines = stdout.decode("utf-8", errors="replace").splitlines()
    if workload.serve:
        return len(lines)
    # each result table's title is underlined with "=" (run) or
    # starts a "## " section (report)
    headings = sum(1 for line in lines if line.startswith("## "))
    underlines = sum(1 for prev, line in zip(lines, lines[1:])
                     if line and set(line) == {"="}
                     and len(line) == len(prev))
    return headings or underlines


def write_batch(path: Path, seed: int) -> Batch:
    batch = make_batch(seed)
    Path(path).write_text(batch.text)
    return batch
