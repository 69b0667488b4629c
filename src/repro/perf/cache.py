"""Content-addressed on-disk cache for experiment results.

An experiment's output is a pure function of (a) the ``repro`` source
and (b) the :class:`RunContext` it ran under (device sweep and seed)
plus the registered specs of those devices, each with the
:class:`~repro.arch.ArchPack` it carries.  The cache key therefore
hashes the experiment name and its builder's ``"module:function"``
path together with the package version, the context token, a digest
of the context's :class:`~repro.arch.DeviceSpec` objects, and the
**source digest**
(:func:`source_digest`): one sha256 over every ``repro/**/*.py`` path
and its bytes.  The builder's path comes from the experiment table
(:mod:`repro.core.experiments`), so deriving a key imports no builder;
it is key material because a row can be re-pointed at run time
without any source edit.

An edit to any module the digest covers re-keys every entry of both
tiers below, so no entry computed by older code is ever served.
Orchestration is left out of the digest: ``repro/perf/``,
``repro/cli.py`` and ``repro/fuzz/`` decide which builders and
queries run and how they fan out, never what they compute (the
parallel-equals-serial tests hold them to that), so editing them keeps
warm entries warm.  The tree is hashed at most once per
:class:`ResultCache` (a few ms), on its first key or blob address, so
``run --no-cache`` never hashes it.

Entries store the pickled :class:`~repro.core.tables.Table` and
:class:`~repro.core.checks.Check` tuple, *not* the
:class:`~repro.core.registry.ExperimentResult` itself: the result
holds the experiment (whose builder may be an arbitrary callable,
often unpicklable) and is re-attached from the live registry on load,
together with the context the lookup asked for (the key covers it).
Both classes pickle as plain Python data, so a hit imports no numpy
and no engine.  Corrupt or truncated files are treated as misses.
Writes go through a temp file + :func:`os.replace` so concurrent
runners never observe a partial entry.  Keys embed the context token,
so the same experiment cached under different contexts coexists on
disk.

Two extensions serve the long-running query service
(:mod:`repro.serve`):

* a **size guard** — ``max_entries`` (or
  ``$HOPPERDISSECT_CACHE_MAX_ENTRIES``) bounds the entry count with
  LRU eviction (reads refresh an entry's mtime; the oldest entries
  beyond the bound are deleted on store, counted by
  ``stats.evictions`` and the ``result_cache.eviction`` provenance
  counter), so an always-on service cannot grow the cache without
  bound;
* a **blob tier** — :meth:`ResultCache.get_blob` /
  :meth:`ResultCache.put_blob` store arbitrary pickled payloads under
  caller-supplied content keys with the same atomic-write, corrupt-
  entry and eviction discipline, which is how shard-level prediction
  entries share the experiment cache's content-addressed store.  A
  blob's address mixes the source digest into the caller's key, so
  callers key on content alone and still never read a blob stored by
  other code.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional, Tuple

from repro.core.context import DEFAULT_CONTEXT, RunContext
from repro.core.registry import ExperimentResult, get_experiment
from repro.obs import session as _obs


def _record_provenance(event: str, name: str) -> None:
    """Feed the active observability session one result-cache event
    (``result_cache.hit``/``miss``/``store`` counters + a marker)."""
    sess = _obs.ACTIVE
    if sess is None:
        return
    sess.counters.add(f"result_cache.{event}")
    if sess.tracer is not None:
        sess.tracer.instant(f"result_cache {event}: {name}",
                            cat="result_cache",
                            args={"experiment": name, "event": event})

__all__ = ["ResultCache", "ResultCacheStats", "default_cache_dir",
           "source_digest", "device_digest"]

#: bump when the on-disk payload layout changes
_SCHEMA = 5

#: orchestration, left out of the source digest (see the module
#: docstring): paths relative to the ``repro`` package
_ORCHESTRATION = ("perf/", "cli.py", "fuzz/")


def default_cache_dir() -> Path:
    """``$HOPPERDISSECT_CACHE_DIR``, else the XDG cache location."""
    env = os.environ.get("HOPPERDISSECT_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "hopperdissect"


def source_digest() -> str:
    """sha256 over every ``.py`` path of the installed ``repro`` tree
    and its bytes, orchestration left out — the source part of every
    key and blob address."""
    import repro

    root = Path(repro.__file__).resolve().parent
    h = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel.startswith(_ORCHESTRATION):
            continue
        h.update(rel.encode())
        h.update(b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def device_digest(devices: Optional[Tuple[str, ...]] = None) -> str:
    """Digest of the named device specs, their architecture packs
    included (default: all registered devices)."""
    from repro.arch import get_device, list_devices

    names = list(devices) if devices else list_devices()
    h = hashlib.sha256()
    for name in sorted(names):
        h.update(repr(get_device(name)).encode())
        h.update(b"\0")
    return h.hexdigest()


def _write_atomic(path: Path, data: bytes, prefix: str) -> None:
    """Write ``data`` to ``path`` through a temp file +
    :func:`os.replace`, so readers never observe a partial file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=prefix,
                               suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


@dataclass
class ResultCacheStats:
    """Hit/miss/store counters for one :class:`ResultCache`."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses


def env_bound(name: str, default: Optional[int]) -> Optional[int]:
    """An entry bound read from ``$name``: unset or empty means
    ``default``, an integer is the bound (``<= 0`` means unbounded,
    ``None``).  Anything else raises :class:`ValueError` naming the
    variable — a typo must not silently unbound a cache."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"${name} must be an integer, got {raw!r}") from None
    return value if value > 0 else None


@dataclass
class ResultCache:
    """Content-addressed store of experiment results.

    ``root=None`` resolves to :func:`default_cache_dir` at first use.
    ``max_entries=None`` reads ``$HOPPERDISSECT_CACHE_MAX_ENTRIES``
    (:func:`env_bound`; unset means unbounded); a positive
    bound turns on LRU eviction (see the module docstring).
    """

    root: Optional[Path] = None
    stats: ResultCacheStats = field(default_factory=ResultCacheStats)
    max_entries: Optional[int] = None
    _digest: Optional[str] = field(default=None, init=False, repr=False,
                                   compare=False)

    def __post_init__(self) -> None:
        if self.root is None:
            self.root = default_cache_dir()
        self.root = Path(self.root)
        if self.max_entries is None:
            self.max_entries = env_bound(
                "HOPPERDISSECT_CACHE_MAX_ENTRIES", None)
        if self.max_entries is not None and self.max_entries < 1:
            raise ValueError("max_entries must be positive or None")

    # -- keys ---------------------------------------------------------------

    @property
    def digest(self) -> str:
        """The :func:`source_digest` this cache keys under, hashed on
        first use."""
        if self._digest is None:
            self._digest = source_digest()
        return self._digest

    def key_for(self, name: str,
                context: Optional[RunContext] = None, *,
                devices: Optional[str] = None) -> str:
        """The full content-address of one (experiment, context).

        ``devices`` is ``device_digest(context.devices)`` when the
        caller already holds it — a caller keying many experiments
        under one context hashes the device specs once, not per key.
        """
        import repro

        ctx = DEFAULT_CONTEXT if context is None else context
        if devices is None:
            devices = device_digest(ctx.devices)
        h = hashlib.sha256()
        h.update(f"schema={_SCHEMA}\n".encode())
        h.update(f"version={repro.__version__}\n".encode())
        h.update(f"name={name}\n".encode())
        h.update(f"builder={get_experiment(name).target}\n".encode())
        h.update(f"context={ctx.token()}\n".encode())
        h.update(f"devices={devices}\n".encode())
        h.update(f"source={self.digest}\n".encode())
        return h.hexdigest()

    def path_for(self, name: str,
                 context: Optional[RunContext] = None, *,
                 key: Optional[str] = None) -> Path:
        """Where ``name``'s entry under ``context`` lives; ``key`` is
        its :meth:`key_for` when the caller already derived it."""
        if key is None:
            key = self.key_for(name, context)
        return self.root / f"{name}-{key[:20]}.pkl"

    # -- the cache protocol -------------------------------------------------

    def get(self, name: str,
            context: Optional[RunContext] = None, *,
            key: Optional[str] = None) -> Optional[ExperimentResult]:
        """Return the cached result for ``name`` under ``context``
        (default context when omitted), or ``None``.  ``key`` as in
        :meth:`path_for`."""
        ctx = DEFAULT_CONTEXT if context is None else context
        path = self.path_for(name, ctx, key=key)
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
            if (payload["schema"] != _SCHEMA
                    or payload["name"] != name):
                raise ValueError("stale payload")
            result = ExperimentResult(
                experiment=get_experiment(name),
                table=payload["table"],
                checks=tuple(payload["checks"]),
                context=ctx,
            )
        except (OSError, pickle.UnpicklingError, EOFError, KeyError,
                ValueError, AttributeError, ImportError):
            # missing, corrupt, or from an incompatible build: a miss
            self.stats.misses += 1
            _record_provenance("miss", name)
            return None
        self._touch(path)
        self.stats.hits += 1
        _record_provenance("hit", name)
        return result

    def put(self, name: str, result: ExperimentResult,
            context: Optional[RunContext] = None, *,
            key: Optional[str] = None) -> Path:
        """Store ``result`` under ``name`` + context (atomic).  ``key``
        as in :meth:`path_for`."""
        ctx = context or result.context or DEFAULT_CONTEXT
        path = self.path_for(name, ctx, key=key)
        payload = {
            "schema": _SCHEMA,
            "name": name,
            "table": result.table,
            "checks": tuple(result.checks),
        }
        _write_atomic(path, pickle.dumps(
            payload, protocol=pickle.HIGHEST_PROTOCOL),
            prefix=f".{name}-")
        self.stats.stores += 1
        _record_provenance("store", name)
        self._enforce_bound(keep=path)
        return path

    # -- the blob tier ------------------------------------------------------

    def blob_path(self, kind: str, key: str) -> Path:
        """Where a blob of ``kind`` under content ``key`` lives.  The
        address mixes the source digest into ``key``, in the same
        ``{name}-{address[:20]}.pkl`` layout the experiment tier uses,
        so :meth:`clear` and the LRU bound govern both tiers."""
        address = hashlib.sha256(
            f"source={self.digest}\nkey={key}\n".encode())
        return self.root / f"{kind}-{address.hexdigest()[:20]}.pkl"

    def get_blob(self, kind: str, key: str) -> Optional[Any]:
        """The payload stored under (``kind``, ``key``), or ``None``.
        Corrupt or mismatched entries are misses, like :meth:`get`."""
        path = self.blob_path(kind, key)
        try:
            with open(path, "rb") as fh:
                payload = pickle.load(fh)
            if (payload["schema"] != _SCHEMA
                    or payload["kind"] != kind
                    or payload["key"] != key):
                raise ValueError("stale payload")
            value = payload["value"]
        except (OSError, pickle.UnpicklingError, EOFError, KeyError,
                ValueError, AttributeError, ImportError):
            self.stats.misses += 1
            _record_provenance("miss", kind)
            return None
        self._touch(path)
        self.stats.hits += 1
        _record_provenance("hit", kind)
        return value

    def put_blob(self, kind: str, key: str, value: Any) -> Path:
        """Store a picklable ``value`` under (``kind``, ``key``)
        atomically, then enforce the LRU bound."""
        path = self.blob_path(kind, key)
        payload = {"schema": _SCHEMA, "kind": kind, "key": key,
                   "value": value}
        _write_atomic(path, pickle.dumps(
            payload, protocol=pickle.HIGHEST_PROTOCOL),
            prefix=f".{kind}-")
        self.stats.stores += 1
        _record_provenance("store", kind)
        self._enforce_bound(keep=path)
        return path

    # -- the size guard -----------------------------------------------------

    @staticmethod
    def _touch(path: Path) -> None:
        """Refresh an entry's mtime so reads count as recent use."""
        try:
            os.utime(path)
        except OSError:
            pass

    def _enforce_bound(self, keep: Optional[Path] = None) -> int:
        """Evict oldest-mtime entries beyond ``max_entries``.  The
        just-written ``keep`` path is never evicted, even under a
        pathological mtime tie.  Returns the eviction count."""
        if self.max_entries is None or not self.root.is_dir():
            return 0
        entries = []
        for p in self.root.glob("*.pkl"):
            try:
                entries.append((p.stat().st_mtime, str(p), p))
            except OSError:
                continue            # raced with another evictor
        excess = len(entries) - self.max_entries
        if excess <= 0:
            return 0
        entries.sort()              # oldest first; path breaks ties
        evicted = 0
        for _, _, p in entries:
            if evicted >= excess:
                break
            if keep is not None and p == keep:
                continue
            try:
                p.unlink()
            except OSError:
                continue
            evicted += 1
            self.stats.evictions += 1
            # session side: the result_cache.eviction provenance
            # counter only — serve.* tallies belong to the service's
            # private stats bank, never the deterministic bank
            _record_provenance("eviction", p.stem)
        return evicted

    def clear(self) -> int:
        """Delete every entry under the cache root; returns the
        count."""
        if not self.root.is_dir():
            return 0
        n = 0
        for p in self.root.glob("*.pkl"):
            p.unlink(missing_ok=True)
            n += 1
        return n
