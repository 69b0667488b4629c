"""Content-addressed on-disk cache for experiment results.

An experiment's output is a pure function of (a) its builder code and
everything it transitively calls, and (b) the :class:`RunContext` it
ran under (device sweep, seed, fidelity) plus the registered specs of
those devices and the architecture packs they resolve to.  The cache
key therefore hashes the experiment name and its builder's
``"module:function"`` path together with the package version, the
context token, a digest of the context's
:class:`~repro.arch.DeviceSpec` objects and their
:class:`~repro.arch.ArchPack` objects and — the part that makes warm
caches survive edits — a digest of only the ``repro`` modules the
builder *transitively imports* (its **dependency cut**), not the whole
source tree.  The builder's module and path come from the experiment
table (:mod:`repro.core.experiments`), so deriving a key imports no
builder; the path is key material because the table itself is in no
cut.

The cut is computed statically: each module's AST is scanned for
``import``/``from`` statements (including ones nested inside
functions, which the experiment modules use liberally) and the
``repro.*`` targets are followed breadth-first.  An edit to
``repro/te/modules.py`` therefore invalidates the Transformer-Engine
experiments but leaves the memory-hierarchy entries warm.  Imports are
mapped to *submodule files*, deliberately not to the parent package's
``__init__``: a package ``__init__`` re-exports its submodules, so
routing through it would glue unrelated cuts together and undo the
point of the exercise.  For the same reason the orchestration layer
itself (``repro.perf``, ``repro.cli``) is excluded from the graph: it
fans work out and caches results but — by contract, and by the
parallel-equals-serial tests — never changes what an experiment
computes, while its runner imports ``repro.core`` wholesale and would
otherwise re-glue everything.  Builders living outside ``repro`` fall
back to the conservative whole-tree digest.

A key must cost far less than the entry it addresses, so the parses
behind the cuts are paid at most once per file and process, and on a
warm cache not at all (:class:`CacheKeys`):

* a **parse memo** shared by every cut in the process, keyed on the
  module name, the sha256 of its source and the set of module names —
  overlapping cuts parse each file once, and an edited file is simply
  a different key;
* a persisted **cut-digest index**: one JSON file in the cache root,
  ``cut-index.json``, mapping each builder module to its ``cut=``
  digest under the whole-tree digest (every ``.py`` path and its
  bytes — the value :func:`source_digest` returns).  Deriving keys
  reads and hashes the tree once; while the stored tree digest
  matches, cut digests come from the index and nothing is parsed.  Any
  edit, added or removed file changes the tree digest and drops the
  whole index; a corrupt or truncated index is ignored.  It is
  rewritten atomically, and only by :meth:`ResultCache.put` and
  :meth:`ResultCache.put_blob`, so ``--no-cache`` runs and read-only
  keyers never create it.  It is not a ``*.pkl`` entry: the LRU bound,
  the hit/miss/store tallies and the provenance counters never see
  it, and :meth:`ResultCache.clear` removes it.

A key is the same bytes whichever way its cut digest was found, so
caches filled before the index existed stay warm.

Entries store the pickled :class:`~repro.core.tables.Table` and
:class:`~repro.core.checks.Check` tuple, *not* the
:class:`~repro.core.registry.ExperimentResult` itself: the result
holds the experiment (whose builder may be an arbitrary callable,
often unpicklable) and is re-attached from the live registry on load.
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
  entries share the experiment cache's content-addressed store.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
import pickle
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

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

__all__ = ["ResultCache", "ResultCacheStats", "CacheKeys",
           "default_cache_dir", "source_digest", "device_digest",
           "dependency_cut"]

#: bump when the on-disk payload layout changes
_SCHEMA = 3

#: file name and layout version of the persisted cut-digest index
_INDEX_NAME = "cut-index.json"
_INDEX_SCHEMA = 1

#: orchestration modules kept out of dependency graphs — they decide
#: how builders run, never what they compute (see the module docstring)
_GRAPH_EXCLUDED = ("repro.perf", "repro.cli")


def _graph_excluded(module: str) -> bool:
    return any(module == p or module.startswith(p + ".")
               for p in _GRAPH_EXCLUDED)


def default_cache_dir() -> Path:
    """``$HOPPERDISSECT_CACHE_DIR``, else the XDG cache location."""
    env = os.environ.get("HOPPERDISSECT_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "hopperdissect"


def _read_source(path: Path) -> bytes:
    """Read one module's source.  Module-level so tests can stub the
    view of the tree without touching real files."""
    return Path(path).read_bytes()


def _module_index() -> Dict[str, Path]:
    """Map every importable ``repro.*`` module name to its file."""
    import repro

    root = Path(repro.__file__).resolve().parent
    index: Dict[str, Path] = {"repro": root / "__init__.py"}
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        parts = list(rel.with_suffix("").parts)
        if parts[-1] == "__init__":
            parts = parts[:-1]
        index[".".join(["repro", *parts]) if parts else "repro"] = path
    return index


def _imported_modules(module: str, source: bytes,
                      index: Dict[str, Path]) -> List[str]:
    """The ``repro.*`` modules ``module``'s source imports.

    ``from repro.pkg import name`` resolves to ``repro.pkg`` — or to
    ``repro.pkg.name`` when that is itself a module — never to parent
    packages of an explicit submodule target.  Relative imports are
    resolved against ``module``'s package.
    """
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return []
    package = module if index.get(module, Path("")).name \
        == "__init__.py" else module.rpartition(".")[0]
    found: List[str] = []

    def add(name: str) -> None:
        if (name in index and name not in found
                and not _graph_excluded(name)):
            found.append(name)

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                add(alias.name)
        elif isinstance(node, ast.ImportFrom):
            if node.level:                       # relative import
                base_parts = package.split(".")
                up = node.level - 1
                base_parts = base_parts[:len(base_parts) - up] \
                    if up else base_parts
                base = ".".join(base_parts)
                target = f"{base}.{node.module}" if node.module \
                    else base
            else:
                target = node.module or ""
            if not target.startswith("repro"):
                continue
            add(target)
            for alias in node.names:
                add(f"{target}.{alias.name}")
    return found


@dataclass(frozen=True)
class _Tree:
    """One read of the ``repro`` source tree."""

    index: Dict[str, Path]          # module name -> file
    digest: str                     # every relative path and its bytes
    names: str                      # digest of the module names


def _read_tree() -> _Tree:
    """Hash every module through :func:`_read_source`; the bytes are
    not kept, since a warm key derivation needs only the digest."""
    import repro

    root = Path(repro.__file__).resolve().parent
    index = _module_index()
    h = hashlib.sha256()
    for path in sorted(set(index.values())):
        h.update(str(path.relative_to(root)).encode())
        h.update(b"\0")
        h.update(_read_source(path))
        h.update(b"\0")
    names = hashlib.sha256("\0".join(index).encode()).hexdigest()
    return _Tree(index=index, digest=h.hexdigest(), names=names)


#: the parse memo every cut in the process shares:
#: (module, sha256 of its source, _Tree.names) -> its repro imports.
#: Keyed on content, so it never answers for an edited file; the bound
#: only matters to processes that stub many variants of the tree.
_IMPORTS_MEMO: Dict[Tuple[str, str, str], List[str]] = {}
_IMPORTS_MEMO_MAX = 4096


def _imports(module: str, tree: _Tree) -> List[str]:
    source = _read_source(tree.index[module])
    key = (module, hashlib.sha256(source).hexdigest(), tree.names)
    found = _IMPORTS_MEMO.get(key)
    if found is None:
        if len(_IMPORTS_MEMO) >= _IMPORTS_MEMO_MAX:
            _IMPORTS_MEMO.clear()
        found = _IMPORTS_MEMO[key] = _imported_modules(
            module, source, tree.index)
    return found


def _cut(module: str, tree: _Tree) -> Tuple[str, ...]:
    if module not in tree.index:
        return ()
    seen = {module}
    frontier = [module]
    while frontier:
        for dep in _imports(frontier.pop(), tree):
            if dep not in seen:
                seen.add(dep)
                frontier.append(dep)
    return tuple(sorted(seen))


def dependency_cut(module: str) -> Tuple[str, ...]:
    """Every ``repro.*`` module transitively imported by ``module``
    (inclusive), sorted — the invalidation scope of a builder."""
    return _cut(module, _read_tree())


def source_digest() -> str:
    """Digest of every ``.py`` file in the installed ``repro`` tree —
    the conservative fallback for builders outside ``repro``, and the
    validity stamp of the cut-digest index."""
    return _read_tree().digest


def device_digest(devices: Optional[Tuple[str, ...]] = None) -> str:
    """Digest of the named device specs and the architecture packs
    they resolve to (default: all registered devices).  A stock
    device's repr names its :class:`~repro.arch.Architecture` but not
    the pack registered for it, so the pack is hashed too."""
    from repro.arch import get_device, list_devices

    names = list(devices) if devices else list_devices()
    h = hashlib.sha256()
    for name in sorted(names):
        spec = get_device(name)
        h.update(repr(spec).encode())
        h.update(b"\0")
        h.update(repr(spec.pack).encode())
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


class CacheKeys:
    """Derives result-cache keys for one view of the source tree.

    The tree is hashed on first use.  Each builder module's source
    digest then comes from memory, from the cut-digest index at
    ``index_path`` when it was written for the same tree digest, or
    from the cut walked through the shared parse memo.
    ``index_path=None`` keeps everything in memory.
    """

    def __init__(self, index_path: Optional[Path] = None) -> None:
        self.index_path = index_path
        self._tree: Optional[_Tree] = None
        self._digests: Dict[str, str] = {}
        self._unsaved = False

    def key_for(self, name: str,
                context: Optional[RunContext] = None) -> str:
        """The full content-address of one (experiment, context)."""
        import repro

        ctx = DEFAULT_CONTEXT if context is None else context
        target = get_experiment(name).target
        module = target.partition(":")[0]
        h = hashlib.sha256()
        h.update(f"schema={_SCHEMA}\n".encode())
        h.update(f"version={repro.__version__}\n".encode())
        h.update(f"name={name}\n".encode())
        h.update(f"builder={target}\n".encode())
        h.update(f"context={ctx.token()}\n".encode())
        h.update(f"devices={device_digest(ctx.devices)}\n".encode())
        h.update(f"source:{self.module_digest(module)}\n".encode())
        return h.hexdigest()

    def module_digest(self, module: str) -> str:
        """``cut=<sha256>`` over ``module``'s dependency cut, or
        ``tree=<sha256>`` when ``module`` is not a ``repro`` module."""
        if self._tree is None:
            self._tree = _read_tree()
            self._digests.update(self._load(self._tree.digest))
        tree = self._tree
        if module not in self._digests:
            cut = _cut(module, tree)
            if not cut:
                self._digests[module] = f"tree={tree.digest}"
            else:
                h = hashlib.sha256()
                for dep in cut:
                    h.update(dep.encode())
                    h.update(b"\0")
                    h.update(_read_source(tree.index[dep]))
                    h.update(b"\0")
                self._digests[module] = f"cut={h.hexdigest()}"
                self._unsaved = True
        return self._digests[module]

    def _load(self, tree_digest: str) -> Dict[str, str]:
        """The stored cut digests if the index was written for
        ``tree_digest``; empty when missing, stale or unreadable."""
        if self.index_path is None:
            return {}
        try:
            payload = json.loads(self.index_path.read_bytes())
            cuts = payload["cuts"]
            if (payload["schema"] != _INDEX_SCHEMA
                    or payload["tree"] != tree_digest
                    or not all(isinstance(m, str)
                               and isinstance(d, str)
                               and d.startswith("cut=")
                               for m, d in cuts.items())):
                return {}
        except (OSError, ValueError, KeyError, TypeError,
                AttributeError):
            return {}
        return dict(cuts)

    def save(self) -> None:
        """Rewrite the index if this instance derived cut digests it
        did not load.  The index only saves work, so failing to write
        it never fails the caller."""
        if self.index_path is None or not self._unsaved:
            return
        payload = {
            "schema": _INDEX_SCHEMA,
            "tree": self._tree.digest,
            "cuts": {m: d for m, d in sorted(self._digests.items())
                     if d.startswith("cut=")},
        }
        try:
            _write_atomic(self.index_path, json.dumps(payload).encode(),
                          prefix=".cut-index-")
        except OSError:
            return
        self._unsaved = False


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


def default_max_entries() -> Optional[int]:
    """``$HOPPERDISSECT_CACHE_MAX_ENTRIES`` as an int (``0`` or unset
    meaning unbounded, the historical behaviour)."""
    raw = os.environ.get("HOPPERDISSECT_CACHE_MAX_ENTRIES", "")
    try:
        value = int(raw)
    except ValueError:
        return None
    return value if value > 0 else None


@dataclass
class ResultCache:
    """Content-addressed store of experiment results.

    ``root=None`` resolves to :func:`default_cache_dir` at first use.
    ``max_entries=None`` reads :func:`default_max_entries`; a positive
    bound turns on LRU eviction (see the module docstring).
    """

    root: Optional[Path] = None
    stats: ResultCacheStats = field(default_factory=ResultCacheStats)
    max_entries: Optional[int] = None
    _keys: CacheKeys = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.root is None:
            self.root = default_cache_dir()
        self.root = Path(self.root)
        if self.max_entries is None:
            self.max_entries = default_max_entries()
        if self.max_entries is not None and self.max_entries < 1:
            raise ValueError("max_entries must be positive or None")
        self._keys = CacheKeys(self.index_path)

    # -- keys ---------------------------------------------------------------

    @property
    def index_path(self) -> Path:
        """The cut-digest index file (see the module docstring)."""
        return self.root / _INDEX_NAME

    def key_for(self, name: str,
                context: Optional[RunContext] = None) -> str:
        """The full content-address of one (experiment, context)."""
        return self._keys.key_for(name, context)

    def path_for(self, name: str,
                 context: Optional[RunContext] = None) -> Path:
        return self.root / f"{name}-{self.key_for(name, context)[:20]}.pkl"

    # -- the cache protocol -------------------------------------------------

    def get(self, name: str,
            context: Optional[RunContext] = None) \
            -> Optional[ExperimentResult]:
        """Return the cached result for ``name`` under ``context``
        (default context when omitted), or ``None``."""
        ctx = DEFAULT_CONTEXT if context is None else context
        path = self.path_for(name, ctx)
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
                context=RunContext.from_payload(payload["context"]),
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
            context: Optional[RunContext] = None) -> Path:
        """Store ``result`` under ``name`` + context (atomic)."""
        ctx = context or result.context or DEFAULT_CONTEXT
        path = self.path_for(name, ctx)
        payload = {
            "schema": _SCHEMA,
            "name": name,
            "context": ctx.to_payload(),
            "table": result.table,
            "checks": tuple(result.checks),
        }
        _write_atomic(path, pickle.dumps(
            payload, protocol=pickle.HIGHEST_PROTOCOL),
            prefix=f".{name}-")
        self.stats.stores += 1
        _record_provenance("store", name)
        self._keys.save()
        self._enforce_bound(keep=path)
        return path

    # -- the blob tier ------------------------------------------------------

    def blob_path(self, kind: str, key: str) -> Path:
        """Where a blob of ``kind`` under content ``key`` lives — the
        same ``{name}-{key[:20]}.pkl`` layout the experiment tier uses,
        so :meth:`clear` and the LRU bound govern both tiers."""
        return self.root / f"{kind}-{key[:20]}.pkl"

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
        self._keys.save()
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
        """Delete every entry and the cut-digest index under the cache
        root; returns the entry count."""
        if not self.root.is_dir():
            return 0
        n = 0
        for p in self.root.glob("*.pkl"):
            p.unlink(missing_ok=True)
            n += 1
        self.index_path.unlink(missing_ok=True)
        self._keys = CacheKeys(self.index_path)
        return n
