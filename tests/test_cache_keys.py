"""Cache-key soundness: one source digest keys both cache tiers.

Edits go to a copy of the ``repro`` source (the ``source_tree``
fixture), which the cache hashes in place of the installed tree, and
keys are always derived on a fresh :class:`ResultCache` — the
cross-process case, where an entry stored by older code must never
answer.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from collections.abc import Mapping
from pathlib import Path

import pytest

import repro
from repro.arch import ArchPack, get_device, register_device
from repro.arch import registry as arch_registry
from repro.cli import main
from repro.core import list_experiments, run_experiment
from repro.core import registry as regmod
from repro.core.context import DEFAULT_CONTEXT, RunContext
from repro.core.registry import get_experiment
from repro.obs import ObsSession
from repro.perf import ResultCache, ResultCacheStats, run_experiments
from repro.perf import cache as cmod
from repro.serve import QueryService, parse_query

EXP = "table03_devices"
#: a device/seed sweep beside the default context
SWEEP = RunContext(devices=("A100", "H800"), seed=7)
#: a blob-tier (kind, key), as the query service would store one
BLOB = ("serve-shard", "ab" * 32)
#: orchestration, as the key is specified: paths under ``repro/``
#: whose edits must keep every key
ORCHESTRATION = ("perf/", "cli.py", "fuzz/")


def _modules(root):
    """Every ``.py`` path under ``root``, relative, sorted."""
    return sorted(p.relative_to(root).as_posix()
                  for p in root.rglob("*.py"))


def _keys(cache, ctx=DEFAULT_CONTEXT):
    return {name: cache.key_for(name, ctx) for name in list_experiments()}


def _addresses(root):
    """Every experiment key under the default context, and a blob
    path, from a fresh cache on ``root``."""
    cache = ResultCache(root)
    return _keys(cache), cache.blob_path(*BLOB)


def _reference_digest():
    """The source digest as specified, hashed afresh."""
    root = Path(repro.__file__).resolve().parent
    tree = hashlib.sha256()
    for rel in _modules(root):
        if not rel.startswith(ORCHESTRATION):
            tree.update(rel.encode() + b"\0")
            tree.update((root / rel).read_bytes() + b"\0")
    return tree.hexdigest()


def _reference_key(name, ctx, digest):
    h = hashlib.sha256()
    for line in (f"schema={cmod._SCHEMA}",
                 f"version={repro.__version__}", f"name={name}",
                 f"builder={get_experiment(name).target}",
                 f"context={ctx.token()}",
                 f"devices={cmod.device_digest(ctx.devices)}",
                 f"source={digest}"):
        h.update(f"{line}\n".encode())
    return h.hexdigest()


def _append_byte(path):
    """Edit ``path`` by one byte; returns its original bytes."""
    data = path.read_bytes()
    path.write_bytes(data + b"#")
    return data


class TestKeysUnchanged:
    """Keys and blob addresses are the specified bytes, from any
    cache instance."""

    @pytest.mark.parametrize("ctx", [DEFAULT_CONTEXT, SWEEP],
                             ids=["default", "sweep"])
    def test_keys_match_the_reference_derivation(self, tmp_path, ctx):
        cold = ResultCache(tmp_path / "rc")
        keys = _keys(cold, ctx)
        cold.put(EXP, run_experiment(EXP))
        digest = _reference_digest()
        assert keys == {n: _reference_key(n, ctx, digest) for n in keys}
        assert _keys(ResultCache(tmp_path / "rc"), ctx) == keys

    def test_blob_path_matches_the_reference_derivation(self, tmp_path):
        kind, key = BLOB
        address = hashlib.sha256(
            f"source={_reference_digest()}\nkey={key}\n".encode())
        assert ResultCache(tmp_path / "rc").blob_path(kind, key) \
            == tmp_path / "rc" / f"{kind}-{address.hexdigest()[:20]}.pkl"


class TestKeySoundness:
    def test_edit_to_any_module_changes_every_key(self, tmp_path,
                                                  source_tree):
        keys, blob = _addresses(tmp_path / "rc")
        edited = [m for m in _modules(source_tree)
                  if not m.startswith(ORCHESTRATION)]
        assert len(edited) > 80
        for rel in edited:
            original = _append_byte(source_tree / rel)
            new_keys, new_blob = _addresses(tmp_path / "rc")
            (source_tree / rel).write_bytes(original)
            same = sorted(n for n in keys if new_keys[n] == keys[n])
            assert not same, f"editing {rel} left {same} unchanged"
            assert new_blob != blob, f"editing {rel} kept the blob path"

    def test_new_module_changes_every_key(self, tmp_path, source_tree):
        for new in ("zz_new.py", "memory/zz_new.py"):
            keys, blob = _addresses(tmp_path / "rc")
            (source_tree / new).write_text("")
            new_keys, new_blob = _addresses(tmp_path / "rc")
            assert all(new_keys[n] != keys[n] for n in keys), new
            assert new_blob != blob, new

    def test_orchestration_edit_keeps_every_key(self, tmp_path,
                                                source_tree):
        before = _addresses(tmp_path / "rc")
        orchestration = [m for m in _modules(source_tree)
                         if m.startswith(ORCHESTRATION)]
        assert {m.partition("/")[0] for m in orchestration} \
            == {"perf", "cli.py", "fuzz"}
        for rel in orchestration:
            _append_byte(source_tree / rel)
        (source_tree / "perf" / "zz_new.py").write_text("")
        assert _addresses(tmp_path / "rc") == before


class TestHashCount:
    """A key must cost far less than the entry it addresses."""

    @pytest.fixture
    def hashes(self, monkeypatch):
        calls = []
        real = cmod.source_digest

        def spy():
            calls.append(1)
            return real()

        monkeypatch.setattr(cmod, "source_digest", spy)
        return calls

    def test_tree_is_hashed_once_per_cache(self, tmp_path, hashes):
        cache = ResultCache(tmp_path / "rc")
        assert hashes == []
        _keys(cache)
        _keys(cache, SWEEP)
        cache.put(EXP, run_experiment(EXP))
        assert cache.get(EXP) is not None
        cache.put_blob(*BLOB, 1)
        assert cache.get_blob(*BLOB) == 1
        assert len(hashes) == 1
        _keys(ResultCache(tmp_path / "rc"))
        assert len(hashes) == 2

    def test_point_queries_without_a_cache_never_hash(self, hashes):
        service = QueryService(cache=None)
        service.answer(parse_query(
            {"kind": "memory.latency", "device": "H800",
             "params": {"footprint_kib": 64}}))
        service.answer(parse_query(
            {"kind": "experiment", "params": {"name": EXP}}))
        assert hashes == []


#: a perturbation of the H800's pack must reach this key: the
#: experiment is pinned to H800, which is in the default context
PACK_EXP = "table08_wgmma_dense"


def _bump(value):
    """``value`` perturbed; a calibration dataclass or table changes
    one leaf (its first field or entry, recursively)."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    if value is None:           # Hopper's one None field: mma_peak_keys
        return frozenset({"fp16"})
    if isinstance(value, frozenset):
        return value | {"x"}
    if isinstance(value, Mapping):
        first = next(iter(value))
        return {**value, first: _bump(value[first])}
    first = dataclasses.fields(value)[0].name
    return dataclasses.replace(
        value, **{first: _bump(getattr(value, first))})


def _key_with_pack(cache, device, pack):
    """``PACK_EXP``'s key while the registered ``device`` carries
    ``pack``; the stock device is restored whatever happens.  The swap
    skips validation (a bumped ``compute_capability`` is not a valid
    pack) and the spec's own checks."""
    stock = get_device(device)
    swapped = copy.copy(stock)
    object.__setattr__(swapped, "pack", pack)
    arch_registry.DEVICES[device] = swapped
    try:
        return cache.key_for(PACK_EXP)
    finally:
        arch_registry.DEVICES[device] = stock


class TestPackSoundness:
    """A device that carries another pack has other keys in every
    context that holds it — a warm cache never serves results computed
    with the old pack."""

    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(ArchPack)])
    def test_perturbed_pack_field_changes_the_key(self, tmp_path,
                                                  field):
        cache = ResultCache(tmp_path / "rc")
        key = cache.key_for(PACK_EXP)
        hopper = get_device("H800").pack
        bumped = dataclasses.replace(
            hopper, **{field: _bump(getattr(hopper, field))})
        assert bumped != hopper
        assert _key_with_pack(cache, "H800", bumped) != key, \
            f"perturbing ArchPack.{field} left {PACK_EXP}'s key unchanged"
        assert cache.key_for(PACK_EXP) == key

    def test_registered_replacement_reaches_both_digests(self, tmp_path):
        def digests():
            return (cmod.device_digest(("H800",)),
                    ResultCache(tmp_path / "rc").key_for(PACK_EXP))

        before = digests()
        stock = get_device("H800")
        try:
            register_device(stock.with_overrides(
                pack=dataclasses.replace(stock.pack, has_fp8=False)),
                overwrite=True)
            after = digests()
        finally:
            register_device(stock, overwrite=True)
        assert after[0] != before[0] and after[1] != before[1]

    def test_pack_outside_the_context_keeps_the_key(self, tmp_path):
        cache = ResultCache(tmp_path / "rc")
        volta = get_device("V100").pack    # V100 is not in the default
        assert _key_with_pack(             # context
            cache, "V100", dataclasses.replace(
                volta, has_fp8=not volta.has_fp8)) \
            == cache.key_for(PACK_EXP)


class TestBuilderPath:
    """A row changed at run time edits no source, so the builder's
    path is what makes a re-pointed row a different key."""

    def _key_after_registry_edit(self, tmp_path, monkeypatch,
                                 **changes):
        monkeypatch.setitem(regmod._REGISTRY, PACK_EXP,
                            dataclasses.replace(
                                get_experiment(PACK_EXP), **changes))
        return ResultCache(tmp_path / "rc").key_for(PACK_EXP)

    def test_repointed_builder_changes_the_key(self, tmp_path,
                                               monkeypatch):
        key = ResultCache(tmp_path / "rc").key_for(PACK_EXP)
        target = get_experiment(PACK_EXP).target
        sibling = target.replace(":table08", ":table09")
        assert sibling != target
        assert self._key_after_registry_edit(
            tmp_path, monkeypatch, builder=sibling) != key

    def test_edited_description_keeps_the_key(self, tmp_path,
                                              monkeypatch):
        key = ResultCache(tmp_path / "rc").key_for(PACK_EXP)
        assert self._key_after_registry_edit(
            tmp_path, monkeypatch, description="reworded") == key


#: what an older version left in a cache root beside its entries
LEGACY_INDEX = b'{"schema": 1, "tree": "0", "cuts": {}}'


class TestIndexHygiene:
    """A cache root holds entries only.  Keying and reading create
    nothing, and a ``cut-index.json`` an older version left there is
    never read and is not an entry, so it needs no migration."""

    def test_no_cache_and_read_only_keyers_never_create_it(
            self, tmp_path, monkeypatch, capsys):
        root = tmp_path / "cache"
        monkeypatch.setenv("HOPPERDISSECT_CACHE_DIR", str(root))
        assert main(["run", "--no-cache", EXP]) == 0
        assert main(["query", "experiment", "--no-cache",
                     "-p", f"name={EXP}"]) == 0
        cache = ResultCache(root)
        cache.key_for(EXP)
        assert cache.get(EXP) is None
        assert cache.get_blob(*BLOB) is None
        assert not root.exists()

    def test_index_is_not_an_entry(self, tmp_path):
        root = tmp_path / "rc"
        root.mkdir()
        (root / "cut-index.json").write_bytes(LEGACY_INDEX)
        result = run_experiment(EXP)
        session = ObsSession()
        with session.activate():
            cache = ResultCache(root, max_entries=1)
            cache.put(EXP, result)
        assert (root / "cut-index.json").read_bytes() == LEGACY_INDEX
        assert [p.name for p in root.glob("*.pkl")] \
            == [cache.path_for(EXP).name]
        assert cache.stats == ResultCacheStats(stores=1)
        bank = session.counters.as_dict()
        assert {k: v for k, v in bank.items()
                if k.startswith("result_cache.")} \
            == {"result_cache.store": 1}
        assert cache.clear() == 1

    def test_warm_run_all_tallies_do_not_depend_on_the_index(
            self, tmp_path, monkeypatch, capsys):
        root = tmp_path / "cache"
        monkeypatch.setenv("HOPPERDISSECT_CACHE_DIR", str(root))
        assert main(["run", "--all"]) == 0
        runs = []
        dump = tmp_path / "counters.json"
        for plant_index in (False, True):
            if plant_index:
                (root / "cut-index.json").write_bytes(LEGACY_INDEX)
            capsys.readouterr()
            assert main(["run", "--all", "--counters-json",
                         str(dump)]) == 0
            cache = ResultCache(root)
            run_experiments(cache=cache)
            runs.append((capsys.readouterr().out, dump.read_bytes(),
                         cache.stats))
        assert runs[0] == runs[1]
        n = len(list_experiments())
        assert runs[0][2] == ResultCacheStats(hits=n)
        assert json.loads(runs[0][1])["counters"]["result_cache.hit"] \
            == n


class TestNoStaleAnswers:
    """End to end through the CLI on a copy of the source: after an
    edit to model or serve code every warm answer is recomputed, and
    after an edit to orchestration every entry stays warm."""

    QUERIES = (("query", "memory.latency", "-d", "H800",
                "-p", "footprint_kib=1024"),
               ("query", "experiment", "-p", "name=table07_mma"))

    def test_warm_answers_follow_source_edits(self, tmp_path,
                                              source_tree):
        cache = tmp_path / "cache"
        env = dict(os.environ, PYTHONPATH=str(source_tree.parent),
                   HOPPERDISSECT_CACHE_DIR=str(cache))

        def cli(*argv, codes=(0,)):
            proc = subprocess.run(
                [sys.executable, "-m", "repro.cli", *argv],
                capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode in codes, proc.stderr[-2000:]
            return proc.stdout

        def answers(*flags):
            return [cli(*q, *flags) for q in self.QUERIES]

        def run_total():
            # the +100 below fails one of Table IV's finding checks
            return cli("run", "table04_mem_latency", "--profile",
                       codes=(0, 1)).splitlines()[-1]

        def edit(rel, old, new):
            path = source_tree / rel
            text = path.read_text()
            assert text.count(old) == 1, f"{old!r} not unique in {rel}"
            path.write_text(text.replace(old, new))

        def entries():
            return sorted(p.name for p in cache.glob("*.pkl"))

        filled = answers()
        assert run_total().endswith("(0 cached, 1 run)")
        stored = entries()
        assert len(stored) == 3

        for rel in ("cli.py", "perf/runner.py"):
            path = source_tree / rel
            path.write_text(path.read_text() + "# a comment\n")
        assert answers() == filled
        assert run_total().endswith("(1 cached, 0 run)")
        assert entries() == stored

        edit("memory/hierarchy.py", "lat.l2_hit_clk + lat.dram_clk)",
             "lat.l2_hit_clk + lat.dram_clk + 100)")
        edit("serve/dispatch.py", "float(len(result.table.rows))",
             "float(len(result.table.rows) + 1)")
        warm = answers()
        assert warm == answers("--no-cache")
        assert all(w != f for w, f in zip(warm, filled)), warm
        assert run_total().endswith("(0 cached, 1 run)")
