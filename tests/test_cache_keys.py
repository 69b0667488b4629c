"""Cache-key soundness, and what deriving a key costs.

Mutations run against a *fresh* :class:`ResultCache` on a root whose
cut-digest index was already persisted — the cross-process staleness
case, where a stale index must never answer for an edited tree.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from collections import Counter
from collections.abc import Mapping

import pytest

import repro
from repro.arch import ArchPack, get_pack, register_pack
from repro.arch import packs as packs_mod
from repro.cli import main
from repro.core import list_experiments, run_experiment
from repro.core import registry as regmod
from repro.core.context import DEFAULT_CONTEXT, RunContext
from repro.core.registry import get_experiment
from repro.obs import ObsSession
from repro.perf import (
    ResultCache,
    ResultCacheStats,
    dependency_cut,
    run_experiments,
)
from repro.perf import cache as cmod
from repro.perf.cache import CacheKeys

EXP = "table03_devices"
#: a device/seed sweep beside the default context
SWEEP = RunContext(devices=("A100", "H800"), seed=7)


def _module(name):
    """The module of ``name``'s builder, read from the registry."""
    return get_experiment(name).target.partition(":")[0]


def _builders():
    """Each builder module, with one experiment it builds."""
    out = {}
    for name in list_experiments():
        out.setdefault(_module(name), name)
    return out


BUILDERS = _builders()


def _reference_cut_digest(module):
    """A builder's ``cut=`` digest derived the slow way: every module
    of the cut parsed afresh, with neither memo nor index."""
    index = cmod._module_index()
    seen, frontier = {module}, [module]
    while frontier:
        current = frontier.pop()
        for dep in cmod._imported_modules(
                current, cmod._read_source(index[current]), index):
            if dep not in seen:
                seen.add(dep)
                frontier.append(dep)
    cut = hashlib.sha256()
    for dep in sorted(seen):
        cut.update(dep.encode() + b"\0")
        cut.update(cmod._read_source(index[dep]) + b"\0")
    return f"cut={cut.hexdigest()}"


def _reference_key(name, ctx, cut_digests):
    """The key as specified, with ``cut_digests`` caching
    :func:`_reference_cut_digest` by builder module."""
    module = _module(name)
    if module not in cut_digests:
        cut_digests[module] = _reference_cut_digest(module)
    h = hashlib.sha256()
    for line in (f"schema={cmod._SCHEMA}",
                 f"version={repro.__version__}", f"name={name}",
                 f"builder={get_experiment(name).target}",
                 f"context={ctx.token()}",
                 f"devices={cmod.device_digest(ctx.devices)}",
                 f"source:{cut_digests[module]}"):
        h.update(f"{line}\n".encode())
    return h.hexdigest()


def _keys(cache, ctx=DEFAULT_CONTEXT):
    return {name: cache.key_for(name, ctx) for name in list_experiments()}


@pytest.fixture
def parses(monkeypatch):
    """An empty parse memo, and the module of every parse after it."""
    calls = []
    real = cmod._imported_modules

    def spy(module, source, index):
        calls.append(module)
        return real(module, source, index)

    monkeypatch.setattr(cmod, "_IMPORTS_MEMO", {})
    monkeypatch.setattr(cmod, "_imported_modules", spy)
    return calls


def _forget(parses):
    """Empty the parse memo and the record of parses so far."""
    cmod._IMPORTS_MEMO.clear()
    parses.clear()


@pytest.fixture
def indexed(tmp_path):
    """A cache root whose index holds every builder module's digest,
    and the default-context keys it was written for."""
    cache = ResultCache(tmp_path / "rc")
    keys = _keys(cache)
    cache.put(EXP, run_experiment(EXP))
    assert cache.index_path.is_file()
    return cache.root, keys


def _append_byte(monkeypatch, modules):
    """Make ``_read_source`` append one byte to each of ``modules``."""
    index = cmod._module_index()
    paths = {index[m] for m in modules}
    real = cmod._read_source
    monkeypatch.setattr(
        cmod, "_read_source",
        lambda path: real(path) + b"#" if path in paths else real(path))


class TestKeysUnchanged:
    """Neither the memo nor the index changes a key's bytes, so caches
    filled before either existed stay warm."""

    @pytest.mark.parametrize("ctx", [DEFAULT_CONTEXT, SWEEP],
                             ids=["default", "sweep"])
    def test_keys_match_the_reference_derivation(self, tmp_path, ctx):
        cold = ResultCache(tmp_path / "rc")
        keys = _keys(cold, ctx)
        cold.put(EXP, run_experiment(EXP))
        cut_digests = {}
        assert keys == {n: _reference_key(n, ctx, cut_digests)
                        for n in keys}
        assert _keys(ResultCache(tmp_path / "rc"), ctx) == keys


class TestKeySoundness:
    @pytest.mark.parametrize("module", sorted(BUILDERS))
    def test_edit_in_the_cut_changes_the_key(self, indexed, module):
        root, keys = indexed
        name = BUILDERS[module]
        for dep in dependency_cut(module):
            with pytest.MonkeyPatch.context() as mp:
                _append_byte(mp, [dep])
                assert ResultCache(root).key_for(name) != keys[name], \
                    f"editing {dep} left {name}'s key unchanged"

    @pytest.mark.parametrize("module", sorted(BUILDERS))
    def test_edit_outside_the_cut_keeps_the_key(self, indexed,
                                                monkeypatch, parses,
                                                module):
        root, keys = indexed
        name = BUILDERS[module]
        cut = dependency_cut(module)
        outside = next(m for m in sorted(cmod._module_index())
                       if m not in cut)
        _forget(parses)
        _append_byte(monkeypatch, [outside])
        assert ResultCache(root).key_for(name) == keys[name]
        assert parses, "an index stored for another tree was trusted"

    def test_new_module_invalidates_the_index(self, indexed,
                                              monkeypatch, parses):
        root, keys = indexed
        real_index, real_read = cmod._module_index, cmod._read_source

        def grown():
            index = real_index()
            index["repro.zz_new"] = index["repro"].parent / "zz_new.py"
            return index

        monkeypatch.setattr(cmod, "_module_index", grown)
        monkeypatch.setattr(
            cmod, "_read_source",
            lambda path: b"" if path.name == "zz_new.py"
            else real_read(path))
        assert ResultCache(root).key_for(EXP) == keys[EXP]
        assert parses, "an index stored for another tree was trusted"


#: a stock pack's perturbations must reach this key: the experiment
#: is pinned to H800, a Hopper device in the default context
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


def _key_with_pack(cache, arch, pack):
    """``PACK_EXP``'s key while ``pack`` stands in for the stock
    ``arch`` pack; the stock pack is restored whatever happens."""
    stock = packs_mod._PACKS[arch]
    packs_mod._PACKS[arch] = pack
    try:
        return cache.key_for(PACK_EXP)
    finally:
        packs_mod._PACKS[arch] = stock


class TestPackSoundness:
    """Replacing a stock pack changes the keys of every context that
    holds one of its devices — a warm cache never serves results
    computed with the old pack."""

    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(ArchPack)])
    def test_perturbed_pack_field_changes_the_key(self, tmp_path,
                                                  field):
        cache = ResultCache(tmp_path / "rc")
        key = cache.key_for(PACK_EXP)
        hopper = get_pack("hopper")
        bumped = dataclasses.replace(
            hopper, **{field: _bump(getattr(hopper, field))})
        assert bumped != hopper
        assert _key_with_pack(cache, "hopper", bumped) != key, \
            f"perturbing ArchPack.{field} left {PACK_EXP}'s key unchanged"
        assert cache.key_for(PACK_EXP) == key

    def test_registered_replacement_reaches_both_digests(self):
        before = (cmod.device_digest(("H800",)), CacheKeys().key_for(
            PACK_EXP))
        stock = get_pack("hopper")
        try:
            register_pack(dataclasses.replace(stock, has_fp8=False),
                          overwrite=True)
            after = (cmod.device_digest(("H800",)),
                     CacheKeys().key_for(PACK_EXP))
        finally:
            register_pack(stock, overwrite=True)
        assert after[0] != before[0] and after[1] != before[1]

    def test_pack_outside_the_context_keeps_the_key(self, tmp_path):
        cache = ResultCache(tmp_path / "rc")
        volta = get_pack("volta")          # V100 is not in the default
        assert _key_with_pack(             # context
            cache, "volta", dataclasses.replace(
                volta, has_fp8=not volta.has_fp8)) \
            == cache.key_for(PACK_EXP)


class TestBuilderPath:
    """The experiment table is in no builder's cut, so the builder's
    path is what makes a re-pointed row a different key."""

    TABLE = "repro.core.experiments"

    def test_table_is_in_no_cut(self):
        for module in BUILDERS:
            assert self.TABLE not in dependency_cut(module)

    def _key_after_table_edit(self, indexed, monkeypatch, **changes):
        root, _ = indexed
        monkeypatch.setitem(regmod._REGISTRY, PACK_EXP,
                            dataclasses.replace(
                                get_experiment(PACK_EXP), **changes))
        _append_byte(monkeypatch, [self.TABLE])
        return ResultCache(root).key_for(PACK_EXP)

    def test_repointed_builder_changes_the_key(self, indexed,
                                               monkeypatch):
        _, keys = indexed
        target = get_experiment(PACK_EXP).target
        sibling = target.replace(":table08", ":table09")
        assert sibling != target and _module(PACK_EXP) == \
            sibling.partition(":")[0]
        assert self._key_after_table_edit(
            indexed, monkeypatch, builder=sibling) != keys[PACK_EXP]

    def test_edited_description_keeps_the_key(self, indexed,
                                              monkeypatch):
        _, keys = indexed
        assert self._key_after_table_edit(
            indexed, monkeypatch, description="reworded") \
            == keys[PACK_EXP]


class TestParseCounts:
    def test_cold_derivation_parses_each_file_once(self, tmp_path,
                                                   parses):
        first = ResultCache(tmp_path / "a")
        for ctx in (DEFAULT_CONTEXT, SWEEP):
            _keys(first, ctx)
        counts = Counter(parses)
        assert max(counts.values()) == 1
        assert set(counts) == set().union(
            *(dependency_cut(m) for m in BUILDERS))
        _keys(ResultCache(tmp_path / "b"))     # the memo is shared
        assert Counter(parses) == counts

    def test_warm_derivation_parses_nothing(self, indexed, parses):
        root, keys = indexed
        assert _keys(ResultCache(root)) == keys
        assert parses == []

    @pytest.mark.parametrize("damage", [
        lambda b: b"",
        lambda b: b[:len(b) // 2],
        lambda b: b"\x80\x81",
        lambda b: b"[1, 2]",
        lambda b: b'{"schema": 1, "tree": "x"}',
        lambda b: b.replace(b'"cut=', b'"bad='),
    ], ids=["empty", "truncated", "binary", "list", "no-cuts",
            "bad-digest"])
    def test_damaged_index_is_recomputed(self, indexed, parses,
                                         damage):
        root, keys = indexed
        path = root / "cut-index.json"
        path.write_bytes(damage(path.read_bytes()))
        fresh = ResultCache(root)
        assert _keys(fresh) == keys
        assert parses
        fresh.put(EXP, run_experiment(EXP))
        assert json.loads(path.read_bytes())["tree"] \
            == cmod.source_digest()


class TestIndexHygiene:
    def test_no_cache_and_read_only_keyers_never_create_it(
            self, tmp_path, monkeypatch, capsys):
        root = tmp_path / "cache"
        monkeypatch.setenv("HOPPERDISSECT_CACHE_DIR", str(root))
        assert main(["run", "--no-cache", EXP]) == 0
        assert main(["query", "experiment", "--no-cache",
                     "-p", f"name={EXP}"]) == 0
        assert not root.exists()
        cache = ResultCache(root)
        cache.key_for(EXP)
        assert cache.get(EXP) is None
        assert not cache.index_path.exists()

    def test_index_is_not_an_entry(self, tmp_path):
        result = run_experiment(EXP)
        session = ObsSession()
        with session.activate():
            cache = ResultCache(tmp_path / "rc", max_entries=1)
            cache.put(EXP, result)
        assert cache.index_path.is_file()
        assert [p.name for p in cache.root.glob("*.pkl")] \
            == [cache.path_for(EXP).name]
        assert cache.stats == ResultCacheStats(stores=1)
        bank = session.counters.as_dict()
        assert {k: v for k, v in bank.items()
                if k.startswith("result_cache.")} \
            == {"result_cache.store": 1}
        assert cache.clear() == 1
        assert not cache.index_path.exists()

    def test_warm_run_all_tallies_do_not_depend_on_the_index(
            self, tmp_path, monkeypatch, capsys):
        root = tmp_path / "cache"
        monkeypatch.setenv("HOPPERDISSECT_CACHE_DIR", str(root))
        assert main(["run", "--all"]) == 0
        runs = []
        dump = tmp_path / "counters.json"
        for drop_index in (False, True):
            if drop_index:
                (root / "cut-index.json").unlink()
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
