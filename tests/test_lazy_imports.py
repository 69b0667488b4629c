"""Each command imports only what it runs.

The registry is a table of ``"module:function"`` paths, cached tables
pickle as plain lists, and the serve package loads its oracle on first
use — so listing experiments, deriving keys, a warm ``run --all`` and
a warm ``serve`` never import numpy, an engine package, an experiment
builder module or a reporting module (fidelity scoring, the counter
catalog, diff and exports).  Module sets are read from ``sys.modules``
in a fresh interpreter, because this test process has long since
imported everything.  The same way, every shipped module must import
with the dev-only dependencies (pytest, Hypothesis, SciPy) missing.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.core.experiments import EXPERIMENTS

#: engine packages a warm command must not load
ENGINES = ("repro.memory", "repro.tensorcore", "repro.te", "repro.isa",
           "repro.dsm", "repro.dpx", "repro.asynccopy", "repro.trace",
           "repro.numerics", "repro.power", "repro.sm", "repro.dp")

#: modules only ``fidelity``, ``stats --diff`` and the counter exports
#: run; the package inits do not re-export them
REPORTING = ("repro.core.fidelity", "repro.core.paperdata",
             "repro.obs.catalog", "repro.obs.diff", "repro.obs.export")

BUILDER_MODULES = sorted({row.builder.partition(":")[0]
                          for row in EXPERIMENTS})

#: a small fixed serve batch: three oracle kinds, an unsupported
#: query, a family-level experiment query and a malformed line
BATCH = [
    {"kind": "te.linear", "device": "H800", "precision": "fp16",
     "params": {"m": 256, "n": 256, "k": 256}},
    {"kind": "mma", "device": "A100",
     "params": {"ab": "fp16", "cd": "fp32", "m": 16, "n": 8, "k": 16}},
    {"kind": "memory.latency", "device": "H800",
     "params": {"footprint_kib": 64}},
    {"kind": "wgmma", "device": "V100",
     "params": {"ab": "fp16", "cd": "fp32", "n": 64}},
    {"kind": "experiment", "params": {"name": "table03_devices"}},
]

#: import a module, optionally run the CLI, then dump sys.modules
_PROBE = """\
import importlib, json, sys
importlib.import_module(sys.argv[2])
if sys.argv[3:]:
    from repro.cli import main
    main(sys.argv[3:])
with open(sys.argv[1], "w") as fh:
    json.dump(sorted(sys.modules), fh)
"""

#: every lookup, pin check and key the registry offers
_KEYS_PROBE = """\
import json, sys
from repro.core.context import DEFAULT_CONTEXT
from repro.core.registry import get_experiment, list_experiments
from repro.perf.cache import ResultCache
keys = ResultCache(root=sys.argv[1] + ".cache")
for name in list_experiments():
    exp = get_experiment(name)
    exp.supports(DEFAULT_CONTEXT)
    exp.pin_note()
    keys.key_for(name)
with open(sys.argv[1], "w") as fh:
    json.dump(sorted(sys.modules), fh)
"""

#: run_experiments at jobs=2 with the pool swapped for a serial map
#: that records what was imported when the pool would have started
_PREFORK_PROBE = """\
import json, sys
from repro.perf import runner
real = runner.parallel_imap
def spy(fn, items, **kwargs):
    with open(sys.argv[1], "w") as fh:
        json.dump(sorted(sys.modules), fh)
    return real(fn, items)
runner.parallel_imap = spy
runner.run_experiments(sys.argv[2:], jobs=2)
"""


#: import every repro module with the dev-only dependencies blocked;
#: write the modules that failed (and why) and how many imported
_NO_DEV_PROBE = """\
import importlib, json, pkgutil, sys

DEV = ("hypothesis", "pytest", "scipy")

class BlockDev:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in DEV:
            raise ModuleNotFoundError(f"dev-only {name} blocked",
                                      name=name)
        return None

sys.meta_path.insert(0, BlockDev())
import repro
failed, imported = {}, 0
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    try:
        importlib.import_module(info.name)
        imported += 1
    except ImportError as exc:
        failed[info.name] = repr(exc)
with open(sys.argv[1], "w") as fh:
    json.dump({"failed": failed, "imported": imported}, fh)
"""


def _forbidden(modules):
    return sorted(
        m for m in modules
        if m == "numpy" or m.startswith("numpy.")
        or any(m == e or m.startswith(e + ".") for e in ENGINES)
        or m in REPORTING
        or m.startswith("repro.core.experiments."))


def _probe(tmp_path, script, *args, cache=None):
    """What ``script``, run in a fresh interpreter, wrote as JSON to
    ``sys.argv[1]``."""
    out = tmp_path / "probe.json"
    env = dict(os.environ,
               PYTHONPATH=str(Path(repro.__file__).resolve().parents[1]))
    if cache is not None:
        env["HOPPERDISSECT_CACHE_DIR"] = str(cache)
    proc = subprocess.run(
        [sys.executable, "-c", script, str(out), *args],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(out.read_text())


def _modules_after(tmp_path, script, *args, cache=None):
    """``sys.modules`` at the end of ``script`` run in a fresh
    interpreter."""
    return set(_probe(tmp_path, script, *args, cache=cache))


@pytest.fixture(scope="module")
def warm(tmp_path_factory):
    """A cache root filled by ``run --all`` and one ``serve`` of
    :data:`BATCH`, and the batch file."""
    root = tmp_path_factory.mktemp("warm")
    batch = root / "batch.jsonl"
    batch.write_text("".join(json.dumps(q) + "\n" for q in BATCH)
                     + "{not json\n")
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("HOPPERDISSECT_CACHE_DIR", str(root / "cache"))
        assert main(["run", "--all"]) == 0
        assert main(["serve", "-i", str(batch),
                     "-o", str(root / "cold.jsonl")]) == 0
    return root


class TestImportBudget:
    @pytest.mark.parametrize("module", ["repro.cli", "repro.serve"])
    def test_import_loads_nothing_heavy(self, tmp_path, module):
        assert _forbidden(_modules_after(tmp_path, _PROBE, module)) == []

    @pytest.mark.parametrize("command", ["list", "devices"])
    def test_metadata_commands_load_nothing_heavy(self, tmp_path,
                                                  command):
        assert _forbidden(_modules_after(
            tmp_path, _PROBE, "repro.cli", command)) == []

    def test_warm_run_all_loads_nothing_heavy(self, tmp_path, warm):
        assert _forbidden(_modules_after(
            tmp_path, _PROBE, "repro.cli", "run", "--all",
            cache=warm / "cache")) == []

    def test_warm_serve_loads_nothing_heavy(self, tmp_path, warm):
        out = tmp_path / "warm.jsonl"
        modules = _modules_after(
            tmp_path, _PROBE, "repro.cli", "serve",
            "-i", str(warm / "batch.jsonl"), "-o", str(out),
            cache=warm / "cache")
        assert _forbidden(modules) == []
        assert out.read_text() == (warm / "cold.jsonl").read_text()


class TestColdImports:
    """What a cold command must not import although it runs the
    engines: a plain ``np.unique`` imports ``numpy.ma`` (~18 ms) to
    ask whether its input is masked, and no engine needs masks."""

    @pytest.mark.parametrize("command", ["serve", "run"])
    def test_chases_leave_numpy_ma_unloaded(self, tmp_path, command):
        if command == "serve":
            batch = tmp_path / "batch.jsonl"
            batch.write_text("".join(json.dumps(q) + "\n"
                                     for q in BATCH))
            argv = ["serve", "-i", str(batch),
                    "-o", str(tmp_path / "out.jsonl")]
        else:
            argv = ["run", "ext_cache_detection", "--no-cache"]
        modules = _modules_after(tmp_path, _PROBE, "repro.cli", *argv,
                                 cache=tmp_path / "cache")
        assert "repro.memory.chase" in modules
        assert "numpy.ma" not in modules


class TestLazyRegistry:
    def test_lookups_and_keys_import_no_builder(self, tmp_path):
        modules = _modules_after(tmp_path, _KEYS_PROBE)
        assert not modules & set(BUILDER_MODULES)
        assert _forbidden(modules) == []

    def test_parallel_run_resolves_builders_before_the_pool(
            self, tmp_path):
        names = ["table03_devices", "table07_mma", "fig08_dsm_rbc"]
        modules = _modules_after(tmp_path, _PREFORK_PROBE, *names)
        assert {"repro.core.experiments.devices",
                "repro.core.experiments.tensorcore_exp",
                "repro.core.experiments.features"} <= modules


class TestNoDevDependencies:
    def test_every_module_imports_without_dev_extras(self, tmp_path):
        result = _probe(tmp_path, _NO_DEV_PROBE)
        assert result["failed"] == {}
        assert result["imported"] > 0
