"""A device answers by what it is, not by what it is called.

Every per-device number lives on the :class:`~repro.arch.DeviceSpec`
or its pack, so two specs that differ only in ``name`` answer alike,
and ``with_overrides`` reaches every calibration.  Two guards hold
that: an AST scan that no module outside :mod:`repro.arch` keys a
value on a device's name, and a renamed copy of each stock device that
must reproduce the original's Table V and Table XII cells and its
serve metrics.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path
from typing import List

import pytest

import repro
from repro.arch import DEVICES, get_device, register_device
from repro.memory import measure_throughputs
from repro.te.cost import Precision
from repro.te.llm import LLAMA_MODELS, LlmInferenceModel

STOCK_DEVICES = ("V100", "RTX4090", "A100", "H800", "B200")

GOLDEN_BATCH = Path(__file__).parent / "golden" / "serve_batch.jsonl"

#: identifiers an expression holding a device spec ends in
_DEVICE_SUFFIXES = ("device", "dev", "spec")


def _holds_device(node: ast.AST) -> bool:
    ident = (node.id if isinstance(node, ast.Name)
             else node.attr if isinstance(node, ast.Attribute) else "")
    return ident.endswith(_DEVICE_SUFFIXES)


def name_keys(source: str) -> List[int]:
    """Lines where ``<device>.name`` is used as a key: a subscript
    index, a dict-literal key, a ``.get``/``.pop`` argument (a tuple
    element included), or an operand of ``in`` or a comparison.
    Labels, dict values, keyword arguments and f-strings are fine."""
    tree = ast.parse(source)
    parent = {child: node for node in ast.walk(tree)
              for child in ast.iter_child_nodes(node)}
    lines = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and node.attr == "name"
                and _holds_device(node.value)):
            continue
        child, up = node, parent.get(node)
        while isinstance(up, ast.Tuple):
            child, up = up, parent.get(up)
        if (isinstance(up, ast.Subscript) and child is up.slice
                or isinstance(up, ast.Dict)
                and any(key is child for key in up.keys)
                or isinstance(up, ast.Call)
                and isinstance(up.func, ast.Attribute)
                and up.func.attr in ("get", "pop")
                and any(arg is child for arg in up.args)
                or isinstance(up, ast.Compare)):
            lines.append(node.lineno)
    return sorted(lines)


class TestNoNameKeys:
    @pytest.mark.parametrize("source", [
        "x = TABLE[self.device.name]",
        "x = TABLE[(dev.name, level)]",
        "x = {spec.name: 1.0}",
        "x = TABLE.get((device.name, 'l1', p), 1.0)",
        "TABLE.pop(dev.name)",
        "ok = self.device.name in TABLE",
        "ok = device.name == 'H800'",
    ])
    def test_flags_a_name_used_as_a_key(self, source):
        assert name_keys(source) == [1]

    @pytest.mark.parametrize("source", [
        "row = {'GPU': self.device.name}",
        "print(f'{dev.name}: {value}')",
        "Prediction(device=spec.name)",
        "label = device.name",
        "x = TABLE[shard.name]",
    ])
    def test_allows_a_name_used_as_a_label(self, source):
        assert name_keys(source) == []

    def test_no_engine_keys_a_number_on_a_device_name(self):
        package = Path(repro.__file__).resolve().parent
        found = [f"{path.relative_to(package)}:{line}"
                 for path in sorted(package.rglob("*.py"))
                 if path.relative_to(package).parts[0] != "arch"
                 for line in name_keys(path.read_text())]
        assert found == [], (
            "a per-device number is keyed on the device's name; make it "
            "a DeviceSpec or ArchPack field instead")


def _table12_cells(device):
    model = LlmInferenceModel(device)
    return {(name, prec): model.estimate(spec, prec)
            for name, spec in LLAMA_MODELS.items() for prec in Precision}


def _serve_metrics(name, rename=None):
    """Status and metrics of the golden batch's point queries on
    ``name``, asked of ``rename``.  Experiment queries are left out:
    their checks compare against the paper's findings for the device
    the paper names."""
    from repro.serve import QueryService

    lines = []
    for line in GOLDEN_BATCH.read_text().splitlines():
        try:
            query = json.loads(line)
        except ValueError:
            continue
        if (isinstance(query, dict) and query.get("device") == name
                and query.get("kind") != "experiment"):
            query["device"] = rename or name
            lines.append(json.dumps(query))
    assert lines
    return [(p.status, p.metrics)
            for p in QueryService(cache=None).answer_lines(lines)]


@pytest.mark.parametrize("name", STOCK_DEVICES)
class TestRenamedCopy:
    """A copy of a stock device that differs only in name answers
    exactly like the original."""

    @pytest.fixture
    def copy(self, name):
        spec = get_device(name).with_overrides(name=f"{name}COPY")
        register_device(spec)
        yield spec
        DEVICES.pop(spec.name.upper(), None)

    def test_table5_cells(self, name, copy):
        assert measure_throughputs(copy) == \
            measure_throughputs(get_device(name))

    def test_table12_cells(self, name, copy):
        assert _table12_cells(copy) == _table12_cells(get_device(name))

    def test_golden_batch_metrics(self, name, copy):
        assert _serve_metrics(name, rename=copy.name) == \
            _serve_metrics(name)
