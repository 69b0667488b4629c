"""Shared fixtures for the test suite."""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.arch import get_device


@pytest.fixture(autouse=True)
def _hermetic_result_cache(tmp_path, monkeypatch):
    """Point the result cache at a throwaway dir so tests never read
    or write the user's real cache."""
    monkeypatch.setenv("HOPPERDISSECT_CACHE_DIR",
                       str(tmp_path / "result-cache"))


@pytest.fixture
def source_tree(tmp_path, monkeypatch):
    """A copy of the ``repro`` source that the result cache hashes in
    place of the installed tree, for tests that edit or add modules.
    Returns the copy's package directory."""
    import repro

    root = tmp_path / "source" / "repro"
    shutil.copytree(Path(repro.__file__).resolve().parent, root,
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(repro, "__file__", str(root / "__init__.py"))
    return root


@pytest.fixture(scope="session")
def a100():
    return get_device("A100")


@pytest.fixture(scope="session")
def rtx4090():
    return get_device("RTX4090")


@pytest.fixture(scope="session")
def h800():
    return get_device("H800")


@pytest.fixture(scope="session", params=["A100", "RTX4090", "H800"])
def any_device(request):
    """Parametrised over all three paper devices."""
    return get_device(request.param)


@pytest.fixture()
def tiny_device(h800):
    """An H800 with a shrunken L2 for fast over-capacity tests."""
    from dataclasses import replace
    return h800.with_overrides(
        cache=replace(h800.cache, l2_size_kib=512)
    )
