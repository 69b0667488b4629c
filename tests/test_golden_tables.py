"""Golden snapshot tests pinning the rendered paper artefacts.

The per-experiment fixtures under ``tests/golden/`` were captured from
the scalar (pre-vectorization) implementations of the tensor-core
sweep and the Transformer-Engine cost walks.  Any drift — a reordered
float operation, a changed format string, a perturbed calibration
constant — fails here with a readable unified diff, so the vectorized
fast paths are provably render-identical to the reference code they
replaced.

Three more snapshots pin every architecture pack, not just the paper's
three devices:

* ``report_all_devices.txt`` — ``hopperdissect report --no-cache
  --devices V100,RTX4090,A100,H800,B200``;
* ``fidelity.txt`` — ``hopperdissect fidelity``, every MAPE cell;
* ``serve_stream.jsonl`` — the answer stream of the committed
  ``serve_batch.jsonl`` (every query kind on every device, plus
  malformed lines) from ``QueryService(cache=None)``.

Between them, a one-constant edit to any calibration dataclass of any
pack changes at least one snapshot.

Regenerating a fixture is a deliberate act::

    PYTHONPATH=src python -m tests.test_golden_tables table07_mma

(only do this when the *model* intentionally changed, never to paper
over an equivalence break).  Fixtures are named by stem
(``serve_stream``, ``fidelity``, …); with no names, every fixture is
regenerated.  ``serve_batch.jsonl`` is an input, edited by hand.
"""

from __future__ import annotations

import contextlib
import difflib
import io
from pathlib import Path
from typing import Callable, Dict, List

import pytest

from repro.core import run_experiment

GOLDEN_DIR = Path(__file__).parent / "golden"
SERVE_BATCH = GOLDEN_DIR / "serve_batch.jsonl"

#: every artefact the vectorized tensor-core / TE paths feed
GOLDEN_NAMES = [
    "table07_mma",
    "table08_wgmma_dense",
    "table09_wgmma_sparse",
    "table10_wgmma_nsweep",
    "table11_energy",
    "fig03_te_breakdown",
    "fig04_te_linear",
    "fig05_te_layer",
    "table12_llm",
]


def _render(name: str) -> str:
    return run_experiment(name).render() + "\n"


def _cli(*argv: str) -> Callable[[], str]:
    def render() -> str:
        from repro.cli import main

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(list(argv)) == 0
        return out.getvalue()
    return render


def _serve_stream() -> str:
    from repro.serve import QueryService

    lines = SERVE_BATCH.read_text().splitlines(keepends=True)
    return QueryService(cache=None).answer_lines_text(lines)


#: fixture file name -> the renderer it pins
SNAPSHOTS: Dict[str, Callable[[], str]] = {
    **{f"{name}.txt": (lambda name=name: _render(name))
       for name in GOLDEN_NAMES},
    "report_all_devices.txt": _cli(
        "report", "--no-cache", "--devices", "V100,RTX4090,A100,H800,B200"),
    "fidelity.txt": _cli("fidelity"),
    "serve_stream.jsonl": _serve_stream,
}


def drift(fixture: str) -> List[str]:
    """The unified diff between a fixture and its fresh rendering
    (empty when they match)."""
    expected = (GOLDEN_DIR / fixture).read_text()
    actual = SNAPSHOTS[fixture]()
    return list(difflib.unified_diff(
        expected.splitlines(keepends=True),
        actual.splitlines(keepends=True),
        fromfile=f"golden/{fixture}", tofile=f"current {fixture}"))


@pytest.mark.parametrize("fixture", sorted(SNAPSHOTS),
                         ids=lambda fixture: Path(fixture).stem)
def test_rendered_output_matches_golden(fixture):
    assert (GOLDEN_DIR / fixture).exists(), (
        f"missing fixture {fixture}; generate it with "
        f"`python -m tests.test_golden_tables {Path(fixture).stem}`"
    )
    diff = drift(fixture)
    if diff:
        pytest.fail(
            f"{fixture} drifted from its golden snapshot:\n"
            + "".join(diff), pytrace=False)


def test_fixture_dir_has_no_strays():
    """Every committed fixture is owned by a test (no zombie files)."""
    on_disk = {p.name for p in GOLDEN_DIR.iterdir() if p.is_file()}
    assert on_disk == set(SNAPSHOTS) | {SERVE_BATCH.name}


if __name__ == "__main__":  # pragma: no cover - fixture regeneration
    import sys

    by_stem = {Path(fixture).stem: fixture for fixture in SNAPSHOTS}
    for stem in sys.argv[1:] or sorted(by_stem):
        fixture = by_stem[stem]
        (GOLDEN_DIR / fixture).write_text(SNAPSHOTS[fixture]())
        print(f"regenerated golden/{fixture}")
