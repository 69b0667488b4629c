"""repro.fuzz — fleet-scale scenario fuzzing for the cost models.

The fuzzer drives thousands of randomized *scenarios* — kernel mixes,
(batch, seq) grids, precisions, cluster sizes, device lineups —
through the :mod:`repro.serve` query service and checks every answer
stream against declared **invariants** (monotonicity, lineage,
batch-vs-sequential equivalence, capability gating).  A violating
scenario is *shrunk* to a smallest reproducing case and written as a
replayable JSONL repro file.

Layout:

* :mod:`repro.fuzz.generator` — seeded scenario generator
  (``random.Random`` only; deterministic across platforms)
* :mod:`repro.fuzz.oracle` — the invariant oracle
* :mod:`repro.fuzz.shrink` — ddmin-style minimization + repro files
* :mod:`repro.fuzz.driver` — the streaming fuzz loop
  (work-stealing pool dispatch, deterministic re-merge)

Everything here is plain ``random``; the property-test suites'
Hypothesis strategies live with the tests (``tests/strategies.py``),
because Hypothesis is a dev-only dependency.
"""

from repro.fuzz.driver import FuzzReport, run_fuzz
from repro.fuzz.generator import Scenario, ScenarioGenerator
from repro.fuzz.oracle import (
    INVARIANTS,
    ScenarioReport,
    Violation,
    check_scenario,
)
from repro.fuzz.shrink import (
    REPRO_SCHEMA,
    load_repro,
    replay_repro,
    shrink_scenario,
    write_repro,
)

__all__ = [
    "FuzzReport",
    "INVARIANTS",
    "REPRO_SCHEMA",
    "Scenario",
    "ScenarioGenerator",
    "ScenarioReport",
    "Violation",
    "check_scenario",
    "load_repro",
    "replay_repro",
    "run_fuzz",
    "shrink_scenario",
    "write_repro",
]
