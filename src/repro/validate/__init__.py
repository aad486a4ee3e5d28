"""Golden-result validation: regression oracles, invariants, fuzzing.

Three layers, one verdict (exit 3 = "the numbers moved"):

* :mod:`repro.validate.golden` — regenerate figures/tables through the
  executor and diff them cell-by-cell against the committed ``results/``
  under the tolerance manifest (``results/TOLERANCES.json``).
* :mod:`repro.validate.metamorphic` — structural properties that hold at
  any sweep scale: Fig 5 normalisation, balance-sweep monotonicity,
  serial/parallel/cached determinism, HPCC numeric verification.
* :mod:`repro.validate.fuzz` — seeded random machine configs run through
  a physics battery (causality, byte conservation, monotonicity), with
  failing configs shrunk to 1-minimal perturbation sets.

Entry points: ``python -m repro.harness --validate`` (golden +
invariants, shares the harness's executor flags) and
``python -m repro.validate`` (adds ``--fuzz``/``--fuzz-seed`` replay).
"""

from .gate import check_ledger, run_validation
from .golden import compare_figure, compare_table, run_golden
from .manifest import (
    Anchor,
    Manifest,
    ToleranceRule,
    load_manifest,
    manifest_path_for,
)
from .metamorphic import run_invariants
from .report import (
    EXIT_OK,
    EXIT_REGRESSION,
    EXIT_USAGE,
    CellReport,
    InvariantResult,
    ItemReport,
    ValidationReport,
)

__all__ = [
    "Anchor",
    "CellReport",
    "EXIT_OK",
    "EXIT_REGRESSION",
    "EXIT_USAGE",
    "InvariantResult",
    "ItemReport",
    "Manifest",
    "ToleranceRule",
    "ValidationReport",
    "check_ledger",
    "compare_figure",
    "compare_table",
    "load_manifest",
    "manifest_path_for",
    "run_golden",
    "run_invariants",
    "run_validation",
]
