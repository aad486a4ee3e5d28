"""The combined validation gate: golden + invariants + fuzz + ledger.

:func:`run_validation` is what both entry points call —
``python -m repro.harness --validate`` and ``python -m repro.validate``.
It composes whichever layers the caller enabled into one
:class:`~repro.validate.report.ValidationReport`, optionally writing the
machine-readable artifact CI uploads.

The ledger layer replays the run-ledger regression check (see
:mod:`repro.obs.ledger`) on the newest ledger entry.  It is *lenient* by
default — a wall-time drift on a shared CI runner prints a warning but
does not fail the gate — and strict only when asked (``ledger_strict``),
for dedicated benchmarking hosts where timing is trustworthy.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..obs.ledger import RunLedger
from ..scenarios.builtin import PAPER_FIGURE_IDS, PAPER_TABLE_IDS
from .golden import run_golden
from .manifest import load_manifest, manifest_path_for
from .metamorphic import run_invariants
from .report import ValidationReport


def check_ledger(path: str | Path, *, strict: bool = False) -> dict:
    """Digest one ledger file into the gate's ledger-layer dict."""
    ledger = RunLedger(path)
    entries = ledger.entries()
    layer = {
        "path": str(path),
        "entries": len(entries),
        "malformed": ledger.skipped,
        "strict": strict,
        "checked": False,
        "regressions": [],
        "ok": True,
    }
    if entries:
        verdict = ledger.check_regression(entries[-1])
        layer["checked"] = verdict["checked"]
        layer["regressions"] = verdict["regressions"]
        if strict and verdict["checked"] and not verdict["ok"]:
            layer["ok"] = False
    return layer


def run_validation(
    figures: list[str] | None = None,
    tables: list[str] | None = None,
    *,
    scenarios: list[str] | None = None,
    results_dir: str | Path = "results",
    manifest_path: str | Path | None = None,
    max_cpus: int | None = None,
    golden: bool = True,
    invariants: bool = True,
    fuzz_configs: int = 0,
    fuzz_seed: int = 0,
    jobs: int = 2,
    report_path: str | Path | None = None,
    ledger_path: str | Path | None = None,
    ledger_strict: bool = False,
) -> ValidationReport:
    """Run the enabled validation layers and collect one report.

    ``figures``/``tables`` default to every paper item in the scenario
    registry when the golden layer is on.  ``scenarios`` names
    registered scenarios whose declarative references are checked
    (asymmetric tolerances; see :mod:`repro.scenarios`) — reference
    checks that only hold at full scale report ``uncovered`` under a
    ``max_cpus`` cap, mirroring the golden layer's ``requires_full``
    semantics.  Runs through the ambient executor — install one with
    :func:`repro.exec.using_executor` to parallelise or cache.
    """
    report = ValidationReport(max_cpus=max_cpus)
    if golden:
        figs = list(PAPER_FIGURE_IDS) if figures is None else figures
        tabs = list(PAPER_TABLE_IDS) if tables is None else tables
        manifest = load_manifest(
            manifest_path if manifest_path is not None
            else manifest_path_for(results_dir))
        report.items = run_golden(figs, tabs, results_dir=results_dir,
                                  manifest=manifest, max_cpus=max_cpus)
    if scenarios:
        from ..scenarios import check_scenarios

        suite = check_scenarios(scenarios, max_cpus=max_cpus)
        report.scenarios = suite.to_dict()
    if invariants:
        report.invariants = run_invariants(
            max_cpus=max_cpus if max_cpus is not None else 16, jobs=jobs)
    if fuzz_configs > 0:
        from .fuzz import run_fuzz

        report.fuzz = run_fuzz(seed=fuzz_seed,
                               n_configs=fuzz_configs).to_dict()
    if ledger_path is not None:
        report.ledger = check_ledger(ledger_path, strict=ledger_strict)
    if report_path is not None:
        path = Path(report_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    return report
