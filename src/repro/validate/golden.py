"""Golden regression oracle: regenerate, diff against ``results/``.

The committed ``results/*.csv`` are the repository's measured numbers —
the values EXPERIMENTS.md claims reproduce the paper.  This module
regenerates the same figures/tables through the active
:class:`~repro.exec.SweepExecutor` and compares cell by cell under the
tolerance manifest, so any refactor that silently shifts a number fails
the gate with a report naming the exact cell (and, where declared, the
paper anchor it backs).

Capped runs: a ``--max-cpus N`` sweep produces a *prefix* of the full
power-of-two CPU schedule, and the simulator is deterministic, so the
regenerated points are compared index-aligned against the head of each
golden series.  A cap that is not itself on the schedule contributes one
off-schedule final point (``cpu_counts`` appends the cap); that single
tail cell is reported as uncovered rather than failed.  Items marked
``requires_full`` (Fig 5 / Table 3 run flagship configurations whose
values exist only at full scale) are wholly uncovered under a cap —
their shape is still enforced by the metamorphic layer.
"""

from __future__ import annotations

import csv
import math
import re
from pathlib import Path

from ..core.errors import ConfigError
from ..harness.report import table_to_csv
from ..harness.results import FigureResult, TableResult
from ..scenarios import get_scenario
from .manifest import Manifest, ToleranceRule
from .report import (
    FAIL,
    MISSING,
    OK,
    UNCOVERED,
    CellReport,
    ItemReport,
)

#: Numeric equality slack for "exact" float comparisons (CSV round-trip).
_EXACT_EPS = 0.0

_FLOAT_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?")


def clear_figure_caches() -> None:
    """Drop the scenario layer's memoised sweeps.

    The golden gate must *recompute*, not replay a value memoised before
    the change under test existed (tests monkeypatch calibration
    constants; long-lived processes may hold pre-edit sweeps).  The
    memos live in :mod:`repro.scenarios.builtin`.
    """
    from ..scenarios.builtin import clear_scenario_caches

    clear_scenario_caches()


# ---------------------------------------------------------------------------
# Golden data loading
# ---------------------------------------------------------------------------

def load_golden_figure(results_dir: str | Path,
                       fig_id: str) -> dict[str, list[tuple[float, float]]]:
    """Committed series of one figure: ``machine -> [(x, y), ...]``."""
    path = Path(results_dir) / f"{fig_id}.csv"
    if not path.exists():
        raise ConfigError(f"golden data missing: {path}")
    series: dict[str, list[tuple[float, float]]] = {}
    with open(path, newline="") as fh:
        rows = iter(csv.reader(fh))
        next(rows)  # header
        for row in rows:
            _fig, machine, _label, x, y = row
            series.setdefault(machine, []).append((float(x), float(y)))
    return series


def load_golden_table(results_dir: str | Path,
                      table_id: str) -> list[list[str]]:
    """Committed CSV cells of one table (header row included)."""
    path = Path(results_dir) / f"{table_id}.csv"
    if not path.exists():
        raise ConfigError(f"golden data missing: {path}")
    with open(path, newline="") as fh:
        return [row for row in csv.reader(fh)]


# ---------------------------------------------------------------------------
# Cell comparison
# ---------------------------------------------------------------------------

def rel_err(expected: float, actual: float) -> float:
    """Relative error with a sane zero-denominator convention."""
    if expected == actual:
        return 0.0
    denom = max(abs(expected), abs(actual))
    return abs(expected - actual) / denom if denom else 0.0


def _numeric_match(expected: float, actual: float,
                   rule: ToleranceRule) -> tuple[bool, float]:
    if math.isnan(expected) or math.isnan(actual):
        return (math.isnan(expected) and math.isnan(actual), math.inf)
    e = rel_err(expected, actual)
    tol = _EXACT_EPS if rule.mode == "exact" else rule.rtol
    return e <= tol, e


def compare_figure(fig: FigureResult, golden: dict,
                   rule: ToleranceRule, *, full: bool) -> ItemReport:
    """Diff a regenerated figure against its golden series."""
    if rule.requires_full and not full:
        return ItemReport(fig.fig_id, rule.mode, UNCOVERED,
                          detail="requires full-range run")
    if rule.mode == "ordering":
        return _compare_figure_ordering(fig, golden, rule)
    cells: list[CellReport] = []
    for s in fig.series:
        anchor = rule.anchor_for(s.machine)
        anchor_name = anchor.name if anchor else None
        gold_pts = golden.get(s.machine)
        if gold_pts is None:
            cells.append(CellReport(fig.fig_id, s.machine, 0, "series",
                                    None, len(s.x), None, MISSING,
                                    anchor_name))
            continue
        n_new = len(s.x)
        if full and n_new != len(gold_pts):
            cells.append(CellReport(fig.fig_id, s.machine, 0, "length",
                                    len(gold_pts), n_new, None, FAIL,
                                    anchor_name))
        for i in range(n_new):
            if i >= len(gold_pts):
                cells.append(CellReport(fig.fig_id, s.machine, i, "x",
                                        None, s.x[i], None, FAIL,
                                        anchor_name))
                continue
            gx, gy = gold_pts[i]
            x_ok, x_err = _numeric_match(gx, s.x[i], rule)
            y_ok, y_err = _numeric_match(gy, s.y[i], rule)
            # A cap off the power-of-two schedule appends one final
            # point with no golden counterpart: uncovered, not broken.
            capped_tail = (not full and not x_ok
                           and i == n_new - 1 and n_new < len(gold_pts))
            if capped_tail:
                cells.append(CellReport(fig.fig_id, s.machine, i, "x",
                                        gx, s.x[i], None, UNCOVERED,
                                        anchor_name))
                continue
            cells.append(CellReport(fig.fig_id, s.machine, i, "x",
                                    gx, s.x[i], x_err,
                                    OK if x_ok else FAIL, anchor_name))
            cells.append(CellReport(fig.fig_id, s.machine, i, "y",
                                    gy, s.y[i], y_err,
                                    OK if y_ok else FAIL, anchor_name))
    status = FAIL if any(c.status in (FAIL, MISSING) for c in cells) else OK
    return ItemReport(fig.fig_id, rule.mode, status, tuple(cells))


def _ranking(values: dict[str, float]) -> list[str]:
    """Machines ordered by value descending, name as deterministic tiebreak."""
    return sorted(values, key=lambda m: (-values[m], m))


def _compare_figure_ordering(fig: FigureResult, golden: dict,
                             rule: ToleranceRule) -> ItemReport:
    """Shape-only mode: per x-index, machine ranking must match golden."""
    cells: list[CellReport] = []
    n = min((len(s.x) for s in fig.series), default=0)
    for i in range(n):
        new_vals = {s.machine: s.y[i] for s in fig.series
                    if s.machine in golden and i < len(golden[s.machine])}
        gold_vals = {m: golden[m][i][1] for m in new_vals}
        got, want = _ranking(new_vals), _ranking(gold_vals)
        cells.append(CellReport(
            fig.fig_id, "<ordering>", i, "ranking",
            ">".join(want), ">".join(got), None,
            OK if got == want else FAIL,
            rule.anchor_for(None).name if rule.anchor_for(None) else None,
        ))
    status = FAIL if any(c.status == FAIL for c in cells) else OK
    return ItemReport(fig.fig_id, rule.mode, status, tuple(cells))


def compare_table(table: TableResult, golden: list[list[str]],
                  rule: ToleranceRule, *, full: bool) -> ItemReport:
    """Diff a regenerated table's CSV cells against the golden CSV."""
    if rule.requires_full and not full:
        return ItemReport(table.table_id, rule.mode, UNCOVERED,
                          detail="requires full-range run")
    new_rows = [row for row in csv.reader(table_to_csv(table).splitlines())]
    cells: list[CellReport] = []
    anchor = rule.anchor_for(None)
    anchor_name = anchor.name if anchor else None
    if len(new_rows) != len(golden):
        cells.append(CellReport(table.table_id, "shape", 0, "rows",
                                len(golden), len(new_rows), None, FAIL,
                                anchor_name))
    for r, (new_row, gold_row) in enumerate(zip(new_rows, golden)):
        row_key = new_row[0] if new_row else f"row{r}"
        for c in range(max(len(new_row), len(gold_row))):
            new_c = new_row[c] if c < len(new_row) else None
            gold_c = gold_row[c] if c < len(gold_row) else None
            ok, err = _table_cell_match(gold_c, new_c, rule)
            cells.append(CellReport(table.table_id, row_key, c,
                                    f"col{c}", gold_c, new_c, err,
                                    OK if ok else FAIL, anchor_name))
    status = FAIL if any(cl.status == FAIL for cl in cells) else OK
    return ItemReport(table.table_id, rule.mode, status, tuple(cells))


def _table_cell_match(gold: str | None, new: str | None,
                      rule: ToleranceRule) -> tuple[bool, float | None]:
    if gold is None or new is None:
        return False, None
    if gold == new:
        return True, 0.0
    if rule.mode == "rel":
        # Numeric-prefix cells like "8.702 TF/s": tolerance on the number,
        # exact match on the unit suffix.
        mg, mn = _FLOAT_RE.match(gold), _FLOAT_RE.match(new)
        if mg and mn and gold[mg.end():] == new[mn.end():]:
            e = rel_err(float(mg.group()), float(mn.group()))
            return e <= rule.rtol, e
    return False, None


# ---------------------------------------------------------------------------
# The gate
# ---------------------------------------------------------------------------

def run_golden(figures: list[str], tables: list[str], *,
               results_dir: str | Path, manifest: Manifest,
               max_cpus: int | None = None) -> list[ItemReport]:
    """Regenerate the named items and diff each against ``results_dir``.

    Runs through the ambient executor (install one with
    :func:`repro.exec.using_executor` to parallelise / cache).
    """
    full = max_cpus is None
    reports: list[ItemReport] = []
    clear_figure_caches()
    try:
        for ident in [*tables, *figures]:
            rule = manifest.rule_for(ident)
            if rule.requires_full and not full:
                reports.append(ItemReport(ident, rule.mode, UNCOVERED,
                                          detail="requires full-range run"))
                continue
            scenario = get_scenario(ident)
            compare, load = ((compare_table, load_golden_table)
                             if scenario.kind == "table"
                             else (compare_figure, load_golden_figure))
            reports.append(compare(scenario.run(max_cpus=max_cpus),
                                   load(results_dir, ident), rule, full=full))
    finally:
        # Leave no memoised sweep behind: a perturbed-run cell must never
        # leak into a later figure regeneration in the same process.
        clear_figure_caches()
    return reports
