"""Rendering of figures/tables: ASCII for the terminal, CSV/JSON for files.

:func:`render_result` and :func:`save_result` take either result type;
they are the one place that decides "table or figure?" for a result.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
from pathlib import Path

from .plot import render_ascii_plot
from .results import FigureResult, TableResult


def render_table(table: TableResult) -> str:
    """Fixed-width ASCII rendering of a TableResult."""
    headers = [str(h) for h in table.headers]
    rows = [[str(c) for c in row] for row in table.rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    sep = "-+-".join("-" * w for w in widths)

    def fmt(cells):
        return " | ".join(c.ljust(w) for c, w in zip(cells, widths))

    out = [table.title, "=" * len(table.title), fmt(headers), sep]
    out += [fmt(row) for row in rows]
    if table.notes:
        out += ["", f"note: {table.notes}"]
    return "\n".join(out)


def render_figure(fig: FigureResult, x_fmt: str = "{:.4g}",
                  y_fmt: str = "{:.4g}") -> str:
    """Series-table rendering of a FigureResult."""
    out = [f"{fig.fig_id}: {fig.title}",
           "=" * (len(fig.fig_id) + len(fig.title) + 2),
           f"x = {fig.xlabel}; y = {fig.ylabel}", ""]
    for s in fig.series:
        out.append(f"-- {s.label}")
        xs = "  ".join(x_fmt.format(x) for x in s.x)
        ys = "  ".join(y_fmt.format(y) for y in s.y)
        out.append(f"   x: {xs}")
        out.append(f"   y: {ys}")
    if fig.notes:
        out += ["", f"note: {fig.notes}"]
    return "\n".join(out)


def figure_to_csv(fig: FigureResult) -> str:
    """Long-format CSV (machine, label, x, y)."""
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["figure", "machine", "label", fig.xlabel, fig.ylabel])
    for s in fig.series:
        for x, y in zip(s.x, s.y):
            w.writerow([fig.fig_id, s.machine, s.label, x, y])
    return buf.getvalue()


def table_to_csv(table: TableResult) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(table.headers)
    w.writerows(table.rows)
    return buf.getvalue()


def figure_to_json(fig: FigureResult) -> str:
    """JSON document with full series data and metadata."""
    doc = {
        "fig_id": fig.fig_id,
        "title": fig.title,
        "xlabel": fig.xlabel,
        "ylabel": fig.ylabel,
        "notes": fig.notes,
        "series": [dataclasses.asdict(s) for s in fig.series],
    }
    return json.dumps(doc, indent=1)


def table_to_json(table: TableResult) -> str:
    doc = {
        "table_id": table.table_id,
        "title": table.title,
        "headers": list(table.headers),
        "rows": [list(r) for r in table.rows],
        "notes": table.notes,
    }
    return json.dumps(doc, indent=1)


def save_figure(fig: FigureResult, out_dir: str | Path) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{fig.fig_id}.csv"
    path.write_text(figure_to_csv(fig))
    (out / f"{fig.fig_id}.txt").write_text(render_figure(fig) + "\n")
    (out / f"{fig.fig_id}.json").write_text(figure_to_json(fig) + "\n")
    return path


def save_table(table: TableResult, out_dir: str | Path) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{table.table_id}.csv"
    path.write_text(table_to_csv(table))
    (out / f"{table.table_id}.txt").write_text(render_table(table) + "\n")
    (out / f"{table.table_id}.json").write_text(table_to_json(table) + "\n")
    return path


def render_result(result: FigureResult | TableResult, *,
                  plot: bool = False) -> str:
    """Terminal rendering of either result type.

    ``plot`` appends the ASCII log-log chart to figures; tables have none.
    """
    if isinstance(result, TableResult):
        return render_table(result)
    text = render_figure(result)
    return f"{text}\n\n{render_ascii_plot(result)}" if plot else text


def save_result(result: FigureResult | TableResult,
                out_dir: str | Path) -> Path:
    """Write ``<id>.csv/.txt/.json`` for either result type."""
    if isinstance(result, TableResult):
        return save_table(result, out_dir)
    return save_figure(result, out_dir)
