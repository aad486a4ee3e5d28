"""Experiment harness: render, export and report the paper's items.

The items themselves — every figure and table — are declared in the
scenario registry (:mod:`repro.scenarios`); run one with
``repro.run_figure`` / ``repro.run_table`` or ``python -m repro.harness``.
"""

from .dashboard import (
    REPORT_SCHEMA_VERSION,
    build_run_doc,
    read_report_doc,
    render_html,
    write_report,
)
from .extended import (
    message_size_sweep,
    onesided_comparison,
    sequel_study,
    size_sweep_figure,
    sweep_sizes,
)
from .plot import render_ascii_plot
from .report import (
    figure_to_csv,
    figure_to_json,
    render_figure,
    render_result,
    render_table,
    save_figure,
    save_result,
    save_table,
    table_to_csv,
    table_to_json,
)
from .results import FigureResult, FigureSeries, TableResult

__all__ = [
    "FigureResult",
    "FigureSeries",
    "TableResult",
    "render_figure", "render_table", "render_result", "render_ascii_plot",
    "figure_to_csv", "table_to_csv", "figure_to_json", "table_to_json",
    "message_size_sweep", "size_sweep_figure", "sweep_sizes",
    "onesided_comparison", "sequel_study",
    "save_figure", "save_table", "save_result",
    "REPORT_SCHEMA_VERSION", "build_run_doc", "read_report_doc",
    "render_html", "write_report",
]
