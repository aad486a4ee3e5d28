"""ASCII plotting for figure results.

Renders a :class:`~repro.harness.results.FigureResult` as a log-log
scatter chart in plain text — enough to eyeball the orderings and
crossovers the paper's figures show, without any plotting dependency.

Each series gets a letter marker; collisions show the later series'
marker with a ``*``.
"""

from __future__ import annotations

import math

from .results import FigureResult

MARKERS = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"


def _log_positions(values: list[float], lo: float, hi: float,
                   cells: int) -> list[int]:
    if hi <= lo:
        return [0 for _ in values]
    span = math.log10(hi) - math.log10(lo)
    out = []
    for v in values:
        frac = (math.log10(v) - math.log10(lo)) / span
        out.append(min(cells - 1, max(0, int(round(frac * (cells - 1))))))
    return out


def render_ascii_plot(fig: FigureResult, width: int = 64,
                      height: int = 18) -> str:
    """Log-log ASCII chart of every series in the figure."""
    pts = [(x, y, i) for i, s in enumerate(fig.series)
           for x, y in zip(s.x, s.y) if x > 0 and y > 0]
    if not pts:
        return f"{fig.fig_id}: no positive data to plot"
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)

    grid = [[" "] * width for _ in range(height)]
    cols = _log_positions(xs, x_lo, x_hi, width)
    rows = _log_positions(ys, y_lo, y_hi, height)
    for (x, y, i), c, r in zip(pts, cols, rows):
        r = height - 1 - r  # origin bottom-left
        mark = MARKERS[i % len(MARKERS)]
        grid[r][c] = mark if grid[r][c] == " " else "*"

    out = [f"{fig.fig_id}: {fig.title}"]
    out.append(f"y: {fig.ylabel}  [{y_lo:.3g} .. {y_hi:.3g}] (log)")
    border = "+" + "-" * width + "+"
    out.append(border)
    for row in grid:
        out.append("|" + "".join(row) + "|")
    out.append(border)
    out.append(f"x: {fig.xlabel}  [{x_lo:.3g} .. {x_hi:.3g}] (log)")
    legend = "  ".join(
        f"{MARKERS[i % len(MARKERS)]}={s.label}"
        for i, s in enumerate(fig.series)
    )
    out.append(legend)
    return "\n".join(out)
