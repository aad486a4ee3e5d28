"""Result containers shared by the harness and the scenario registry.

These are the leaf dataclasses every layer above the executor speaks:
figures are labelled series, tables are header+rows.  The scenario
registry (:mod:`repro.scenarios`) builds them; the harness renders and
saves them (:mod:`repro.harness.report`).
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class FigureSeries:
    """One machine's curve within a figure."""

    machine: str
    label: str
    x: tuple[float, ...]
    y: tuple[float, ...]


@dataclass(frozen=True)
class FigureResult:
    """A regenerated paper figure: labelled series plus metadata."""

    fig_id: str
    title: str
    xlabel: str
    ylabel: str
    series: tuple[FigureSeries, ...]
    notes: str = ""
    extra: dict = field(default_factory=dict)

    def by_machine(self, name: str) -> FigureSeries:
        for s in self.series:
            if s.machine == name:
                return s
        raise KeyError(name)


@dataclass(frozen=True)
class TableResult:
    table_id: str
    title: str
    headers: tuple[str, ...]
    rows: tuple[tuple, ...]
    notes: str = ""
