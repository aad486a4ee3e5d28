"""The stable public API surface of :mod:`repro`.

User scripts, service workers, and downstream tooling should import from
here (or from :mod:`repro` itself, which re-exports everything in
``__all__``) instead of reaching into deep modules — the deep paths are
implementation detail and may move; this surface is covenanted.

The surface:

* **Running paper items** — :func:`run_figure` / :func:`run_table`
  regenerate any figure or table by id (``"fig06"``, ``6``, ``"table2"``
  all accepted), and :func:`run_item` any registered scenario as well;
  each is a lookup in the scenario registry (:mod:`repro.scenarios`)
  run through whatever executor is ambient; :func:`resolve_item` is the
  lookup alone.
* **Execution** — :class:`~repro.exec.points.SimPoint`,
  :class:`~repro.exec.executor.SweepExecutor`, :func:`using_executor`,
  :func:`get_executor`, :class:`~repro.exec.cache.ResultCache`.
* **Configuration** — :class:`~repro.config.ReproConfig`, the single
  flag/env/default resolver every entry point shares.
* **Service** — :class:`~repro.service.queue.JobQueue`, the async job
  queue behind ``python -m repro.service``.
* **Validation** — :func:`validate`, the golden/invariant/fuzz gate.

Heavy subsystems (the scenario registry, the service, the validation gate)
are imported lazily so ``import repro`` stays light.
"""

from __future__ import annotations

from typing import Any

from .config import ReproConfig, default_jobs
from .exec.cache import ResultCache
from .exec.executor import SweepExecutor, get_executor, using_executor
from .exec.points import SimPoint

__all__ = [
    "JobQueue",
    "ReproConfig",
    "ResultCache",
    "SimPoint",
    "SweepExecutor",
    "default_jobs",
    "get_executor",
    "list_scenarios",
    "normalize_figure_id",
    "normalize_item_id",
    "normalize_table_id",
    "resolve_item",
    "run_figure",
    "run_item",
    "run_scenario",
    "run_table",
    "using_executor",
    "validate",
]


# -- id normalisation --------------------------------------------------------

def normalize_figure_id(figure: int | str) -> str:
    """Canonical ``figNN`` id from ``6``, ``"6"``, ``"fig6"``, ``"fig06"``.

    Raises :class:`ValueError` unless the number is plain digits;
    existence against the registry is checked by :func:`run_figure`.
    """
    raw = str(figure).lower().removeprefix("fig")
    if not raw.isdigit():
        raise ValueError(f"invalid figure id {figure!r}")
    return f"fig{int(raw):02d}"


def normalize_table_id(table: int | str) -> str:
    """Canonical ``tableN`` id from ``2``, ``"2"``, or ``"table2"``."""
    raw = str(table).lower().removeprefix("table")
    if not raw.isdigit():
        raise ValueError(f"invalid table id {table!r}")
    return f"table{int(raw)}"


def normalize_item_id(item: int | str) -> str:
    """Canonical id for a mixed figure/table/scenario identifier.

    An exact registered scenario id wins (so the service can submit
    e.g. ``app_cg`` by name); otherwise ``table<digits>`` is a table
    and bare numbers or ``fig<digits>`` are figures (matching the CLI's
    ``--figure`` shorthand).
    """
    from .scenarios import has_scenario

    s = str(item)
    if has_scenario(s):
        return s
    norm = (normalize_table_id if s.lower().startswith("table")
            else normalize_figure_id)
    try:
        return norm(s)
    except ValueError:
        raise ValueError(
            f"unknown item {item!r}: not a figure/table id or a "
            "registered scenario name") from None


# -- running paper items -----------------------------------------------------

def _paper_scenario(raw: int | str, ident: str, kind: str):
    from .scenarios import get_scenario
    from .scenarios.builtin import PAPER_FIGURE_IDS, PAPER_TABLE_IDS

    known = PAPER_TABLE_IDS if kind == "table" else PAPER_FIGURE_IDS
    if ident not in known:
        raise KeyError(f"unknown {kind} {raw!r} (known: {', '.join(known)})")
    return get_scenario(ident)


def _run_paper_item(raw: int | str, ident: str, kind: str,
                    max_cpus: int | None):
    return _paper_scenario(raw, ident, kind).run(max_cpus=max_cpus)


def run_figure(figure: int | str, max_cpus: int | None = None):
    """Regenerate one paper figure; returns its ``FigureResult``.

    Runs through the ambient executor — install one with
    :func:`using_executor` (or build one from :class:`ReproConfig`) to
    parallelise or cache.
    """
    return _run_paper_item(figure, normalize_figure_id(figure), "figure",
                           max_cpus)


def run_table(table: int | str, max_cpus: int | None = None):
    """Regenerate one paper table; returns its ``TableResult``.

    Tables that do not sweep CPUs (1, 2 and 4) ignore ``max_cpus``.
    """
    return _run_paper_item(table, normalize_table_id(table), "table",
                           max_cpus)


def resolve_item(item: str):
    """The registered scenario behind a figure, table or scenario id.

    Runs nothing; an unregistered ``figNN`` / ``tableN`` raises the
    :class:`KeyError` of :func:`run_figure` / :func:`run_table`.
    """
    from .scenarios import get_scenario, has_scenario

    ident = normalize_item_id(item)
    if has_scenario(ident):
        return get_scenario(ident)
    kind = "table" if ident.startswith("table") else "figure"
    return _paper_scenario(ident, ident, kind)


def run_item(item: str, max_cpus: int | None = None):
    """Regenerate one figure, table or scenario by (normalised) id."""
    from .scenarios import has_scenario

    ident = normalize_item_id(item)
    if has_scenario(ident):
        return run_scenario(ident, max_cpus=max_cpus)
    # An unregistered figNN / tableN: the typed runner names the known ids.
    run = run_table if ident.startswith("table") else run_figure
    return run(ident, max_cpus=max_cpus)


def run_scenario(scenario: str, max_cpus: int | None = None):
    """Regenerate one registered scenario by name.

    Scenarios are the declarative layer behind every figure/table (see
    :mod:`repro.scenarios`): builtins plus any ``scenarios/*.toml`` /
    ``REPRO_SCENARIO_PATH`` files.  Raises
    :class:`~repro.scenarios.ScenarioError` for unknown names.
    """
    from .scenarios import run_scenario as _run

    return _run(scenario, max_cpus=max_cpus)


def list_scenarios() -> tuple[str, ...]:
    """Ids of every registered scenario (builtin + discovered TOML)."""
    from .scenarios import scenario_ids

    return scenario_ids()


# -- validation --------------------------------------------------------------

def validate(**kwargs) -> Any:
    """Run the validation gate; returns its ``ValidationReport``.

    Thin stable wrapper over
    :func:`repro.validate.gate.run_validation` — see there for the
    keyword arguments (``figures``, ``tables``, ``max_cpus``,
    ``golden``, ``invariants``, ``fuzz_configs`` ...).
    """
    from .validate.gate import run_validation

    return run_validation(**kwargs)


# -- lazy attributes ---------------------------------------------------------

def __getattr__(name: str):
    if name == "JobQueue":
        from .service.queue import JobQueue
        return JobQueue
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
