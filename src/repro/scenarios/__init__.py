"""Declarative scenario registry (ReFrame-style checks).

One :class:`Scenario` object — or one TOML file — declares machines,
benchmark, rank grid, metric extractors, and per-machine references
with asymmetric ``(value, lower_tol, upper_tol)`` tolerances.  The
registry auto-discovers builtins plus ``scenarios/*.toml`` (and
``REPRO_SCENARIO_PATH``); :func:`run_items` runs the distinct points of
any set of scenarios as one batch of the ambient
:class:`~repro.exec.SweepExecutor`, and the ``repro.validate`` gate
runs through it; ``results/TOLERANCES.json`` is generated from these
specs.

See docs/MODEL.md §14 for the spec schema and discovery rules.
"""

from .registry import (
    REPO_SCENARIO_DIR,
    SCENARIO_PATH_ENV,
    all_scenarios,
    get_scenario,
    has_scenario,
    paper_scenarios,
    reload_scenarios,
    scenario_ids,
)
from .runner import (
    ScenarioCheck,
    ScenarioSuiteReport,
    check_scenario,
    check_scenarios,
    run_items,
    run_scenario,
)
from .spec import (
    RankGrid,
    Reference,
    Scenario,
    ScenarioError,
    ToleranceSpec,
)

__all__ = [
    "RankGrid",
    "Reference",
    "REPO_SCENARIO_DIR",
    "SCENARIO_PATH_ENV",
    "Scenario",
    "ScenarioCheck",
    "ScenarioError",
    "ScenarioSuiteReport",
    "ToleranceSpec",
    "all_scenarios",
    "check_scenario",
    "check_scenarios",
    "get_scenario",
    "has_scenario",
    "paper_scenarios",
    "reload_scenarios",
    "run_items",
    "run_scenario",
    "scenario_ids",
]
