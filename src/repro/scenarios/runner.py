"""Running and checking scenarios.

:func:`run_items` regenerates any number of scenarios' figures/tables
from one executor batch; :func:`run_scenario` is its one-item case and
:func:`item_charge` what one item of the batch cost.
:func:`check_scenario` additionally evaluates a scenario's per-machine
references (asymmetric tolerances) and returns a structured verdict the
``repro.validate`` gate embeds in its report.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..exec import get_executor
from .registry import get_scenario
from .spec import Scenario


def _scenario(scenario: str | Scenario) -> Scenario:
    return scenario if isinstance(scenario, Scenario) else get_scenario(scenario)


def run_items(ids: list[str | Scenario],
              max_cpus: int | None = None) -> list:
    """Regenerate several scenarios from one sweep; results in ``ids`` order.

    Every item is planned first, and the first occurrence of each point
    key is kept, so views of one measurement (fig01/fig02, fig03/fig04,
    fig05/table3) share its points.  The distinct points run as one
    ``run_points`` batch of the ambient executor, and each item is
    assembled from its own points' values.  ``ids`` holds scenario ids
    or :class:`Scenario` objects; unknown ids raise before any point
    runs.
    """
    scenarios = [_scenario(i) for i in ids]
    plans = [s.plan(max_cpus) for s in scenarios]
    distinct = {}
    for plan in plans:
        for pt in plan:
            distinct.setdefault(pt.key(), pt)
    values = dict(zip(distinct, get_executor().run_points(
        list(distinct.values())))) if distinct else {}
    return [s.assemble([values[pt.key()] for pt in plan], max_cpus)
            for s, plan in zip(scenarios, plans)]


def run_scenario(scenario: str | Scenario, max_cpus: int | None = None):
    """Regenerate one scenario; returns its FigureResult/TableResult."""
    return run_items([scenario], max_cpus)[0]


def item_charge(scenario: str | Scenario, max_cpus: int | None,
                batch: dict[str, dict]) -> dict:
    """What one item of a :func:`run_items` sweep cost: every point it declares.

    ``batch`` maps point key -> the sweep's ``SweepExecutor.point_log``
    entry.  A point that several items declare is charged to each of
    them; the executor's totals count it once.  ``wall_s`` and
    ``events`` are the points' recorded simulation wall and engine
    events (a cached point carries those of its original computation);
    ``compute_wall_s`` is the part this sweep computed.
    """
    s = _scenario(scenario)
    entries = [batch[pt.key()] for pt in s.plan(max_cpus)]
    computed = [e for e in entries if e["provenance"] != "cached"]
    wall = sum(e["wall_s"] for e in entries)
    events = sum(e["events"] for e in entries)
    return {
        "id": s.scenario_id,
        "wall_s": round(wall, 6),
        "points": len(entries),
        "cache_hits": len(entries) - len(computed),
        "cache_misses": len(computed),
        "events": events,
        "events_per_sec": round(events / wall) if wall > 0 else None,
        "compute_wall_s": round(sum(e["wall_s"] for e in computed), 6),
    }


@dataclass(frozen=True)
class ScenarioCheck:
    """Reference-check verdict for one scenario.

    ``status`` is ``"ok"`` (all references hold), ``"fail"`` (at least
    one measurement left its tolerance band), or ``"uncovered"`` (the
    scenario declares no references checkable at this scale).
    """

    scenario_id: str
    status: str
    checks: tuple[dict, ...] = ()
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status != "fail"

    def to_dict(self) -> dict:
        return {"scenario": self.scenario_id, "status": self.status,
                "checks": list(self.checks), "detail": self.detail}


def _uncovered(s: Scenario, max_cpus: int | None) -> ScenarioCheck | None:
    """The verdict of a scenario with nothing to check at this scale."""
    if not s.references:
        return ScenarioCheck(s.scenario_id, "uncovered",
                             detail="no references declared")
    if max_cpus is not None and s.requires_full_refs:
        return ScenarioCheck(
            s.scenario_id, "uncovered",
            detail=f"references require the full-scale sweep "
                   f"(capped at {max_cpus})")
    return None


def _judge(s: Scenario, result) -> ScenarioCheck:
    """Check a scenario's references against its regenerated result."""
    perf = s.perf_values(result)
    checks = []
    failed = 0
    for machine, refs in sorted(s.references.items()):
        for metric, ref in sorted(refs.items()):
            entry = {"machine": machine, "metric": metric,
                     "reference": ref.to_json()}
            values = perf.get(machine)
            if values is None or metric not in values:
                entry.update(status="fail",
                             detail=f"metric {metric!r} not measured for "
                                    f"machine {machine!r}")
                failed += 1
            else:
                actual = values[metric]
                verdict = ref.check(actual)
                lo, hi = ref.bounds()
                entry.update(actual=actual, status="ok" if verdict == "ok"
                             else "fail")
                if verdict != "ok":
                    bound = lo if verdict == "below" else hi
                    entry["detail"] = (f"{actual:.6g} {verdict} the "
                                       f"{'lower' if verdict == 'below' else 'upper'}"
                                       f" bound {bound:.6g} of {ref.to_json()}")
                    failed += 1
            checks.append(entry)
    status = "fail" if failed else "ok"
    detail = (f"{failed}/{len(checks)} reference checks failed" if failed
              else f"{len(checks)} reference checks passed")
    return ScenarioCheck(s.scenario_id, status, tuple(checks), detail)


def check_scenario(scenario: str | Scenario,
                   max_cpus: int | None = None) -> ScenarioCheck:
    """Run one scenario and judge its references at this scale."""
    (verdict,) = check_scenarios([scenario], max_cpus=max_cpus).checks
    return verdict


@dataclass(frozen=True)
class ScenarioSuiteReport:
    """All scenario checks from one gate run."""

    checks: tuple[ScenarioCheck, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def to_dict(self) -> list[dict]:
        return [c.to_dict() for c in self.checks]


def check_scenarios(ids: list[str | Scenario],
                    max_cpus: int | None = None) -> ScenarioSuiteReport:
    """Judge several scenarios, running the checkable ones in one sweep."""
    scenarios = [_scenario(i) for i in ids]
    skipped = [_uncovered(s, max_cpus) for s in scenarios]
    results = iter(run_items(
        [s for s, v in zip(scenarios, skipped) if v is None], max_cpus))
    return ScenarioSuiteReport(tuple(
        v or _judge(s, next(results)) for s, v in zip(scenarios, skipped)))
