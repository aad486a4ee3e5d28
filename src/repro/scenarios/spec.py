"""Declarative scenario specification (ReFrame-style checks).

A :class:`Scenario` is one declarative object describing a complete
reproduction experiment: which machines run, which benchmark, over which
rank grid, which metrics are extracted, and — per machine — reference
values with *asymmetric* tolerances.  Scenarios fan out through the
ambient :class:`~repro.exec.SweepExecutor` (so ``--jobs``, exec
backends, and the on-disk cache all apply) and are checked by the
``repro.validate`` gate.

Reference semantics (mirroring ReFrame's ``(value, lower, upper)``
convention): a reference ``(v, lo, hi)`` accepts any measured ``x`` with

    v - lo * |v|  <=  x  <=  v + hi * |v|

where ``lo``/``hi`` are non-negative fractions and ``None`` leaves that
side unbounded.  Bounds are inclusive; the scaling by ``|v|`` keeps the
interval orientation correct for negative reference values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..core.errors import ConfigError


class ScenarioError(ConfigError):
    """Raised for malformed, unknown, or colliding scenario definitions."""


# ---------------------------------------------------------------------------
# References and tolerances
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Reference:
    """A per-machine expected value with asymmetric fractional tolerance."""

    value: float
    lower_tol: float | None = None
    upper_tol: float | None = None

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ScenarioError(f"reference value must be finite, got {self.value!r}")
        for name in ("lower_tol", "upper_tol"):
            tol = getattr(self, name)
            if tol is None:
                continue
            if not math.isfinite(tol) or tol < 0:
                raise ScenarioError(
                    f"reference {name} must be a non-negative fraction or "
                    f"None, got {tol!r}")

    def bounds(self) -> tuple[float | None, float | None]:
        """Inclusive (lower, upper) bounds; ``None`` means unbounded."""
        scale = abs(self.value)
        lo = None if self.lower_tol is None else self.value - self.lower_tol * scale
        hi = None if self.upper_tol is None else self.value + self.upper_tol * scale
        return lo, hi

    def check(self, actual: float) -> str:
        """Classify a measurement: ``"ok"``, ``"below"``, or ``"above"``."""
        lo, hi = self.bounds()
        if lo is not None and actual < lo:
            return "below"
        if hi is not None and actual > hi:
            return "above"
        return "ok"

    def to_json(self) -> list:
        return [self.value, self.lower_tol, self.upper_tol]

    @classmethod
    def from_obj(cls, obj) -> "Reference":
        """Parse ``value`` / ``[value]`` / ``[value, lo]`` / ``[value, lo, hi]``."""
        if isinstance(obj, (int, float)) and not isinstance(obj, bool):
            return cls(float(obj))
        if isinstance(obj, (list, tuple)) and 1 <= len(obj) <= 3:
            vals = list(obj) + [None] * (3 - len(obj))
            value, lo, hi = vals
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ScenarioError(f"reference value must be a number, got {value!r}")
            def tol(t):
                if t is None:
                    return None
                if not isinstance(t, (int, float)) or isinstance(t, bool):
                    raise ScenarioError(f"reference tolerance must be a number or null, got {t!r}")
                return float(t)
            return cls(float(value), tol(lo), tol(hi))
        raise ScenarioError(
            f"malformed reference {obj!r}: expected a number or "
            "[value, lower_tol, upper_tol]")


@dataclass(frozen=True)
class ToleranceSpec:
    """The scenario's entry in the golden-diff tolerance manifest.

    Mirrors :class:`repro.validate.manifest.ToleranceRule` but lives on
    the scenario so ``results/TOLERANCES.json`` can be *generated* from
    the registry (``repro.scenarios.manifest_sync``).  ``None`` fields
    fall through to the manifest's per-kind defaults.
    """

    mode: str | None = None            # "rel" | "exact" | "ordering"
    rtol: float | None = None
    requires_full: bool = False
    anchors: tuple[tuple[str, str | None], ...] = ()
    notes: str = ""

    def __post_init__(self):
        if self.mode not in (None, "rel", "exact", "ordering"):
            raise ScenarioError(f"unknown tolerance mode {self.mode!r}")

    def manifest_entry(self) -> dict:
        """The item entry exactly as written to TOLERANCES.json."""
        entry: dict = {}
        if self.mode is not None:
            entry["mode"] = self.mode
        if self.rtol is not None:
            entry["rtol"] = self.rtol
        if self.requires_full:
            entry["requires_full"] = True
        if self.anchors:
            entry["anchors"] = [
                {"name": name} if machine is None else
                {"name": name, "machine": machine}
                for name, machine in self.anchors
            ]
        if self.notes:
            entry["notes"] = self.notes
        return entry


# ---------------------------------------------------------------------------
# Rank grids
# ---------------------------------------------------------------------------

def cap_cpus(machine, max_cpus: int | None, floor: int = 2) -> int:
    """The largest CPU count a machine contributes under a global cap."""
    cap = machine.max_cpus if max_cpus is None else min(max_cpus, machine.max_cpus)
    return max(cap, floor)


@dataclass(frozen=True)
class RankGrid:
    """Which CPU counts a scenario sweeps on each machine.

    With explicit ``counts`` the grid is those values filtered by the
    machine's (possibly capped) maximum; otherwise it is the machine's
    power-of-two sweep from ``start``.
    """

    start: int = 2
    counts: tuple[int, ...] = ()

    def __post_init__(self):
        if self.start < 1:
            raise ScenarioError(f"rank grid start must be >= 1, got {self.start}")
        if any((not isinstance(c, int)) or c < 1 for c in self.counts):
            raise ScenarioError(f"rank grid counts must be positive ints, got {self.counts!r}")

    def resolve(self, machine, max_cpus: int | None) -> list[int]:
        cap = cap_cpus(machine, max_cpus, floor=min(self.counts) if self.counts else self.start)
        if self.counts:
            picked = [c for c in sorted(set(self.counts)) if c <= cap]
            if not picked:
                raise ScenarioError(
                    f"rank grid {sorted(set(self.counts))} has no count <= "
                    f"{cap} on machine {machine.name!r}")
            return picked
        return machine.cpu_counts(start=self.start, maximum=cap)


# ---------------------------------------------------------------------------
# Scenario base class
# ---------------------------------------------------------------------------

class Scenario:
    """Base class for declarative scenarios.

    Subclasses implement :meth:`plan` (the SimPoint fan-out) and
    :meth:`assemble` (points' values -> FigureResult/TableResult).
    :func:`repro.scenarios.run_items` wires the two through the ambient
    executor for any number of scenarios; ``run()`` is its one-item
    case.
    """

    #: "figure" or "table" — decides rendering and artifact naming.
    kind = "figure"
    #: Where the scenario came from: "builtin" or the TOML file path.
    source = "builtin"

    def __init__(self, scenario_id: str, *, title: str = "",
                 description: str = "", tags: tuple[str, ...] = (),
                 tolerance: ToleranceSpec | None = None,
                 references: dict[str, dict[str, Reference]] | None = None,
                 requires_full_refs: bool = False):
        if not scenario_id or not isinstance(scenario_id, str):
            raise ScenarioError(f"scenario id must be a non-empty string, got {scenario_id!r}")
        self.scenario_id = scenario_id
        self.title = title
        self.description = description
        self.tags = tuple(tags)
        self.tolerance = tolerance
        self.references = dict(references or {})
        #: True when references are only meaningful at full scale (sweep
        #: endpoints move under ``max_cpus`` caps).
        self.requires_full_refs = requires_full_refs

    # -- execution ---------------------------------------------------------

    def plan(self, max_cpus: int | None = None) -> list:
        """The scenario's SimPoint fan-out (may be empty for analytic ones)."""
        return []

    def assemble(self, values: list, max_cpus: int | None = None):
        raise NotImplementedError

    def run(self, max_cpus: int | None = None):
        from .runner import run_items
        return run_items([self], max_cpus)[0]

    # -- metrics -----------------------------------------------------------

    def perf_values(self, result) -> dict[str, dict[str, float]]:
        """machine -> metric name -> measured value, for reference checks.

        The default extracts endpoint/extremum metrics from figure
        series; table scenarios override this to expose their columns.
        """
        out: dict[str, dict[str, float]] = {}
        series = getattr(result, "series", None)
        if series:
            for s in series:
                out[s.machine] = {
                    "y_first": s.y[0], "y_last": s.y[-1],
                    "y_min": min(s.y), "y_max": max(s.y),
                }
        return out

    # -- introspection -----------------------------------------------------

    def machine_names(self) -> tuple[str, ...]:
        return ()

    def describe(self) -> dict:
        return {
            "id": self.scenario_id,
            "kind": self.kind,
            "source": self.source,
            "title": self.title,
            "tags": list(self.tags),
            "machines": list(self.machine_names()),
            "references": {
                m: {metric: ref.to_json() for metric, ref in refs.items()}
                for m, refs in self.references.items()
            },
        }

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.scenario_id!r}>"


def parse_references(obj, *, where: str = "") -> dict[str, dict[str, Reference]]:
    """Parse ``{machine: {metric: ref}}`` from TOML/JSON data."""
    if obj is None:
        return {}
    ctx = f" in {where}" if where else ""
    if not isinstance(obj, dict):
        raise ScenarioError(f"references{ctx} must be a table, got {type(obj).__name__}")
    out: dict[str, dict[str, Reference]] = {}
    for machine, metrics in obj.items():
        if not isinstance(metrics, dict):
            raise ScenarioError(
                f"references[{machine!r}]{ctx} must map metric -> reference")
        out[str(machine)] = {
            str(metric): Reference.from_obj(ref)
            for metric, ref in metrics.items()
        }
    return out
