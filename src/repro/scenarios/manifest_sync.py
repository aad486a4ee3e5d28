"""Tolerance-manifest generation: scenarios are the single source of truth.

``results/TOLERANCES.json`` used to be hand-maintained; it is now
*generated* from the builtin scenarios' :class:`ToleranceSpec` /
:class:`Reference` declarations.  ``python -m repro.scenarios
emit-manifest`` rewrites it; ``check-manifest`` (run in CI and by the
test suite) asserts the committed file equals the generated document,
so a tolerance edit in one place can never drift from the other.

The ``references`` key inside an item entry is written for scenario
round-tripping; the :mod:`repro.validate.manifest` loader ignores keys
it does not know, so older readers are unaffected.
"""

from __future__ import annotations

import json
from pathlib import Path

from .registry import paper_scenarios
from .spec import Reference

#: Manifest schema version written by the generator (v1 was hand-written).
MANIFEST_VERSION = 2

#: Default per-kind tolerances, as the validate layer has always used.
MANIFEST_DEFAULTS = {
    "figure": {"mode": "rel", "rtol": 0.02},
    "table": {"mode": "rel", "rtol": 0.02},
}


def generate_manifest_doc() -> dict:
    """The TOLERANCES.json document implied by the scenario registry."""
    items: dict[str, dict] = {}
    for s in paper_scenarios():
        entry: dict = {}
        if s.tolerance is not None:
            entry.update(s.tolerance.manifest_entry())
        if s.references:
            entry["references"] = {
                m: {metric: ref.to_json()
                    for metric, ref in sorted(refs.items())}
                for m, refs in sorted(s.references.items())
            }
        if entry:
            items[s.scenario_id] = entry
    return {"version": MANIFEST_VERSION, "defaults": MANIFEST_DEFAULTS,
            "items": items}


def render_manifest(doc: dict | None = None) -> str:
    doc = generate_manifest_doc() if doc is None else doc
    return json.dumps(doc, indent=1) + "\n"


def write_manifest(path: str | Path) -> None:
    Path(path).write_text(render_manifest())


def parse_manifest_references(doc: dict) -> dict[str, dict[str, dict[str, Reference]]]:
    """item id -> machine -> metric -> Reference, parsed back from a doc.

    Together with :func:`generate_manifest_doc` this is the round trip
    the property tests pin: scenario references survive the manifest
    encoding losslessly.
    """
    out: dict[str, dict[str, dict[str, Reference]]] = {}
    for item_id, entry in doc.get("items", {}).items():
        refs = entry.get("references")
        if not refs:
            continue
        out[item_id] = {
            machine: {metric: Reference.from_obj(obj)
                      for metric, obj in metrics.items()}
            for machine, metrics in refs.items()
        }
    return out


def check_manifest_sync(path: str | Path) -> tuple[bool, str]:
    """Does the committed manifest equal the generated document?

    Returns ``(ok, message)``; the message names the first difference so
    drift reads as an actionable error.
    """
    path = Path(path)
    try:
        committed = json.loads(path.read_text())
    except FileNotFoundError:
        return False, f"{path} does not exist (run emit-manifest)"
    except json.JSONDecodeError as e:
        return False, f"{path} is not valid JSON: {e}"
    generated = generate_manifest_doc()
    if committed == generated:
        return True, f"{path} matches the scenario registry"
    for key in ("version", "defaults"):
        if committed.get(key) != generated.get(key):
            return False, (f"{path}: {key} differs (committed "
                           f"{committed.get(key)!r}, generated "
                           f"{generated.get(key)!r})")
    c_items = committed.get("items", {})
    g_items = generated.get("items", {})
    for item in sorted(set(c_items) | set(g_items)):
        if item not in g_items:
            return False, (f"{path}: item {item!r} is committed but no "
                           "scenario declares it")
        if item not in c_items:
            return False, (f"{path}: scenario {item!r} declares tolerances "
                           "missing from the committed manifest")
        if c_items[item] != g_items[item]:
            return False, (f"{path}: item {item!r} differs (committed "
                           f"{c_items[item]!r}, generated {g_items[item]!r})")
    return False, f"{path} differs from the generated manifest"

