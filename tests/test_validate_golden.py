"""Golden regression gate: manifest, seed-tree pass, perturbation fail."""

import json
from pathlib import Path

import pytest

from repro.exec import worker
from repro.harness.results import FigureResult, FigureSeries
from repro.harness.runner import main as runner_main
from repro.validate import (
    EXIT_REGRESSION,
    ToleranceRule,
    compare_figure,
    load_manifest,
    manifest_path_for,
    run_invariants,
)
from repro.core.errors import ConfigError

REPO = Path(__file__).parents[1]


@pytest.fixture(autouse=True)
def _from_repo_root(monkeypatch):
    """The gate resolves results/ relative to the repo root."""
    monkeypatch.chdir(REPO)


# -- manifest ---------------------------------------------------------------------

def test_manifest_loads_and_covers_every_golden_item():
    manifest = load_manifest(manifest_path_for(REPO / "results"))
    # v2 = generated from the scenario registry (adds "references");
    # the gate's loader stays version-lenient and reads the same rules.
    assert manifest.version == 2
    # Flagship-only items are excluded from capped comparisons.
    assert manifest.rule_for("fig05").requires_full
    assert manifest.rule_for("table3").requires_full
    # Static tables are byte-exact; figures default to 2% headroom.
    assert manifest.rule_for("table1").mode == "exact"
    assert manifest.rule_for("fig06").mode == "rel"
    assert manifest.rule_for("fig06").rtol == 0.02
    # Machine-specific anchors resolve ahead of generic ones.
    rule = manifest.rule_for("fig02")
    assert "SX-8" in rule.anchor_for("sx8").name
    assert rule.anchor_for("nonexistent_machine") is None


def test_missing_manifest_refuses_to_run(tmp_path):
    with pytest.raises(ConfigError, match="tolerance manifest not found"):
        load_manifest(tmp_path / "TOLERANCES.json")


def test_bad_mode_rejected():
    with pytest.raises(ConfigError, match="unknown tolerance mode"):
        ToleranceRule("fig01", mode="fuzzy")


# -- the gate on the seed tree ----------------------------------------------------

def test_gate_passes_on_seed_tree(tmp_path):
    report_path = tmp_path / "report.json"
    rc = runner_main([
        "--validate", "--figure", "1", "--figure", "6", "--table", "1",
        "--max-cpus", "16", "--jobs", "1", "--no-cache",
        "--validate-report", str(report_path),
    ])
    assert rc == 0
    doc = json.loads(report_path.read_text())
    assert doc["status"] == "pass"
    items = {i["item"]: i for i in doc["golden"]["items"]}
    assert items["fig01"]["status"] == "ok"
    assert items["fig01"]["cells_failed"] == 0
    # Capped regeneration is an exact prefix of the committed full run.
    assert items["fig01"]["worst_rel_err"] == 0.0
    assert all(r["passed"] for r in doc["invariants"])


def test_gate_reports_table3_uncovered_under_cap(capsys):
    rc = runner_main(["--validate", "--table", "3",
                      "--max-cpus", "16", "--jobs", "1", "--no-cache"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "uncovered" in out
    assert "VALIDATION PASSED" in out


def test_gate_fails_on_perturbed_calibration(tmp_path, monkeypatch, capsys):
    """A 10% shift in ring bandwidth must break fig02's paper anchors."""
    orig = worker._COMPUTE["ring_hpl"]

    def perturbed(point):
        hpl, acc = orig(point)
        return (hpl, acc * 1.10)

    # jobs=1 keeps the computation in-process, where the patch is visible;
    # --no-cache stops a fingerprint-matched cache from replaying truth.
    monkeypatch.setitem(worker._COMPUTE, "ring_hpl", perturbed)
    report_path = tmp_path / "report.json"
    rc = runner_main([
        "--validate", "--figure", "2", "--max-cpus", "16",
        "--jobs", "1", "--no-cache", "--validate-report", str(report_path),
    ])
    assert rc == EXIT_REGRESSION
    doc = json.loads(report_path.read_text())
    assert doc["status"] == "fail"
    (item,) = doc["golden"]["items"]
    assert item["status"] == "fail"
    assert item["cells_failed"] > 0
    assert 0.08 < item["worst_rel_err"] < 0.10
    assert any("SX-8" in a for a in item["broken_anchors"])
    assert "paper anchor broken" in capsys.readouterr().out


def test_gate_survives_perturbation_then_passes_again(monkeypatch):
    """The perturbed run must not leak memoised values into a clean run."""
    orig = worker._COMPUTE["ring_hpl"]
    monkeypatch.setitem(worker._COMPUTE, "ring_hpl",
                        lambda pt: tuple(v * 2 for v in orig(pt)))
    assert runner_main(["--validate", "--figure", "1", "--max-cpus", "16",
                        "--jobs", "1", "--no-cache"]) == EXIT_REGRESSION
    monkeypatch.setitem(worker._COMPUTE, "ring_hpl", orig)
    assert runner_main(["--validate", "--figure", "1", "--max-cpus", "16",
                        "--jobs", "1", "--no-cache"]) == 0


# -- compare_figure unit behaviour ------------------------------------------------

def _fig(xs, ys, machine="m1"):
    return FigureResult(
        fig_id="figXX", title="t", xlabel="x", ylabel="y",
        series=(FigureSeries(machine=machine, label="M", x=tuple(xs),
                             y=tuple(ys)),),
    )


GOLDEN = {"m1": [(2.0, 10.0), (4.0, 20.0), (8.0, 40.0), (16.0, 80.0)]}


def test_compare_figure_prefix_match_ok():
    rep = compare_figure(_fig([2.0, 4.0], [10.0, 20.0]), GOLDEN,
                         ToleranceRule("figXX"), full=False)
    assert rep.status == "ok"


def test_compare_figure_off_schedule_tail_is_uncovered():
    # --max-cpus 6: the final point (x=6) has no golden counterpart.
    rep = compare_figure(_fig([2.0, 4.0, 6.0], [10.0, 20.0, 30.0]), GOLDEN,
                         ToleranceRule("figXX"), full=False)
    assert rep.status == "ok"
    assert any(c.status == "uncovered" and c.index == 2 for c in rep.cells)


def test_compare_figure_value_drift_fails():
    rep = compare_figure(_fig([2.0, 4.0], [10.0, 21.0]), GOLDEN,
                         ToleranceRule("figXX", rtol=0.02), full=False)
    assert rep.status == "fail"
    (bad,) = rep.failed_cells
    assert bad.index == 1 and bad.column == "y"
    assert bad.rel_err == pytest.approx(1 / 21)


def test_compare_figure_full_run_length_mismatch_fails():
    rep = compare_figure(_fig([2.0, 4.0], [10.0, 20.0]), GOLDEN,
                         ToleranceRule("figXX"), full=True)
    assert rep.status == "fail"
    assert any(c.column == "length" for c in rep.failed_cells)


def test_compare_figure_missing_series_fails():
    rep = compare_figure(_fig([2.0], [10.0], machine="ghost"), GOLDEN,
                         ToleranceRule("figXX"), full=False)
    assert rep.status == "fail"
    assert rep.cells[0].status == "missing"


def test_compare_figure_ordering_mode_tracks_ranking():
    golden = {"a": [(2.0, 5.0)], "b": [(2.0, 3.0)]}
    fig = FigureResult(
        fig_id="figXX", title="t", xlabel="x", ylabel="y",
        series=(FigureSeries("a", "A", (2.0,), (1.0,)),
                FigureSeries("b", "B", (2.0,), (2.0,))),
    )
    rep = compare_figure(fig, golden, ToleranceRule("figXX", mode="ordering"),
                         full=False)
    assert rep.status == "fail"
    assert rep.cells[0].expected == "a>b"
    assert rep.cells[0].actual == "b>a"


# -- metamorphic invariants -------------------------------------------------------

def test_invariants_pass_at_small_scale():
    results = run_invariants(max_cpus=8, jobs=2)
    assert [r.name for r in results] == [
        "kiviat_normalisation", "balance_monotone", "determinism",
        "hpcc_verification",
    ]
    for r in results:
        assert r.passed, f"{r.name}: {r.detail}"
