"""The declarative scenario registry: discovery, TOML, CLIs.

``run_figure``/``run_table`` run the same registered scenario objects as
``run_scenario``, and the golden gate checks every paper item's values,
so this module pins the registry, TOML loading and the CLIs instead.
"""

import json

import pytest

from repro.api import run_item, run_scenario
from repro.exec.cache import ResultCache
from repro.exec.executor import SweepExecutor, using_executor
from repro.harness.runner import main as runner_main
from repro.scenarios import (
    Reference,
    ScenarioError,
    check_scenario,
    get_scenario,
    has_scenario,
    reload_scenarios,
    run_items,
    scenario_ids,
)
from repro.scenarios.__main__ import main as scenarios_main
from repro.scenarios.builtin import PAPER_FIGURE_IDS, PAPER_TABLE_IDS
from repro.scenarios.registry import REPO_SCENARIO_DIR, SCENARIO_PATH_ENV

#: Ids of the committed scenarios/*.toml examples.
REPO_TOML_IDS = ("app_amr", "app_cg", "app_spectral",
                 "fat_xeon_alltoall", "fault_slow_node")


@pytest.fixture(scope="module")
def shared_executor(tmp_path_factory):
    """One cached executor for the whole module: a point shared by
    several tests is computed once."""
    cache = ResultCache(tmp_path_factory.mktemp("scenario_cache"))
    executor = SweepExecutor(jobs=4, cache=cache)
    with using_executor(executor):
        yield executor
    executor.close()


@pytest.fixture
def scenario_dir(tmp_path, monkeypatch):
    """A temp dir on REPRO_SCENARIO_PATH; registry restored afterwards."""
    monkeypatch.setenv(SCENARIO_PATH_ENV, str(tmp_path))
    reload_scenarios()
    yield tmp_path
    monkeypatch.delenv(SCENARIO_PATH_ENV)
    reload_scenarios()


# -- discovery ---------------------------------------------------------------

def test_registry_lists_exactly_the_expected_ids():
    expected = PAPER_FIGURE_IDS + PAPER_TABLE_IDS + REPO_TOML_IDS
    assert scenario_ids() == expected


def test_builtin_scenarios_carry_the_paper_tag():
    for sid in PAPER_FIGURE_IDS + PAPER_TABLE_IDS:
        assert "paper" in get_scenario(sid).tags


def test_get_scenario_unknown_id_names_the_registry():
    with pytest.raises(ScenarioError, match="unknown scenario 'fig99'"):
        get_scenario("fig99")


def test_describe_is_json_able():
    doc = get_scenario("fig02").describe()
    json.dumps(doc)
    assert doc["id"] == "fig02"
    assert doc["machines"]
    assert "sx8" in doc["references"]


@pytest.mark.parametrize("sid", REPO_TOML_IDS)
def test_committed_toml_scenarios_execute(shared_executor, sid):
    fig = run_scenario(sid, max_cpus=16)
    assert fig.fig_id == sid
    for s in fig.series:
        assert len(s.x) == len(s.y) >= 1
        assert all(v >= 0 for v in s.y)


def test_run_item_routes_scenario_names(shared_executor):
    fig = run_item("app_cg", max_cpus=8)
    assert fig.fig_id == "app_cg"
    assert {s.machine for s in fig.series} == {"xeon", "altix_nl3"}


# -- one sweep across items --------------------------------------------------

def test_run_items_computes_each_distinct_point_once():
    """Views of one measurement share its points: fig01/fig02 plan the
    same ring sweep and fig05/table3 the same flagship runs."""
    ids = ["fig01", "fig02", "fig05", "table3"]
    distinct = {pt.key() for sid in ids for pt in get_scenario(sid).plan(8)}
    planned = sum(len(get_scenario(sid).plan(8)) for sid in ids)
    assert len(distinct) < planned
    with SweepExecutor(jobs=1, cache=None, backend="inline") as ex, \
            using_executor(ex):
        results = run_items(ids, max_cpus=8)
    st = ex.stats()
    assert st["points"] == st["cache_misses"] == len(distinct)
    assert sorted(e["point"] for e in ex.point_log) == sorted(distinct)
    # Equal to the items run one at a time, each on a fresh executor
    # (compared by repr: fig05's uncovered columns hold NaN maxima).
    for sid, result in zip(ids, results):
        with SweepExecutor(jobs=1, cache=None, backend="inline") as one, \
                using_executor(one):
            assert repr(run_scenario(sid, max_cpus=8)) == repr(result)


def test_run_items_keeps_duplicates_and_order():
    with SweepExecutor(jobs=1, cache=None, backend="inline") as ex, \
            using_executor(ex):
        a, b, c = run_items(["table2", "fig06", "fig06"], max_cpus=4)
    assert (a.table_id, b.fig_id) == ("table2", "fig06") and b == c
    assert ex.stats()["points"] == len(get_scenario("fig06").plan(4))


def test_run_items_unknown_id_raises_before_running():
    with SweepExecutor(jobs=1, cache=None, backend="inline") as ex, \
            using_executor(ex):
        with pytest.raises(ScenarioError, match="unknown scenario"):
            run_items(["fig06", "fig99"], max_cpus=4)
    assert ex.stats()["points"] == 0


# -- reference checks --------------------------------------------------------

def test_check_scenario_no_references_is_uncovered(shared_executor):
    verdict = check_scenario("app_cg", max_cpus=8)
    assert verdict.status == "uncovered"
    assert verdict.ok


def test_check_scenario_requires_full_refs_uncovered_under_cap():
    # fig02's endpoint references only exist at full scale; capped runs
    # must report uncovered without computing anything.
    verdict = check_scenario("fig02", max_cpus=8)
    assert verdict.status == "uncovered"
    assert "full-scale" in verdict.detail


def test_check_scenario_table4_references_hold(shared_executor):
    # table4 is analytic (never capped), so its references check for real.
    verdict = check_scenario("table4", max_cpus=8)
    assert verdict.status == "ok"
    machines = {c["machine"] for c in verdict.checks}
    assert "bluegene_p" in machines
    for c in verdict.checks:
        assert c["status"] == "ok"
        assert "actual" in c


def test_check_scenario_failure_reports_the_bound(shared_executor):
    s = get_scenario("table4")
    bad = dict(s.references)
    bad["bluegene_p"] = {"mflops_per_w": Reference(1.0, 0.1, 0.1)}
    patched = type(s)(
        "table4_bad", build=s._build, tolerance=s.tolerance,
        references=bad,
    )
    verdict = check_scenario(patched)
    assert verdict.status == "fail"
    failing = [c for c in verdict.checks if c["status"] == "fail"]
    assert failing and "above the upper bound" in failing[0]["detail"]


# -- TOML discovery: the zero-edit extension point ---------------------------

SAMPLE_TOML = """\
[scenario]
id = "tiny_bcast"
title = "Bcast on a shrunken Xeon"

[machines.tiny_xeon]
base = "xeon"
max_cpus = 16
label = "Tiny Xeon"

[workload]
kind = "imb"
benchmark = "Bcast"
msg_bytes = 4096

[grid]
counts = [4, 16]
"""


def test_toml_scenario_discovered_and_runs(scenario_dir, shared_executor):
    (scenario_dir / "tiny_bcast.toml").write_text(SAMPLE_TOML)
    reload_scenarios()
    assert has_scenario("tiny_bcast")
    fig = run_scenario("tiny_bcast")
    (series,) = fig.series
    assert series.machine == "tiny_xeon"
    assert series.label == "Tiny Xeon"
    assert series.x == (4.0, 16.0)
    assert all(v > 0 for v in series.y)


def test_toml_scenario_points_salt_the_cache_key(scenario_dir):
    (scenario_dir / "tiny_bcast.toml").write_text(SAMPLE_TOML)
    reload_scenarios()
    from repro.exec.points import SimPoint

    points = get_scenario("tiny_bcast").plan()
    assert all(p.param("machine_base") == "xeon" for p in points)
    assert all(p.param("machine_cpus") == 16 for p in points)
    # A different projection of the same base must never share entries.
    other = SimPoint.make("imb", "tiny_xeon", 4, benchmark="Bcast",
                          msg_bytes=4096, machine_base="xeon",
                          machine_cpus=64)
    assert other.key() != points[0].key()


def test_duplicate_scenario_id_is_an_error(scenario_dir):
    clash = SAMPLE_TOML.replace('id = "tiny_bcast"', 'id = "fig01"')
    (scenario_dir / "clash.toml").write_text(clash)
    reload_scenarios()
    with pytest.raises(ScenarioError, match="duplicate scenario id 'fig01'"):
        scenario_ids()


def test_missing_scenario_path_dir_is_an_error(monkeypatch, tmp_path):
    monkeypatch.setenv(SCENARIO_PATH_ENV, str(tmp_path / "nope"))
    reload_scenarios()
    try:
        with pytest.raises(ScenarioError, match="does not exist"):
            scenario_ids()
    finally:
        monkeypatch.delenv(SCENARIO_PATH_ENV)
        reload_scenarios()


def test_unknown_catalog_machine_fails_at_load_time(scenario_dir):
    bad = SAMPLE_TOML.replace('base = "xeon"', 'base = "deep_thought"')
    (scenario_dir / "bad_machine.toml").write_text(bad)
    reload_scenarios()
    with pytest.raises(ScenarioError, match="bad_machine.toml"):
        scenario_ids()


# -- fault-injected and user-machine exec paths ------------------------------

def test_fault_scenario_is_slower_than_healthy(shared_executor):
    fig = run_scenario("fault_slow_node", max_cpus=16)
    from repro.imb.suite import run_benchmark
    from repro.machine import get_machine

    faulty = fig.by_machine("xeon")
    healthy = run_benchmark(get_machine("xeon"), "Allreduce", 16,
                            msg_bytes=65536)
    # Same benchmark/size/ranks: the straggler must cost extra time.
    assert faulty.y[faulty.x.index(16.0)] > healthy.time_us


def test_worker_rebuilds_user_defined_machines():
    from repro.exec.points import SimPoint
    from repro.exec.worker import point_machine

    point = SimPoint.make("imb", "my_fat_xeon", 64, benchmark="Bcast",
                          msg_bytes=1024, machine_base="xeon",
                          machine_cpus=4096, machine_label="Fat")
    m = point_machine(point)
    assert m.name == "my_fat_xeon"
    assert m.max_cpus == 4096
    assert m.label == "Fat"


def test_worker_fault_setup_absent_for_healthy_points():
    from repro.exec.points import SimPoint
    from repro.exec.worker import _fault_setup

    healthy = SimPoint.make("imb", "xeon", 8, benchmark="Bcast",
                            msg_bytes=1024)
    assert _fault_setup(healthy) is None
    faulty = SimPoint.make("imb", "xeon", 8, benchmark="Bcast",
                           msg_bytes=1024, fault="slow_node",
                           fault_node=0, fault_factor=4.0)
    setup = _fault_setup(faulty)
    assert callable(setup)


# -- scenario CLI ------------------------------------------------------------

def test_scenarios_cli_list(capsys):
    assert scenarios_main(["list"]) == 0
    out = capsys.readouterr().out
    for sid in ("fig01", "table4", "app_cg", "fault_slow_node"):
        assert sid in out


def test_scenarios_cli_list_tag_filter(capsys):
    assert scenarios_main(["list", "--tag", "app"]) == 0
    out = capsys.readouterr().out
    assert "app_cg" in out and "fig01" not in out


def test_scenarios_cli_unknown_id_exits_2(capsys):
    assert scenarios_main(["run", "fig99"]) == 2
    assert "unknown scenario 'fig99'" in capsys.readouterr().err


def test_scenarios_cli_run_writes_artifacts(tmp_path, capsys):
    rc = scenarios_main(["run", "app_cg", "--max-cpus", "8",
                         "--out", str(tmp_path), "--no-cache"])
    assert rc == 0
    assert (tmp_path / "app_cg.csv").exists()
    assert "app_cg" in capsys.readouterr().out


def test_scenarios_cli_manifest_roundtrip(tmp_path, capsys):
    path = tmp_path / "TOLERANCES.json"
    assert scenarios_main(["emit-manifest", "--path", str(path)]) == 0
    assert scenarios_main(["check-manifest", "--path", str(path)]) == 0
    doc = json.loads(path.read_text())
    doc["items"]["fig02"]["rtol"] = 0.5
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert scenarios_main(["check-manifest", "--path", str(path)]) == 3
    assert "fig02" in capsys.readouterr().err


def test_committed_manifest_matches_registry():
    from repro.scenarios.manifest_sync import check_manifest_sync

    ok, msg = check_manifest_sync("results/TOLERANCES.json")
    assert ok, msg


# -- harness CLI: --scenario / --list-scenarios / exit-2 contract ------------

def test_harness_list_scenarios(capsys):
    assert runner_main(["--list-scenarios"]) == 0
    out = capsys.readouterr().out
    assert "fig01" in out and "app_cg" in out


def test_harness_runs_scenario_by_name(tmp_path, capsys):
    rc = runner_main(["--scenario", "app_cg", "--max-cpus", "8",
                      "--out", str(tmp_path), "--no-cache"])
    assert rc == 0
    assert (tmp_path / "app_cg.csv").exists()


def test_harness_bad_figure_id_exits_2(capsys):
    assert runner_main(["--figure", "99"]) == 2
    assert "unknown figure" in capsys.readouterr().err


def test_harness_bad_scenario_name_exits_2(capsys):
    assert runner_main(["--scenario", "not_a_scenario"]) == 2
    err = capsys.readouterr().err
    assert "unknown scenario 'not_a_scenario'" in err
    assert "registered:" in err


def test_harness_scenario_name_under_figure_flag_gets_a_hint(capsys):
    assert runner_main(["--figure", "app_cg"]) == 2
    err = capsys.readouterr().err
    assert "--scenario app_cg" in err


# -- service integration -----------------------------------------------------

def test_normalize_item_id_accepts_scenario_names():
    from repro.api import normalize_item_id

    assert normalize_item_id("app_cg") == "app_cg"
    assert normalize_item_id("6") == "fig06"
    assert normalize_item_id("table2") == "table2"
    with pytest.raises(ValueError, match="not a figure/table id or a "
                                         "registered scenario"):
        normalize_item_id("not_a_scenario")


@pytest.mark.parametrize("sid", ["table_cg", "fig1_2"])
def test_registered_id_wins_over_item_shorthand(scenario_dir, sid):
    """A registered id shaped like ``table...`` / ``fig<digits>_...``
    names that scenario, never a (mis)parsed paper table or figure."""
    from repro.api import normalize_item_id

    toml = (REPO_SCENARIO_DIR / "app_cg.toml").read_text()
    (scenario_dir / f"{sid}.toml").write_text(
        toml.replace('id = "app_cg"', f'id = "{sid}"'))
    reload_scenarios()

    assert normalize_item_id(sid) == sid
    result = run_item(sid, max_cpus=4)
    assert result.fig_id == sid
    assert result.series == run_item("app_cg", max_cpus=4).series


def test_job_queue_runs_scenario_and_saves_artifacts(tmp_path):
    from repro.config import ReproConfig
    from repro.service.queue import JobQueue

    config = ReproConfig.from_env_and_args(
        jobs=1, cache_dir=str(tmp_path / "cache"))
    with JobQueue(config, workers=1,
                  artifacts_dir=tmp_path / "artifacts") as q:
        job_id = q.submit(["app_cg"], max_cpus=8)
        doc = q.result(job_id, timeout=120)
    assert doc["state"] == "done", doc["error"]
    assert any(p.endswith("app_cg.csv") for p in doc["artifacts"])
