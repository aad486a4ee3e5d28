"""Harness integration tests: figures, tables, rendering, CLI."""

from pathlib import Path

import pytest

from repro.analysis.ratios import KIVIAT_COLUMNS
from repro.api import run_figure, run_table
from repro.harness import (
    FigureResult,
    FigureSeries,
    figure_to_csv,
    render_ascii_plot,
    render_figure,
    render_result,
    render_table,
    save_figure,
    save_result,
    save_table,
)
from repro.harness.runner import main as runner_main
from repro.scenarios import get_scenario, paper_scenarios

CAP = 8  # tiny sweeps keep this fast


def _paper_ids(kind):
    return [s.scenario_id for s in paper_scenarios() if s.kind == kind]


def test_all_figures_registered():
    # The paper's fifteen plus the energy kiviat (fig16, not in the paper).
    assert _paper_ids("figure") == [f"fig{i:02d}" for i in range(1, 17)]


def test_all_tables_registered():
    # The paper's three plus the energy ranking (table4, not in the paper).
    assert _paper_ids("table") == ["table1", "table2", "table3", "table4"]


@pytest.mark.parametrize("fig_id", ["fig01", "fig02", "fig03", "fig04"])
def test_hpcc_balance_figures_generate(fig_id):
    fig = run_figure(fig_id, max_cpus=CAP)
    assert len(fig.series) == 5
    for s in fig.series:
        assert len(s.x) == len(s.y) >= 1
        assert all(v > 0 for v in s.y)


@pytest.mark.parametrize("fig_id", ["fig06", "fig07", "fig12", "fig13"])
def test_imb_paper_figures_generate(fig_id):
    fig = run_figure(fig_id, max_cpus=CAP)
    assert {s.machine for s in fig.series} == {
        "sx8", "x1_msp", "x1_ssp", "altix_nl4", "xeon", "opteron",
    }
    for s in fig.series:
        assert all(v > 0 for v in s.y)


def test_fig05_kiviat_normalisation():
    fig, data = get_scenario("fig05").run_with_data(CAP)
    assert data.columns == KIVIAT_COLUMNS
    # HPL column normalised: best system exactly 1.0
    hpl_vals = [row["G-HPL"] for row in data.normalised.values()]
    assert max(hpl_vals) == pytest.approx(1.0)
    # every normalised value in (0, 1]
    for row in data.normalised.values():
        for col, v in row.items():
            if v is not None:
                assert 0 < v <= 1.0 + 1e-12, col


def test_run_figure_unknown_id():
    with pytest.raises(KeyError):
        run_figure("fig99")


def test_figure_accessor_by_machine():
    fig = run_figure("fig06", max_cpus=4)
    assert fig.by_machine("sx8").machine == "sx8"
    with pytest.raises(KeyError):
        fig.by_machine("cray_t3e")


def test_table1_matches_paper_constants():
    t = run_table("table1")
    rows = dict(t.rows)
    assert rows["CPUs"] == 512
    assert rows["Routers"] == 128
    assert rows["Memory (Tb)"] == 1


def test_table2_five_platforms():
    t = run_table("table2")
    assert len(t.rows) == 5
    names = [r[0] for r in t.rows]
    assert "NEC SX-8" in names
    assert "Dell Xeon Cluster" in names


def test_table3_has_all_ratio_rows():
    t = run_table(3, max_cpus=CAP)
    assert len(t.rows) == len(KIVIAT_COLUMNS)
    assert t.rows[0][0] == "G-HPL"


def test_render_table_ascii():
    text = render_table(run_table("table2"))
    assert "NEC SX-8" in text
    assert "| Vector" in text


def test_render_and_csv_figure():
    fig = run_figure("fig06", max_cpus=4)
    text = render_figure(fig)
    assert fig.title in text
    csv_text = figure_to_csv(fig)
    assert csv_text.splitlines()[0].startswith("figure,machine,label")
    assert len(csv_text.splitlines()) > len(fig.series)


def test_save_figure_and_table(tmp_path: Path):
    fig = run_figure("fig06", max_cpus=4)
    p = save_figure(fig, tmp_path)
    assert p.exists()
    assert (tmp_path / "fig06.txt").exists()
    t = save_table(run_table("table2"), tmp_path)
    assert t.exists()
    assert (tmp_path / "table2.txt").read_text().startswith("System")


def test_result_dispatch_picks_table_or_figure(tmp_path: Path):
    fig = run_figure("fig06", max_cpus=4)
    table = run_table("table2")
    assert render_result(table) == render_table(table)
    assert render_result(fig) == render_figure(fig)
    assert render_result(fig, plot=True) == (
        render_figure(fig) + "\n\n" + render_ascii_plot(fig))
    assert render_result(table, plot=True) == render_table(table)
    assert save_result(fig, tmp_path) == tmp_path / "fig06.csv"
    assert save_result(table, tmp_path) == tmp_path / "table2.csv"
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "fig06.csv", "fig06.json", "fig06.txt",
        "table2.csv", "table2.json", "table2.txt"]


def test_runner_bench_items_keep_table_figure_scenario_order(tmp_path):
    import json

    bench = tmp_path / "bench.json"
    rc = runner_main(["--figure", "12", "--table", "3", "--scenario",
                      "app_cg", "--max-cpus", "4", "--jobs", "1",
                      "--no-cache", "--no-ledger",
                      "--bench-json", str(bench)])
    assert rc == 0
    items = json.loads(bench.read_text())["items"]
    assert [i["id"] for i in items] == ["table3", "fig12", "app_cg"]
    assert [i["spans"]["cat"] for i in items] == [
        "table", "figure", "scenario"]


def test_runner_cli_table(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # bench/ledger artifacts default to cwd
    rc = runner_main(["--table", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "NEC SX-8" in out


def test_runner_cli_figure(capsys, tmp_path):
    rc = runner_main(["--figure", "6", "--max-cpus", "4",
                      "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "fig06.csv").exists()


def test_runner_cli_no_args_shows_help(capsys):
    assert runner_main([]) == 2


def test_runner_figure_id_normalisation(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = runner_main(["--figure", "fig06", "--max-cpus", "4"])
    assert rc == 0


def test_ascii_plot_renders():
    fig = run_figure("fig06", max_cpus=8)
    text = render_ascii_plot(fig, width=40, height=10)
    lines = text.splitlines()
    assert any(line.startswith("+---") for line in lines)
    assert "A=NEC SX-8" in text
    # the chart body is exactly `height` rows between the borders
    body = [ln for ln in lines if ln.startswith("|")]
    assert len(body) == 10
    assert all(len(ln) == 42 for ln in body)


def test_ascii_plot_empty_series():
    fig = FigureResult(
        fig_id="figXX", title="t", xlabel="x", ylabel="y",
        series=(FigureSeries("m", "m", (0.0,), (0.0,)),),
    )
    assert "no positive data" in render_ascii_plot(fig)


def test_runner_cli_plot_flag(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = runner_main(["--figure", "6", "--max-cpus", "4", "--plot"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "+---" in out


def test_json_exports(tmp_path):
    import json

    from repro.harness import figure_to_json, table_to_json

    fig = run_figure("fig06", max_cpus=4)
    doc = json.loads(figure_to_json(fig))
    assert doc["fig_id"] == "fig06"
    assert len(doc["series"]) == 6
    assert doc["series"][0]["x"]

    t = json.loads(table_to_json(run_table("table2")))
    assert t["table_id"] == "table2"
    assert len(t["rows"]) == 5

    save_figure(fig, tmp_path)
    assert (tmp_path / "fig06.json").exists()
