"""Self-tests of the benchmark on a tiny configuration (rank cap 4).

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TINY_FLEET = workloads.Workload(
    "tiny_fleet", {"jobs": 2, "backend": "subprocess"}, cached=True,
    observed=True, cap=4, figures=("fig13",))
TINY_HPCC = workloads.Workload(
    "tiny_hpcc", workloads.INLINE, cap=4,
    points=(("fig05", ("opteron", 4)),), reference="recorded")


def benchmark_spec() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


def recomputed_reference(workload) -> dict:
    """Reference values of a "recorded" workload, computed independently."""
    executor = workloads.api.SweepExecutor(**workloads.INLINE)
    return {workloads.point_key(sid, pt.machine, pt.nprocs):
            workloads.canonical(executor.run_points([pt])[0])
            for sid, pt in workloads.plan_points(workload)}


@pytest.fixture
def tiny_run(monkeypatch, tmp_path):
    """One set-up probe, and a signature entry for the tiny workload."""
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    signature = tmp_path / "signature.json"
    signature.write_text(json.dumps({"tiny_fleet": {"pt2pt.messages": 1}}))
    monkeypatch.setattr(run, "SIGNATURE", signature)


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_printed_with_its_unit(tiny_run, capsys, trace):
    spec = benchmark_spec()
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    result = run.run_workload(TINY_FLEET, seed=1, seconds=0, trace=trace)
    printed = capsys.readouterr().out.splitlines()
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    for name, unit in wanted.items():
        assert any(line.split()[1:2] == [name] and line.split()[3] == unit
                   for line in printed if line.startswith("tiny_fleet ")), \
            name
    if not trace:
        # Every end-to-end metric must be positive: a bound is a share
        # of its median.
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_recorded_reference_path_on_a_small_hpcc_point(tmp_path):
    runner = workloads.Runner(TINY_HPCC, tmp_path, seed=0,
                              expected=recomputed_reference(TINY_HPCC))
    try:
        runner.run_pass()
    finally:
        runner.close()
    assert (runner.attempted, runner.failed) == (1, 0)


def test_corrupted_reference_counts_as_failure(tmp_path):
    expected = workloads.expected_values(TINY_FLEET)
    key = sorted(expected)[0]
    expected[key] = expected[key] * (1 + 1e-12)
    runner = workloads.Runner(TINY_FLEET, tmp_path, seed=0, expected=expected)
    try:
        runner.run_pass()
    finally:
        runner.close()
    assert runner.attempted == len(expected)
    assert runner.failed == 1


def test_golden_reference_covers_every_point():
    golden = [w for w in workloads.WORKLOADS.values()
              if w.reference == "golden"]
    for workload in (TINY_FLEET, *golden):
        expected = workloads.expected_values(workload)
        assert expected and all(isinstance(v, float)
                                for v in expected.values())


@pytest.mark.parametrize("n, q", [
    (19, 50.0),     # too few samples for any tail: the median
    (20, 50.0),     # p50 leaves 10 beyond, p90 only 2
    (100, 90.0),    # p90 leaves exactly 10
    (109, 90.0),    # p99 would leave 1
    (1000, 99.0),   # p99 leaves exactly 10
    (10000, 99.9),  # p99.9 leaves exactly 10
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, q):
    values = [float(i) for i in range(n, 0, -1)]  # unsorted on purpose
    got_q, got_value = layers.tail(values)
    assert got_q == q
    if n >= 20:
        assert sum(v > got_value for v in values) >= 10


def test_benchmark_json_names_the_issue_metrics():
    spec = benchmark_spec()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"] for m in spec["end_to_end"]} == set(
        run.END_TO_END_UNITS)
    assert {m["name"] for m in spec["per_layer"]} == set(run.PER_LAYER_UNITS)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
