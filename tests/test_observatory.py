"""Tests for the time-resolved run observatory.

Covers the communication-matrix recorder (repro.obs.commviz), the
bucketed utilisation timelines and straggler profiles
(repro.obs.timeline), the append-only run ledger (repro.obs.ledger),
the HTML run report (repro.harness.dashboard), the validation gate's
ledger layer, and the determinism guarantees the ISSUE pins down:
serial, ``--jobs N``, and cache-warm sweeps must produce byte-identical
matrices and timelines, and the report must present the critical-path
analyser's verdict verbatim.
"""

from __future__ import annotations

import json
import subprocess

import pytest

from repro.core.trace import MessageRecord, Tracer
from repro.exec import ResultCache, SimPoint, SweepExecutor
from repro.harness.runner import BENCH_SCHEMA_VERSION
from repro.harness.dashboard import (
    REPORT_SCHEMA_VERSION,
    build_run_doc,
    read_report_doc,
    render_html,
    write_report,
)
from repro.mpi.cluster import Cluster
from repro.obs import (
    CommRecorder,
    LEDGER_SCHEMA_VERSION,
    MetricsRegistry,
    PhaseMatrix,
    RunLedger,
    TimelineRecorder,
    TimelineSeries,
    critical_path_report,
    RECORDERS,
    current,
    run_key,
    straggler_profile,
    using,
)
from repro.obs.ledger import git_dirty, git_sha
from repro.obs.timeline import COLL_TAGSPAN, RESOLUTION
from tests.conftest import make_test_machine


# -- commviz: phase matrices ---------------------------------------------------

def test_phase_matrix_record_and_views():
    pm = PhaseMatrix()
    pm.record(0, 3, 100, inter=True)
    pm.record(0, 3, 50, inter=True)
    pm.record(1, 0, 7, inter=False)
    assert pm.nprocs == 4
    assert pm.cells == {(0, 3): [2, 150], (1, 0): [1, 7]}
    assert (pm.inter_msgs, pm.inter_bytes) == (2, 150)
    assert (pm.intra_msgs, pm.intra_bytes) == (1, 7)
    assert pm.to_dict()["cells"] == {"0,3": [2, 150], "1,0": [1, 7]}


def test_phase_matrix_snapshot_merge_commutative():
    a, b = PhaseMatrix(), PhaseMatrix()
    a.record(0, 1, 10, inter=True)
    a.record(2, 0, 5, inter=False)
    b.record(0, 1, 3, inter=True)
    b.record(1, 2, 8, inter=True)

    ab, ba = PhaseMatrix(), PhaseMatrix()
    ab.merge(a.to_dict()); ab.merge(b.to_dict())
    ba.merge(b.to_dict()); ba.merge(a.to_dict())
    assert ab.to_dict() == ba.to_dict()
    assert ab.cells[(0, 1)] == [2, 13]
    assert ab.inter_bytes + ab.intra_bytes == 26


def _tally(*messages):
    """One run's traffic tally: a PhaseMatrix of ``(src, dst, nbytes)``."""
    pm = PhaseMatrix()
    for src, dst, nbytes in messages:
        pm.record(src, dst, nbytes, inter=True)
    return pm


def test_comm_recorder_phases_and_cursor():
    rec = CommRecorder()
    rec.add(_tally((0, 1, 10)))
    with rec.phase("fig12:xeon"):
        assert rec.current_phase == "fig12:xeon"
        rec.add(_tally((0, 1, 99)))
    assert rec.current_phase == "default"
    assert rec.phases() == ["default", "fig12:xeon"]
    assert rec.matrix("fig12:xeon").cells == {(0, 1): [1, 99]}
    assert rec.matrix().cells == {(0, 1): [1, 10]}


def test_comm_recorder_disabled_and_global_default():
    assert not current("comm").enabled
    rec = CommRecorder(enabled=False)
    with using(rec):
        cluster = Cluster(make_test_machine(), 2)
        cluster.run(_ring_prog)
    assert cluster.transport.traffic is None
    assert rec.snapshot() == {"phases": {}}
    with using(CommRecorder()) as live:
        assert current("comm") is live
    assert not current("comm").enabled


def test_run_tally_reaches_metrics_and_comm_once():
    """One tally per run: its totals land in the mpi.* counters, its
    cells in the comm recorder's current phase; a silent run adds no
    phase."""
    reg, comm = MetricsRegistry(), CommRecorder()
    with using(reg, comm):
        with comm.phase("ring"):
            cluster = Cluster(make_test_machine(), 4)
            cluster.run(_ring_prog)
        with comm.phase("silent"):
            Cluster(make_test_machine(), 4).run(_silent_prog)
    pm = comm.matrix("ring")
    assert comm.phases() == ["ring"]
    assert pm.to_dict() == cluster.transport.traffic.to_dict()
    assert pm.cells == {(r, (r + 1) % 4): [1, 64] for r in range(4)}
    flat = reg.flat()
    assert flat["mpi.messages.intra"] + flat["mpi.messages.inter"] == 4
    assert flat["mpi.bytes.intra"] == pm.intra_bytes
    assert flat["mpi.bytes.inter"] == pm.inter_bytes


def _ring_prog(comm):
    p = comm.size
    yield from comm.sendrecv((comm.rank + 1) % p, (comm.rank - 1) % p,
                             nbytes=64)


def _silent_prog(comm):
    yield from comm.elapse(1e-6)


def test_merge_comm_snapshots_order_independent():
    def snap(src, dst, nbytes):
        r = CommRecorder()
        with r.phase("p"):
            r.add(_tally((src, dst, nbytes)))
        return r.snapshot()

    snaps = [snap(0, 1, 10), snap(1, 0, 20), snap(0, 1, 5)]
    fwd = CommRecorder.merge_snapshots(snaps)
    rev = CommRecorder.merge_snapshots(list(reversed(snaps)))
    assert json.dumps(fwd, sort_keys=True) == json.dumps(rev, sort_keys=True)
    assert fwd["phases"]["p"]["cells"]["0,1"] == [2, 15]


# -- timeline: bucketed occupancy series --------------------------------------

def test_timeline_series_buckets_conserve_busy_time():
    s = TimelineSeries()
    s.add(0.0, 1e-6, nbytes=100)
    s.add(2e-6, 3e-6)
    assert s.count == 2 and s.bytes == 100
    assert s.busy_s == pytest.approx(2e-6)
    assert sum(v for _, v in s.series()) == pytest.approx(2e-6)
    # zero-length intervals count but add no busy time
    s.add(1.0e-6, 1.0e-6)
    assert s.count == 3
    assert s.busy_s == pytest.approx(2e-6)


def test_timeline_series_rescales_to_power_of_two_width():
    s = TimelineSeries()
    s.add(0.0, 0.5)
    # width grew until 256 buckets cover 0.5 s: 256 * 2**-9 = 0.5 exactly,
    # and end >= span triggers one more doubling
    assert s.width == 2.0 ** s.exp
    assert RESOLUTION * s.width > 0.5
    assert len(s.series()) <= RESOLUTION
    assert sum(v for _, v in s.series()) == pytest.approx(0.5)


def test_timeline_series_merge_folds_to_coarser_width():
    fine, coarse = TimelineSeries(), TimelineSeries()
    fine.add(0.0, 1e-5)
    coarse.add(0.0, 0.3)          # forces a much coarser width
    assert coarse.exp > fine.exp

    merged = TimelineSeries()
    merged.merge(fine.to_dict())
    merged.merge(coarse.to_dict())
    assert merged.exp == coarse.exp
    assert merged.busy_s == pytest.approx(0.3 + 1e-5)
    assert sum(v for _, v in merged.series()) == pytest.approx(0.3 + 1e-5)


def test_merge_timeline_snapshots_deterministic():
    def snap(t0, t1):
        r = TimelineRecorder()
        with r.phase("p"):
            r.series("egress").add(t0, t1, nbytes=8)
        return r.snapshot()

    snaps = [snap(0.0, 1e-6), snap(1e-6, 4e-6)]
    fwd = TimelineRecorder.merge_snapshots(snaps)
    rev = TimelineRecorder.merge_snapshots(list(reversed(snaps)))
    assert json.dumps(fwd, sort_keys=True) == json.dumps(rev, sort_keys=True)
    egress = fwd["phases"]["p"]["egress"]
    assert egress["count"] == 2 and egress["bytes"] == 16


def test_timeline_recorder_phase_scoping_and_global():
    assert not current("timeline").enabled
    rec = TimelineRecorder()
    rec.series("egress").add(0.0, 1e-6)
    with rec.phase("fig6:sx8"):
        rec.series("core").add(0.0, 2e-6)
    assert rec.phases() == ["default", "fig6:sx8"]
    assert rec.kinds("fig6:sx8") == ["core"]
    assert rec.get("fig6:sx8", "core").busy_s == pytest.approx(2e-6)
    with using(rec) as live:
        assert current("timeline") is live
    assert not current("timeline").enabled


def test_coll_tagspan_matches_collectives():
    # obs must not import the model layers, so the constant is duplicated;
    # this cross-check keeps the two in lock-step.
    from repro.mpi.collectives import _TAGSPAN
    assert COLL_TAGSPAN == _TAGSPAN


def test_straggler_profile_known_skew():
    tr = Tracer()
    # collective 0 (tags < COLL_TAGSPAN): rank 0 exits at 4.0, rank 1 at 2.0
    tr.record_message(MessageRecord(0, 1, 100, 5, 1.0, 2.0, False))
    tr.record_message(MessageRecord(1, 0, 100, 5, 2.0, 4.0, False))
    # collective 1: rank 1 is the straggler
    tr.record_message(MessageRecord(0, 1, 10, COLL_TAGSPAN, 5.0, 6.0, False))
    prof = straggler_profile(tr, nprocs=2)
    c0, c1 = prof["collectives"]
    assert c0["slowest_rank"] == 0
    assert c0["skew"] == pytest.approx(1.0)       # 4.0 - mean(4.0, 2.0)
    assert c1["slowest_rank"] == 1
    assert c1["skew"] == pytest.approx(0.5)
    assert prof["max_skew_s"] == pytest.approx(1.0)
    assert prof["mean_skew_s"] == pytest.approx(0.75)
    assert prof["ranks"]["0"]["slowest"] == 1
    assert prof["ranks"]["1"]["slowest"] == 1
    assert prof["ranks"]["0"]["mean_lag_s"] == pytest.approx(0.25)


def test_straggler_profile_empty_tracer():
    prof = straggler_profile(Tracer(), nprocs=4)
    assert prof["collectives"] == []
    assert prof["max_skew_s"] == 0.0
    assert all(prof["ranks"][str(r)]["slowest"] == 0 for r in range(4))


# -- transport / fabric wiring -------------------------------------------------

def _run_observed(machine, nprocs, program, *args):
    with using(CommRecorder()) as comm, \
            using(TimelineRecorder()) as tl:
        cluster = Cluster(machine, nprocs, trace=True)
        cluster.run(program, *args)
    return cluster, comm, tl


def test_transport_records_comm_matrix_and_timeline():
    machine = make_test_machine(cpus_per_node=2, max_cpus=4)

    def exchange(comm):
        if comm.rank == 0:
            yield from comm.send(3, nbytes=1 << 12, tag=1)   # inter-node
            yield from comm.send(1, nbytes=1 << 8, tag=2)    # intra-node
        elif comm.rank == 3:
            yield from comm.recv(0, 1)
        elif comm.rank == 1:
            yield from comm.recv(0, 2)

    cluster, comm, tl = _run_observed(machine, 4, exchange)
    pm = comm.matrix()
    assert pm is not None
    assert pm.cells[(0, 3)] == [1, 1 << 12]
    assert pm.cells[(0, 1)] == [1, 1 << 8]
    assert pm.inter_bytes == 1 << 12 and pm.intra_bytes == 1 << 8
    # matrix totals agree with the tracer's byte counters
    assert pm.intra_bytes + pm.inter_bytes == cluster.tracer.total_bytes
    # the fabric reserved egress/shm busy intervals into the timeline
    kinds = tl.kinds()
    assert "egress" in kinds and "shm" in kinds
    assert tl.get("default", "egress").busy_s > 0


def test_transport_skips_recorders_when_disabled():
    machine = make_test_machine(cpus_per_node=2, max_cpus=4)

    def ping(comm):
        if comm.rank == 0:
            yield from comm.send(1, nbytes=64, tag=1)
        elif comm.rank == 1:
            yield from comm.recv(0, 1)

    # no recorder installed: the global null recorders stay empty
    cluster = Cluster(machine, 2)
    cluster.run(ping)
    assert current("comm").snapshot() == {"phases": {}}
    assert current("timeline").snapshot() == {"phases": {}}


# -- obs edge cases (satellite) ------------------------------------------------

def test_critical_path_zero_event_trace():
    machine = make_test_machine()

    def idle(comm):
        return
        yield  # pragma: no cover - makes the program a generator

    cluster = Cluster(machine, 2, trace=True)
    cluster.run(idle)
    report = critical_path_report(cluster)
    assert report.segments == ()
    assert report.breakdown == {}
    assert report.covered == 0.0
    assert report.dominant_window() is None
    d = report.to_dict()
    assert d["dominant_window_us"] is None
    assert d["path_segments"] == 0


def test_empty_histogram_summary_export():
    from repro.obs.metrics import Histogram
    d = Histogram("h").to_dict()
    assert d == {"count": 0, "sum": 0.0, "min": None, "max": None,
                 "buckets": {}}


def test_merge_snapshots_disjoint_metric_names():
    from repro.obs import MetricsRegistry
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("only.a").inc(1)
    a.histogram("h.a").observe(2)
    b.counter("only.b").inc(5)
    b.gauge("g.b").set_max(7)
    merged = MetricsRegistry.merge_snapshots([a.snapshot(), b.snapshot()])
    assert merged["counters"] == {"only.a": 1, "only.b": 5}
    assert merged["gauges"] == {"g.b": 7}
    assert merged["histograms"]["h.a"]["count"] == 1


# -- Chrome-trace round-trip ---------------------------------------------------

def test_write_chrome_trace_round_trip(tmp_path):
    from repro.obs.exporters import chrome_trace_events, write_chrome_trace

    machine = make_test_machine(cpus_per_node=2, max_cpus=4)

    def ping(comm):
        if comm.rank == 0:
            yield from comm.send(1, nbytes=1 << 10, tag=1)
        elif comm.rank == 1:
            yield from comm.recv(0, 1)

    cluster = Cluster(machine, 2, trace=True)
    cluster.run(ping)
    path = write_chrome_trace(cluster, tmp_path / "run.json")
    events = json.loads(path.read_text())["traceEvents"]
    assert events and all("ph" in e for e in events)
    assert events == json.loads(json.dumps(chrome_trace_events(cluster)))


# -- run ledger ----------------------------------------------------------------

def _entry(key, wall, eps=1000.0, sha="aaa1111"):
    return {"when": 1.0, "git_sha": sha, "run_key": key, "items": ["fig12"],
            "max_cpus": 16, "wall_s": wall, "events_per_s": eps}


def test_ledger_append_stamps_schema_and_skips_malformed(tmp_path):
    path = tmp_path / "ledger.jsonl"
    led = RunLedger(path)
    led.append(_entry("k", 1.0))
    with path.open("a") as fh:
        fh.write("{truncated json\n")
        fh.write(json.dumps({"no_schema": True}) + "\n")
    led.append(_entry("k", 2.0))
    entries = led.entries()
    assert [e["wall_s"] for e in entries] == [1.0, 2.0]
    assert all(e["schema_version"] == LEDGER_SCHEMA_VERSION for e in entries)
    assert led.skipped == 2


def test_ledger_trend_filters_by_run_key(tmp_path):
    led = RunLedger(tmp_path / "l.jsonl")
    led.append(_entry("k1", 1.0, sha="c1"))
    led.append(_entry("k2", 9.0, sha="c2"))
    led.append(_entry("k1", 1.2, sha="c3"))
    assert led.trend("k1") == [("c1", 1.0), ("c3", 1.2)]
    assert led.trend("k1", limit=1) == [("c3", 1.2)]
    assert led.trend("missing") == []


def test_ledger_regression_needs_history_then_flags(tmp_path):
    led = RunLedger(tmp_path / "l.jsonl")
    # below MIN_HISTORY: unchecked and ok
    led.append(_entry("k", 1.0))
    assert led.check_regression(_entry("k", 99.0)) == {
        "checked": False, "history": 1, "regressions": [], "ok": True}
    led.append(_entry("k", 1.1))
    led.append(_entry("k", 0.9))
    # in tolerance: checked, ok
    v = led.check_regression(_entry("k", 1.2))
    assert v["checked"] and v["ok"]
    # 3x the trailing median: flags wall_s slower (improvements never flag)
    v = led.check_regression(_entry("k", 3.0))
    assert not v["ok"]
    assert [r["field"] for r in v["regressions"]] == ["wall_s"]
    assert led.check_regression(_entry("k", 0.1))["ok"]
    # events/s collapsing flags the throughput field
    v = led.check_regression(_entry("k", 1.0, eps=100.0))
    assert [r["field"] for r in v["regressions"]] == ["events_per_s"]


def test_ledger_appended_entry_does_not_compete_with_itself(tmp_path):
    led = RunLedger(tmp_path / "l.jsonl")
    for w in (1.0, 1.0, 1.0):
        led.append(_entry("k", w))
    fresh = led.append(_entry("k", 5.0))     # appended before checking
    v = led.check_regression(fresh)
    # history excludes the just-appended line: 3 priors, still flagged
    assert v["history"] == 3
    assert v["checked"] and not v["ok"]


def test_run_key_stable_and_order_insensitive():
    assert run_key(["fig12", "fig06"], 16) == run_key(["fig06", "fig12"], 16)
    assert run_key(["fig12"], 16) != run_key(["fig12"], 64)
    assert len(run_key([], None)) == 12


def test_run_key_separates_run_modes():
    base = run_key(["fig12"], 16, exec_backend="inline", jobs=1)
    assert base == run_key(["fig12"], 16, exec_backend="inline", jobs=1,
                           recorders=())
    assert len({base,
                run_key(["fig12"], 16, exec_backend="pool", jobs=2),
                run_key(["fig12"], 16, exec_backend="inline", jobs=2),
                run_key(["fig12"], 16, exec_backend="inline", jobs=1,
                        recorders=("metrics",))}) == 4
    assert run_key(["fig12"], 16, recorders=["timeline", "comm"]) == \
        run_key(["fig12"], 16, recorders=["comm", "timeline"])


def test_harness_rows_of_different_jobs_do_not_share_a_trend(tmp_path):
    from repro.harness.runner import main as runner_main

    ledger = tmp_path / "ledger.jsonl"
    for jobs in ("1", "2", "1"):
        assert runner_main(["--figure", "6", "--max-cpus", "4", "--no-cache",
                            "--jobs", jobs, "--ledger", str(ledger),
                            "--bench-json", str(tmp_path / "b.json")]) == 0
    serial, parallel, serial_again = RunLedger(ledger).entries()
    assert serial["run_key"] == serial_again["run_key"]
    assert parallel["run_key"] != serial["run_key"]
    led = RunLedger(ledger)
    assert len(led.trend(serial["run_key"])) == 2
    assert len(led.trend(parallel["run_key"])) == 1
    assert serial["recorders"] == parallel["recorders"] == []


def test_git_sha_shape():
    sha = git_sha()
    assert sha == "unknown" or (1 <= len(sha) <= 40)
    assert git_sha("/nonexistent/dir") == "unknown"


def test_git_dirty_tracks_modified_tracked_files(tmp_path):
    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], cwd=tmp_path, check=True, capture_output=True)

    git("init", "-q")
    (tmp_path / "a.txt").write_text("one\n")
    git("add", "a.txt")
    git("commit", "-q", "-m", "seed")
    assert git_dirty(tmp_path) is False
    (tmp_path / "new.txt").write_text("untracked\n")
    assert git_dirty(tmp_path) is False      # untracked files do not count
    (tmp_path / "a.txt").write_text("two\n")
    assert git_dirty(tmp_path) is True
    assert git_dirty("/nonexistent/dir") is None


# -- validation gate ledger layer ----------------------------------------------

def test_gate_ledger_layer_lenient_vs_strict(tmp_path):
    from repro.validate import check_ledger
    from repro.validate.report import ValidationReport

    led = RunLedger(tmp_path / "l.jsonl")
    for w in (1.0, 1.0, 1.0):
        led.append(_entry("k", w))
    led.append(_entry("k", 9.0))             # the regressed newest run

    lenient = check_ledger(led.path, strict=False)
    assert lenient["checked"] and lenient["regressions"]
    assert lenient["ok"]                     # warning only
    strict = check_ledger(led.path, strict=True)
    assert not strict["ok"]

    rep = ValidationReport(ledger=strict)
    assert not rep.ok and rep.exit_code() == 3
    assert "ledger:" in rep.summary() and "FAILED: wall_s" in rep.summary()
    rep_ok = ValidationReport(ledger=lenient)
    assert rep_ok.ok
    assert "warning: wall_s" in rep_ok.summary()


def test_gate_ledger_layer_empty_file(tmp_path):
    from repro.validate import check_ledger
    layer = check_ledger(tmp_path / "missing.jsonl")
    assert layer == {"path": str(tmp_path / "missing.jsonl"), "entries": 0,
                     "malformed": 0, "strict": False, "checked": False,
                     "regressions": [], "ok": True}


# -- executor fan-in determinism ----------------------------------------------

def _sweep_observatory(jobs, cache=None):
    points = [SimPoint.make("imb", "xeon", p, benchmark="Sendrecv",
                            msg_bytes=1 << 14) for p in (2, 4, 8)]
    with using(CommRecorder()) as comm, \
            using(TimelineRecorder()) as tl:
        with SweepExecutor(jobs=jobs, cache=cache) as ex:
            ex.run_points(points)
    return (json.dumps(comm.snapshot(), sort_keys=True),
            json.dumps(tl.snapshot(), sort_keys=True))


def test_comm_and_timeline_serial_parallel_cache_identical(tmp_path):
    serial = _sweep_observatory(jobs=1)
    parallel = _sweep_observatory(jobs=2)
    assert serial == parallel

    cache = ResultCache(tmp_path / "cache", fingerprint="obs-test")
    cold = _sweep_observatory(jobs=2, cache=cache)
    warm = _sweep_observatory(jobs=2, cache=cache)
    assert cold == serial
    assert warm == serial
    # phases are the per-point names, so figures explain themselves
    comm = json.loads(serial[0])
    assert all(name.startswith("imb:xeon:Sendrecv")
               for name in comm["phases"])


REPLAYED = [name for name, cls in RECORDERS.items() if cls.replay_cached]


@pytest.mark.parametrize("name", REPLAYED)
def test_cached_record_upgrades_to_miss_when_recorder_appears(tmp_path, name):
    """A record cached with a replayed recorder off must not replay as an
    empty matrix, timeline or zero joules once the recorder is on."""
    cache = ResultCache(tmp_path / "cache", fingerprint="obs-test")
    points = [SimPoint.make("imb", "xeon", p, benchmark="PingPong",
                            msg_bytes=1024) for p in (2, 4)]
    # first pass: recorders off -> cached records carry no snapshot
    with SweepExecutor(jobs=1, cache=cache) as ex:
        ex.run_points(points)
    # second pass: the recorder on -> the stale hits are recomputed
    with using(RECORDERS[name]()) as rec, \
            SweepExecutor(jobs=1, cache=cache) as ex:
        ex.run_points(points)
        provs = [e["provenance"] for e in ex.point_log]
    assert provs == ["computed", "computed"]
    assert rec.snapshot()["phases"]
    # third pass: the refreshed cache entries replay without compute
    with using(RECORDERS[name]()) as replayed, \
            SweepExecutor(jobs=1, cache=cache) as ex:
        ex.run_points(points)
        provs = [e["provenance"] for e in ex.point_log]
    assert provs == ["cached", "cached"]
    assert replayed.snapshot() == rec.snapshot()


# -- observed runs and the paper narrative ------------------------------------

@pytest.fixture(scope="module")
def observed_fig12():
    from repro.harness.observe import observe_figure
    with using(CommRecorder()) as comm, \
            using(TimelineRecorder()) as tl:
        runs = observe_figure("fig12", max_cpus=16)
    return runs, comm, tl


def test_observed_phase_matrix_matches_traced_traffic(observed_fig12):
    runs, comm, tl = observed_fig12
    for machine, run in runs.items():
        pm = comm.matrix(f"fig12:{machine}")
        assert pm is not None, machine
        assert (pm.intra_bytes + pm.inter_bytes
                == sum(nbytes for _, nbytes in pm.cells.values())
                == run.traffic["total_bytes"])
        assert pm.inter_bytes == run.traffic["inter_node_bytes"]
        assert f"fig12:{machine}" in tl.phases()


def test_xeon_uplink_busier_than_altix(observed_fig12):
    """Paper §4: the Xeon cluster's blocking fat-tree uplinks saturate on
    Alltoall where the Altix NUMAlink fabric stays comfortable."""
    runs, _comm, _tl = observed_fig12
    xeon = runs["xeon"].report.utilisation["bisection"]
    altix = runs["altix_nl4"].report.utilisation["bisection"]
    assert xeon > altix


def test_report_names_analyser_dominant_verbatim(observed_fig12):
    runs, comm, tl = observed_fig12
    observed = {"fig12": {m: r.to_dict() for m, r in runs.items()}}
    doc = build_run_doc(
        harness={"git_sha": "test", "wall_s": 0.1, "max_cpus": 16,
                 "jobs": 1, "cache": None, "fingerprint": "x",
                 "schema_version": 1},
        totals={"points": 0, "cache_hits": 0, "cache_misses": 0,
                "events": 0, "compute_wall_s": 0.0},
        items=[], comm=comm.snapshot(), timeline=tl.snapshot(),
        observed=observed, spans=[], ledger=None,
    )
    html = render_html(doc)
    for machine, run in runs.items():
        # the verdict table carries the analyser's dominant kind untouched
        assert f"<b>{run.report.dominant}</b>" in html


# -- dashboard round-trip ------------------------------------------------------

def _tiny_doc():
    comm = CommRecorder()
    tally = PhaseMatrix()
    tally.record(0, 1, 1 << 20, inter=True)
    tally.record(1, 0, 1 << 19, inter=False)
    with comm.phase("fig12:xeon"):
        comm.add(tally)
    tl = TimelineRecorder()
    with tl.phase("fig12:xeon"):
        tl.series("egress").add(0.0, 2e-6, nbytes=64)
        tl.series("core").add(1e-6, 3e-6)
    observed = {"fig12": {"xeon": {
        "critical_path": {
            "machine": "xeon", "nprocs": 16, "elapsed_us": 12.5,
            "dominant": "bisection", "dominant_share": 0.61,
            "dominant_window_us": [1.5, 10.0],
            "breakdown_us": {"bisection": 7.6, "wait": 4.9},
            "utilisation": {"bisection": 0.8, "nic": 0.4,
                            "shm": 0.0, "compute": 0.0},
            "path_segments": 9,
        },
        "straggler": {"collectives": [], "ranks": {},
                      "max_skew_s": 1.5e-6, "mean_skew_s": 1e-6},
        "traffic": {"message_count": 2, "total_bytes": 3 << 19,
                    "inter_node_bytes": 1 << 20},
    }}}
    item_span = {"trace_id": "t", "span_id": "a", "parent_id": "r",
                 "name": "fig12", "cat": "figure", "t_start": 0.0,
                 "t_end": 0.5, "pid": 1, "status": "ok",
                 "children": [{"trace_id": "t", "span_id": "b",
                               "parent_id": "a", "name": "compute",
                               "cat": "sweep", "t_start": 0.0,
                               "t_end": 0.4, "pid": 1, "status": "ok"}]}
    return build_run_doc(
        harness={"schema_version": 1, "git_sha": "abc1234",
                 "fingerprint": "deadbeef", "max_cpus": 16, "jobs": 2,
                 "cache": None, "wall_s": 1.25},
        totals={"points": 4, "cache_hits": 1, "cache_misses": 3,
                "events": 1000, "compute_wall_s": 0.5},
        items=[{"id": "fig12", "wall_s": 0.5, "points": 4,
                "cache_hits": 1, "cache_misses": 3, "events": 1000,
                "events_per_sec": 2000, "compute_wall_s": 0.5,
                "spans": item_span}],
        comm=comm.snapshot(), timeline=tl.snapshot(), observed=observed,
        spans=[item_span],
        ledger={"path": "BENCH_ledger.jsonl", "entries": 4,
                "trend": [["a1", 1.0], ["b2", 1.1], ["c3", 1.05]],
                "regression": {"checked": True, "history": 3,
                               "regressions": [], "ok": True}},
    )


def test_report_write_read_round_trip(tmp_path):
    doc = _tiny_doc()
    assert doc["schema_version"] == REPORT_SCHEMA_VERSION
    path = write_report(doc, tmp_path / "out.html")
    assert read_report_doc(path) == doc


def test_report_html_is_self_contained(tmp_path):
    doc = _tiny_doc()
    html = render_html(doc)
    # inline SVG, no external fetches
    assert "<svg" in html and "<script src" not in html
    assert "http://" not in html.replace("http://www.w3.org", "")
    # heatmap cells and timeline polylines present with tooltips
    assert "<rect" in html and "<polyline" in html and "<title>" in html
    # the verdict table quotes the analyser verbatim
    assert "<b>bisection</b>" in html
    # ledger trend + status rendered
    assert "ledger" in html.lower() and "abc1234" in html


def test_report_blob_survives_script_breaking_strings(tmp_path):
    doc = _tiny_doc()
    doc["harness"]["git_sha"] = "</script><b>&amp;"
    path = write_report(doc, tmp_path / "evil.html")
    back = read_report_doc(path)
    assert back["harness"]["git_sha"] == "</script><b>&amp;"
    # the raw blob must not terminate the script element early
    text = path.read_text()
    start = text.index('id="run-data">')
    end = text.index("</script>", start)
    assert "</script>" not in text[start + len('id="run-data">'):end]


# -- harness CLI end-to-end ----------------------------------------------------

def test_runner_report_and_ledger_cli(tmp_path, capsys):
    from repro.harness.runner import main as runner_main

    report = tmp_path / "run.html"
    bench = tmp_path / "bench.json"
    ledger = tmp_path / "ledger.jsonl"
    args = ["--figure", "12", "--max-cpus", "8", "--no-cache",
            "--report", str(report), "--bench-json", str(bench),
            "--ledger", str(ledger)]
    assert runner_main(args) == 0

    bench_doc = json.loads(bench.read_text())
    assert bench_doc["schema_version"] == BENCH_SCHEMA_VERSION
    assert bench_doc["harness"]["git_sha"]
    assert bench_doc["harness"]["dirty"] in (True, False, None)
    assert bench_doc["harness"]["macro_above"] is None
    assert bench_doc["totals"]["points"] > 0

    entries = RunLedger(ledger).entries()
    assert len(entries) == 1
    assert entries[0]["items"] == ["fig12"]
    assert entries[0]["schema_version"] == LEDGER_SCHEMA_VERSION
    assert entries[0]["macro_above"] is None
    assert entries[0]["dirty"] == bench_doc["harness"]["dirty"]

    doc = read_report_doc(report)
    assert doc["schema_version"] == REPORT_SCHEMA_VERSION
    assert doc["ledger"]["entries"] == 1
    # fig12 comm matrices are present and row-sums match the traced bytes
    for machine, run in doc["observed"]["fig12"].items():
        pm = doc["comm"]["phases"][f"fig12:{machine}"]
        total = pm["intra"]["bytes"] + pm["inter"]["bytes"]
        assert total == run["traffic"]["total_bytes"] > 0
        dominant = run["critical_path"]["dominant"]
        assert f"<b>{dominant}</b>" in report.read_text()

    # second run accumulates ledger history
    assert runner_main(args) == 0
    assert len(RunLedger(ledger).entries()) == 2
