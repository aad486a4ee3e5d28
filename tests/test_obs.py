"""Tests for the unified observability layer (repro.obs).

Covers the metrics registry semantics, span nesting and Chrome-trace
round-trips, the critical-path analyser on a hand-built 4-rank scenario
with a known bottleneck, serial-vs-parallel metrics-merge determinism,
and Tracer consistency.
"""

from __future__ import annotations

import json

import pytest

from repro.core.trace import NULL_TRACER, MessageRecord, Tracer
from repro.exec import SimPoint, SweepExecutor
from repro.mpi.cluster import Cluster
from repro.obs import (
    MetricsRegistry,
    TelemetryRecorder,
    assemble_traces,
    critical_path_report,
    current,
    format_critical_path,
    using,
    write_chrome_trace,
    write_spans_chrome_trace,
)
from repro.obs.metrics import log2_bucket
from tests.conftest import make_test_machine


# -- metrics registry ---------------------------------------------------------

def test_counter_gauge_semantics():
    reg = MetricsRegistry()
    reg.counter("a.b").inc()
    reg.counter("a.b").inc(2.5)
    reg.gauge("g").set(3)
    reg.gauge("g").set_max(2)   # lower: ignored
    reg.gauge("g").set_max(7)   # higher: taken
    assert reg.value("a.b") == 3.5
    assert reg.value("g") == 7
    assert reg.value("missing", default=-1) == -1
    # create-or-get returns the same instrument
    assert reg.counter("a.b") is reg.counter("a.b")


def test_histogram_log2_buckets():
    assert log2_bucket(0) == log2_bucket(-1)      # zero/negative bucket
    assert log2_bucket(1) == 0                    # 2**0 == 1 -> e=0
    assert log2_bucket(2) == 1
    assert log2_bucket(3) == 2                    # 2 < 3 <= 4
    assert log2_bucket(0.5) == -1
    reg = MetricsRegistry()
    h = reg.histogram("h")
    for v in (1, 2, 3, 1024):
        h.observe(v)
    d = h.to_dict()
    assert d["count"] == 4
    assert d["sum"] == 1030
    assert d["min"] == 1 and d["max"] == 1024
    assert d["buckets"] == {"0": 1, "1": 1, "2": 1, "10": 1}
    assert h.mean == pytest.approx(257.5)


def test_disabled_registry_is_noop():
    reg = MetricsRegistry(enabled=False)
    c = reg.counter("x")
    c.inc(5)
    reg.gauge("y").set(1)
    reg.histogram("z").observe(1)
    snap = reg.snapshot()
    assert snap == {"counters": {}, "gauges": {}, "histograms": {}}
    # shared no-op instruments, no per-name allocation
    assert reg.counter("x") is reg.counter("other")


def test_global_registry_default_disabled():
    assert not current("metrics").enabled
    with using(MetricsRegistry()) as reg:
        assert current("metrics") is reg
    assert not current("metrics").enabled


def test_snapshot_merge_commutative():
    def make(seed):
        r = MetricsRegistry()
        r.counter("c").inc(seed)
        r.gauge("hw").set_max(seed * 10)
        r.histogram("h").observe(seed)
        return r.snapshot()

    snaps = [make(1), make(2), make(3)]
    fwd = MetricsRegistry.merge_snapshots(snaps)
    rev = MetricsRegistry.merge_snapshots(list(reversed(snaps)))
    assert fwd == rev
    assert fwd["counters"]["c"] == 6
    assert fwd["gauges"]["hw"] == 30
    assert fwd["histograms"]["h"]["count"] == 3
    assert fwd["histograms"]["h"]["min"] == 1
    assert fwd["histograms"]["h"]["max"] == 3


# -- spans --------------------------------------------------------------------

@pytest.fixture
def fake_clock(monkeypatch):
    """Each ``time.time()`` the span recorder reads ticks one second."""
    import repro.obs.telemetry as telemetry

    class _Clock:
        t = 0.0

        def time(self):
            self.t += 1.0
            return self.t

    monkeypatch.setattr(telemetry, "time", _Clock())


def test_span_nesting_and_durations(fake_clock):
    rec = TelemetryRecorder()
    with rec.span("outer", "harness") as outer:
        with rec.span("inner", "sweep", detail=42) as inner:
            pass
    assert rec.inject() is None  # nothing left open
    assert inner.parent_id == outer.span_id
    assert inner.trace_id == outer.trace_id and outer.parent_id is None
    assert inner.attrs == {"detail": 42}
    # fake clock ticks once per begin/end call
    assert inner.t_end - inner.t_start == 1.0
    assert outer.t_end - outer.t_start == 3.0
    (root,) = assemble_traces(rec.drain())[outer.trace_id]
    d = root.to_dict()
    assert d["name"] == "outer" and d["t_end"] - d["t_start"] == 3.0
    (child,) = d["children"]
    assert child["name"] == "inner" and child["attrs"] == {"detail": 42}
    assert "children" not in child  # a leaf keeps the flat wire form


def test_span_misnested_end_keeps_span_and_unwinds(fake_clock):
    rec = TelemetryRecorder()
    a = rec.begin("a")
    b = rec.begin("b")
    rec.end(a)  # b is still open inside a
    assert rec.inject() is None  # the stack unwound past b
    c = rec.begin("c")  # no longer nests under the closed a or b
    assert c.parent_id is None
    rec.end(c)
    rec.end(b)  # already unwound: still kept
    names = [d["name"] for d in rec.drain()]
    assert names == ["a", "c", "b"]
    assert b.parent_id == a.span_id and b.t_end is not None


def test_span_chrome_export_round_trip(tmp_path, fake_clock):
    rec = TelemetryRecorder()
    with rec.span("root") as root:
        with rec.span("child"):
            pass
    path = write_spans_chrome_trace(rec.drain(), tmp_path / "spans.json")
    data = json.loads(path.read_text())
    events = data["traceEvents"]
    assert [e["name"] for e in events] == ["root", "child"]
    # all complete events, non-negative, zero-based timestamps
    assert all(e["ph"] == "X" and e["dur"] > 0 for e in events)
    assert min(e["ts"] for e in events) == 0
    assert events[1]["ts"] == 1e6 and events[0]["dur"] == 3e6
    assert events[1]["args"]["parent_id"] == root.span_id
    assert all(e["tid"] == root.pid for e in events)


# -- critical path ------------------------------------------------------------

def _run_traced(machine, nprocs, program, *args):
    cluster = Cluster(machine, nprocs, trace=True)
    cluster.run(program, *args)
    return cluster


def test_critical_path_known_bottleneck_link():
    """4 ranks on 4 one-CPU nodes over a starved network core.

    A heavily blocked fat-tree apex (100:1) makes the bisection capacity
    far below NIC and link rates, so the analyser must blame the
    bisection for an all-to-all exchange.
    """
    machine = make_test_machine(
        cpus_per_node=1, max_cpus=4, link_gbs=10.0, nic_gbs=10.0,
        topology_kind="fattree",
        group_sizes=(2, 2), level_blocking=(1.0, 100.0),
    )

    def alltoall(comm):
        reqs = [comm.irecv(src, 7) for src in range(comm.size)
                if src != comm.rank]
        sends = [comm.isend(dst, nbytes=1 << 20, tag=7)
                 for dst in range(comm.size) if dst != comm.rank]
        yield from comm.waitall(reqs + sends)

    cluster = _run_traced(machine, 4, alltoall)
    report = critical_path_report(cluster)
    assert report.dominant == "bisection"
    assert report.breakdown["bisection"] > 0
    assert report.utilisation["bisection"] > 0.5
    assert report.elapsed > 0
    text = format_critical_path(report)
    assert "bisection dominates" in text
    d = report.to_dict()
    assert d["dominant"] == "bisection"
    assert d["elapsed_us"] == pytest.approx(report.elapsed * 1e6)


def test_critical_path_compute_bound():
    machine = make_test_machine()

    def crunch(comm):
        yield from comm.compute(flops=1e9, kernel="dgemm")

    cluster = _run_traced(machine, 2, crunch)
    report = critical_path_report(cluster)
    assert report.dominant == "compute"
    assert report.segments[0].kind == "compute"


def test_critical_path_covers_most_of_elapsed():
    machine = make_test_machine(cpus_per_node=2)

    def pingpong(comm):
        if comm.rank == 0:
            yield from comm.send(1, nbytes=1 << 16, tag=1)
            yield from comm.recv(1, 1)
        elif comm.rank == 1:
            yield from comm.recv(0, 1)
            yield from comm.send(0, nbytes=1 << 16, tag=1)

    cluster = _run_traced(machine, 4, pingpong)
    report = critical_path_report(cluster)
    # The walked chain should explain the bulk of end-to-end time.
    assert report.covered > 0.5


# -- engine / fabric instrumentation -----------------------------------------

def test_engine_metrics_and_heap_high_water():
    with using(MetricsRegistry()) as reg:
        machine = make_test_machine()
        cluster = Cluster(machine, 4)

        def prog(comm):
            yield from comm.barrier()
            yield from comm.allreduce(nbytes=1 << 16)

        cluster.run(prog)
        assert reg.value("engine.events") > 0
        assert reg.value("engine.events") == cluster.engine.events_processed
        assert reg.value("engine.heap_max") >= 1
        assert cluster.engine.heap_high_water >= 1
        assert reg.value("mpi.messages.inter") > 0
        assert reg.counter("net.egress.bytes").value > 0
        snap = reg.snapshot()
        assert snap["histograms"]["net.egress.queue_wait"]["count"] > 0


def test_engine_untracked_without_registry():
    machine = make_test_machine()
    cluster = Cluster(machine, 2)

    def prog(comm):
        yield from comm.barrier()

    cluster.run(prog)
    # high-water tracking only runs under an enabled registry
    assert cluster.engine.heap_high_water == 0
    assert cluster.engine.events_processed > 0


# -- executor merge determinism ----------------------------------------------

def _sweep_metrics(jobs):
    points = [SimPoint.make("imb", "xeon", p, benchmark="Sendrecv",
                            msg_bytes=1 << 16) for p in (2, 4, 8, 16)]
    with using(MetricsRegistry()) as reg:
        with SweepExecutor(jobs=jobs, cache=None) as ex:
            ex.run_points(points)
            log = list(ex.point_log)
    snap = reg.snapshot()
    # wall-clock-derived metrics are legitimately nondeterministic
    snap["histograms"].pop("exec.point_wall_s", None)
    return snap, log


def test_serial_vs_parallel_metrics_merge_deterministic():
    serial, log_s = _sweep_metrics(jobs=1)
    parallel, log_p = _sweep_metrics(jobs=2)
    assert serial["counters"] == parallel["counters"]
    assert serial["gauges"] == parallel["gauges"]
    assert serial["histograms"] == parallel["histograms"]
    assert [(e["point"], e["provenance"]) for e in log_s] == \
           [(e["point"], e["provenance"]) for e in log_p]
    assert serial["counters"]["cache.misses"] == 4
    assert serial["counters"]["engine.events"] > 0


def test_executor_point_log_provenance(tmp_path):
    from repro.exec import ResultCache
    cache = ResultCache(tmp_path / "cache", fingerprint="test")
    points = [SimPoint.make("imb", "xeon", 2, benchmark="PingPong",
                            msg_bytes=1024)]
    with SweepExecutor(jobs=1, cache=cache) as ex:
        ex.run_points(points)
        ex.run_points(points)
        provs = [e["provenance"] for e in ex.point_log]
    assert provs == ["computed", "cached"]


# -- satellite: tracer consistency and deprecation shim -----------------------

def test_tracer_disable_clears_records():
    tr = Tracer()
    tr.record_message(MessageRecord(0, 1, 10, 0, 0.0, 1.0, False))
    tr.enabled = False
    assert tr.messages == [] and tr.message_count == 0
    tr.record_message(MessageRecord(0, 1, 10, 0, 0.0, 1.0, False))
    assert tr.message_count == 0  # still disabled
    tr.enabled = True
    tr.record_message(MessageRecord(0, 1, 10, 0, 0.0, 1.0, False))
    assert tr.message_count == 1


def test_null_tracer_cannot_be_enabled():
    with pytest.raises(ValueError):
        NULL_TRACER.enabled = True
    assert not NULL_TRACER.enabled
