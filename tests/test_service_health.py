"""Service health surfaces: metrics, event log, exposition, traced jobs.

Unit coverage for :mod:`repro.service.health` (ServiceMetrics folding,
the schema-versioned event log, Prometheus text rendering) plus the
integration contract the ops surface depends on: a telemetry-enabled
``JobQueue`` emits submitted/started/finished events, builds one
complete trace per job with coalesced followers linking to the owner's
trace, exposes non-zero latency histograms — and, with telemetry off,
still answers ``stats()`` with per-state counts and queue depth while
producing byte-identical artifacts.
"""

from __future__ import annotations

import json

import pytest

from repro.config import ReproConfig
from repro.obs.telemetry import assemble_traces
from repro.service import JobQueue
from repro.service.health import (
    EVENTS_SCHEMA_VERSION,
    ServiceEventLog,
    ServiceMetrics,
    render_prometheus,
)

CAP = 8
FIG = "fig13"


def _config(tmp_path, **over):
    return ReproConfig.from_env_and_args(
        jobs=1, exec_backend="inline",
        cache_dir=str(tmp_path / "cache"), **over)


# ---------------------------------------------------------------------------
# ServiceMetrics
# ---------------------------------------------------------------------------

def test_metrics_job_lifecycle_counts_and_latency():
    m = ServiceMetrics()
    m.job_submitted()
    m.job_submitted()
    m.job_started(queue_wait_s=0.5)
    m.job_finished("done", submit_done_s=2.0)
    snap = m.snapshot()
    assert snap["counters"]["service.jobs.submitted"] == 2
    assert snap["counters"]["service.jobs.started"] == 1
    assert snap["counters"]["service.jobs.done"] == 1
    assert snap["histograms"]["service.latency.submit_start_s"]["count"] == 1
    assert snap["histograms"]["service.latency.submit_done_s"]["sum"] == \
        pytest.approx(2.0)


def test_metrics_queue_high_water_is_sticky():
    m = ServiceMetrics()
    m.observe_queue(3, {"queued": 2, "running": 1})
    m.observe_queue(1, {"queued": 0, "running": 1})
    g = m.snapshot()["gauges"]
    assert g["service.queue.depth"] == 1       # instantaneous
    assert g["service.queue.depth_hwm"] == 3   # high-water sticks
    assert g["service.jobs.state.queued"] == 0
    assert g["service.jobs.state.running"] == 1


def test_metrics_cache_hit_ratio_derived_in_snapshot():
    m = ServiceMetrics()
    assert m.cache_hit_ratio() is None
    assert "service.cache.hit_ratio" not in m.snapshot()["gauges"]
    m.fold_job_stats({"points": 4, "cache_hits": 3, "cache_misses": 1})
    assert m.cache_hit_ratio() == pytest.approx(0.75)
    assert m.snapshot()["gauges"]["service.cache.hit_ratio"] == \
        pytest.approx(0.75)


def test_metrics_fold_backend_health_accumulates():
    m = ServiceMetrics()
    m.fold_backend_health({"workers_spawned": 2, "requests": 9, "crashes": 1})
    m.fold_backend_health({"requests": 3, "restarts": 2})
    m.fold_backend_health(None)  # inline backend: nothing to fold
    c = m.snapshot()["counters"]
    assert c["service.fleet.workers_spawned"] == 2
    assert c["service.fleet.requests"] == 12
    assert c["service.fleet.crashes"] == 1
    assert c["service.fleet.restarts"] == 2


def test_metrics_coalescer_mirrors_cumulative_totals():
    m = ServiceMetrics()
    m.set_coalescer({"owned": 5, "joined": 2, "inflight": 1})
    m.set_coalescer({"owned": 6, "joined": 2, "inflight": 0})  # set, not inc
    snap = m.snapshot()
    assert snap["counters"]["service.coalesce.owned"] == 6
    assert snap["counters"]["service.coalesce.joined"] == 2
    assert snap["gauges"]["service.coalesce.inflight"] == 0


# ---------------------------------------------------------------------------
# ServiceEventLog
# ---------------------------------------------------------------------------

def test_event_log_round_trip_stamps_schema(tmp_path):
    log = ServiceEventLog(tmp_path / "deep" / "service_events.jsonl")
    log.append("submitted", job="j-1")
    log.append("finished", job="j-1", state="done")
    entries = log.entries()
    assert [e["event"] for e in entries] == ["submitted", "finished"]
    for e in entries:
        assert e["schema_version"] == EVENTS_SCHEMA_VERSION
        assert e["when"] > 0 and e["pid"] > 0
    # Every line on disk is standalone JSON (tail -f friendly).
    for line in log.path.read_text().splitlines():
        assert json.loads(line)["job"] == "j-1"


def test_event_log_reader_is_lenient(tmp_path):
    path = tmp_path / "service_events.jsonl"
    path.write_text('{"event": "submitted", "schema_version": 1}\n'
                    "merge scar, not json\n"
                    '{"event": "finished", "schema_version": 99}\n')
    entries = ServiceEventLog(path).entries()
    assert [e["event"] for e in entries] == ["submitted", "finished"]
    assert ServiceEventLog(tmp_path / "absent.jsonl").entries() == []


# ---------------------------------------------------------------------------
# Prometheus exposition
# ---------------------------------------------------------------------------

def test_render_prometheus_counters_gauges_histograms():
    m = ServiceMetrics()
    m.job_submitted()
    m.observe_queue(2, {"queued": 2})
    m.job_started(queue_wait_s=0.3)
    text = render_prometheus(m.snapshot())
    assert "# TYPE repro_service_jobs_submitted counter" in text
    assert "repro_service_jobs_submitted 1" in text
    assert "# TYPE repro_service_queue_depth gauge" in text
    assert "repro_service_queue_depth_hwm 2" in text
    # Histogram: cumulative buckets, +Inf, _sum/_count.
    assert '# TYPE repro_service_latency_submit_start_s histogram' in text
    assert 'repro_service_latency_submit_start_s_bucket{le="0.5"} 1' in text
    assert 'repro_service_latency_submit_start_s_bucket{le="+Inf"} 1' in text
    assert "repro_service_latency_submit_start_s_count 1" in text


def test_render_prometheus_is_deterministic_and_terminated():
    m = ServiceMetrics()
    m.fold_backend_health({"requests": 4, "crashes": 1})
    m.observe_queue(1, {"running": 1})
    a, b = render_prometheus(m.snapshot()), render_prometheus(m.snapshot())
    assert a == b            # equal state -> byte-equal exposition
    assert a.endswith("\n")  # exposition format requires a final newline
    assert render_prometheus({}) == ""


# ---------------------------------------------------------------------------
# JobQueue integration: the ops surface end to end
# ---------------------------------------------------------------------------

def test_traced_queue_emits_events_metrics_and_full_traces(tmp_path):
    events = tmp_path / "service_events.jsonl"
    cfg = _config(tmp_path, telemetry=True)
    with JobQueue(cfg, workers=2, events_path=events) as q:
        a = q.submit([FIG], max_cpus=CAP)
        b = q.submit([FIG], max_cpus=CAP)
        doc_a = q.result(a, timeout=300)
        doc_b = q.result(b, timeout=300)

        # Each job carries its own complete trace summary.
        for doc in (doc_a, doc_b):
            assert doc["state"] == "done"
            trace = doc["trace"]
            assert trace["trace_id"] == doc["trace_id"]
            assert trace["roots"] == 1
            assert trace["root_name"] == "service.job"
            assert trace["errors"] == 0

        # The span trees reassemble: one root per job, queue.wait under it.
        spans_a = q.job_trace(a)
        (roots,) = assemble_traces(spans_a).values()
        (root,) = roots
        child_names = {c.name for c in root.children}
        assert "queue.wait" in child_names

        # Identical overlapping submits: exactly one computed the points,
        # the other's spans say they were coalesced away.
        names_a = {s["name"] for s in spans_a}
        names_b = {s["name"] for s in q.job_trace(b)}
        assert {"point.compute", "point.coalesced"} <= (names_a | names_b)
        assert not ({"point.compute"} <= names_a
                    and {"point.compute"} <= names_b)
        follower = names_a if "point.coalesced" in names_a else names_b
        assert "point.compute" not in follower

        # Metrics: latency histograms observed, coalescer savings visible.
        snap = q.metrics_snapshot()
        assert snap["counters"]["service.jobs.submitted"] == 2
        assert snap["counters"]["service.jobs.done"] == 2
        assert snap["counters"]["service.coalesce.joined"] >= 1
        assert snap["histograms"]["service.latency.submit_done_s"]["count"] \
            == 2
        assert snap["gauges"]["service.queue.depth_hwm"] >= 1
        text = render_prometheus(snap)
        assert "repro_service_latency_submit_done_s_count 2" in text

    # Event log: submitted/started/finished per job, in a sane order.
    kinds = [e["event"] for e in ServiceEventLog(events).entries()]
    assert kinds.count("submitted") == 2
    assert kinds.count("started") == 2
    assert kinds.count("finished") == 2
    assert kinds[0] == "submitted"


def test_traced_job_nests_its_one_sweep_under_the_run(tmp_path):
    """service.job -> queue.wait, job.run, job.ledger_append; job.run
    holds the job's one executor batch, then one save per item."""
    cfg = _config(tmp_path, telemetry=True, no_cache=True)
    with JobQueue(cfg, workers=1, artifacts_dir=tmp_path / "art",
                  ledger_path=tmp_path / "ledger.jsonl") as q:
        job = q.submit(["fig01", "fig02"], max_cpus=CAP)
        assert q.result(job, timeout=300)["state"] == "done"
        (roots,) = assemble_traces(q.job_trace(job)).values()
    (root,) = roots
    assert root.name == "service.job"
    assert [c.name for c in root.children] == [
        "queue.wait", "job.run", "job.ledger_append"]
    run = root.children[1]
    assert [c.name for c in run.children] == [
        "sweep.batch", "job.artifact_save", "job.artifact_save"]
    assert [c.attrs["item"] for c in run.children[1:]] == ["fig01", "fig02"]
    (batch,) = [c for c in run.children if c.name == "sweep.batch"]
    assert batch.attrs["points"] == 10  # the ring sweep both views share


def test_repeated_id_is_saved_and_listed_once(tmp_path):
    """``6`` and ``fig06`` name one item: its files are saved once and
    the job lists each path once, while each item doc still names them."""
    cfg = _config(tmp_path, telemetry=True, no_cache=True)
    with JobQueue(cfg, workers=1, artifacts_dir=tmp_path / "art") as q:
        job = q.submit(["6", "fig06"], max_cpus=CAP)
        doc = q.result(job, timeout=300)
        spans = q.job_trace(job)
    assert doc["state"] == "done", doc["error"]
    assert doc["items"] == ["fig06", "fig06"]
    paths = doc["artifacts"]
    assert len(paths) == len(set(paths)) == 3  # csv, json, txt
    assert [r["artifacts"] for r in doc["item_results"]] == [paths, paths]
    assert [s["name"] for s in spans].count("job.artifact_save") == 1


def test_follower_trace_links_to_owner(tmp_path):
    cfg = _config(tmp_path, telemetry=True)
    with JobQueue(cfg, workers=2, events_path=None) as q:
        a = q.submit([FIG], max_cpus=CAP)
        b = q.submit([FIG], max_cpus=CAP)
        q.result(a, timeout=300)
        q.result(b, timeout=300)
        all_spans = q.job_trace(a) + q.job_trace(b)
        coalesced = [s for s in all_spans if s["name"] == "point.coalesced"]
        computed = [s for s in all_spans if s["name"] == "point.compute"]
        if not coalesced:
            pytest.skip("jobs did not overlap on this run")
        owner_tids = {s["attrs"]["owner_trace_id"] for s in coalesced}
        assert owner_tids == {computed[0]["trace_id"]}
        assert owner_tids != {coalesced[0]["trace_id"]}


def test_stats_by_state_and_depth_work_with_telemetry_off(tmp_path):
    with JobQueue(_config(tmp_path), workers=1) as q:
        assert q.telemetry is None
        assert q.metrics_snapshot() is None
        st = q.stats()
        assert st["by_state"] == {"queued": 0, "running": 0,
                                  "done": 0, "failed": 0}
        assert st["queue_depth"] == 0
        job = q.submit([FIG], max_cpus=CAP)
        doc = q.result(job, timeout=300)
        assert "trace_id" not in doc and "trace" not in doc
        st = q.stats()
        assert st["by_state"]["done"] == 1
        assert st["queue_depth"] == 0


def test_traced_and_untraced_artifacts_are_byte_identical(tmp_path):
    def run(tag, telemetry):
        art = tmp_path / tag
        cfg = _config(tmp_path / f"ws-{tag}", telemetry=telemetry)
        with JobQueue(cfg, workers=1, artifacts_dir=art) as q:
            doc = q.result(q.submit([FIG], max_cpus=CAP), timeout=300)
        assert doc["state"] == "done"
        return {p.name: p.read_bytes() for p in sorted(art.rglob("*"))
                if p.is_file()}

    plain = run("off", False)
    traced = run("on", True)
    assert plain.keys() == traced.keys() and plain
    assert all(plain[k] == traced[k] for k in plain)
