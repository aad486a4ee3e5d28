"""Distributed-tracing core: recorder, propagation, reassembly, export.

The contract under test is the one the service and fleet rely on: ids
are unique, parentage resolves most-specific-first, a trace context
survives a (simulated) process hop via inject/adopt, trees reassemble
with orphans kept visible, and the ambient lookup mirrors the
thread-local-then-global discipline of the other ``repro.obs``
recorders — with the disabled recorder recording exactly nothing.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs.context import current, install, using
from repro.obs.exporters import write_spans_chrome_trace
from repro.obs.telemetry import (
    TRACE_SCHEMA_VERSION,
    Span,
    TelemetryRecorder,
    assemble_traces,
    mint_span_id,
    mint_trace_id,
    trace_summary,
)


def test_schema_version_pinned():
    assert TRACE_SCHEMA_VERSION == 1


def test_minted_ids_unique_and_hexish():
    ids = {mint_trace_id() for _ in range(200)}
    ids |= {mint_span_id() for _ in range(200)}
    assert len(ids) == 400
    assert all(int(i, 16) >= 0 for i in ids)


# -- recording ----------------------------------------------------------------


def test_begin_end_nests_on_thread_stack():
    rec = TelemetryRecorder()
    outer = rec.begin("outer", "service")
    inner = rec.begin("inner", "exec", detail=7)
    rec.end(inner)
    rec.end(outer)
    spans = rec.drain()
    assert [s["name"] for s in spans] == ["inner", "outer"]
    by_name = {s["name"]: s for s in spans}
    assert by_name["inner"]["parent_id"] == by_name["outer"]["span_id"]
    assert by_name["inner"]["trace_id"] == by_name["outer"]["trace_id"]
    assert by_name["inner"]["attrs"] == {"detail": 7}
    assert by_name["outer"]["parent_id"] is None
    assert rec.drain() == []  # drain removed everything


def test_span_context_manager_marks_errors():
    rec = TelemetryRecorder()
    with pytest.raises(RuntimeError):
        with rec.span("doomed", "service"):
            raise RuntimeError("boom")
    (s,) = rec.drain()
    assert s["status"] == "error"
    assert s["t_end"] >= s["t_start"]


def test_record_retroactive_with_preminted_span_id():
    """The service writes a job's root last, under an id minted first —
    children recorded in between must already point at it."""
    rec = TelemetryRecorder()
    tid, root_id = mint_trace_id(), mint_span_id()
    rec.record("queue.wait", "service", t_start=1.0, t_end=2.0,
               parent={"trace_id": tid, "span_id": root_id})
    rec.record("service.job", "service", t_start=1.0, t_end=5.0,
               parent={"trace_id": tid}, span_id=root_id)
    summary = trace_summary(rec.drain())
    t = summary["traces"][tid]
    assert t["roots"] == 1
    assert t["root_name"] == "service.job"
    assert t["spans"] == 2
    assert t["wall_s"] == pytest.approx(4.0)


def test_disabled_recorder_records_nothing():
    rec = TelemetryRecorder(enabled=False)
    assert rec.begin("x") is None
    rec.end(None)
    with rec.span("y") as s:
        assert s is None
    assert rec.record("z", t_start=0.0, t_end=1.0) is None
    assert rec.inject() is None
    assert rec.adopt([{"trace_id": "t", "span_id": "s"}]) == 0
    assert rec.snapshot() == []


def test_threads_get_independent_stacks():
    rec = TelemetryRecorder()
    root = rec.begin("root", "service")
    seen = {}

    def worker():
        # A fresh thread has an empty stack: without an explicit parent
        # its span becomes a new root, not a child of another thread's
        # open span.
        s = rec.begin("thread-span", "exec")
        rec.end(s)
        seen["trace"] = s.trace_id

    t = threading.Thread(target=worker)
    t.start()
    t.join()
    rec.end(root)
    assert seen["trace"] != root.trace_id


# -- propagation --------------------------------------------------------------


def test_inject_adopt_round_trip_is_json_safe():
    parent = TelemetryRecorder()
    dispatch = parent.begin("exec.dispatch", "exec")
    ctx = json.loads(json.dumps(parent.inject()))
    assert ctx == {"trace_id": dispatch.trace_id,
                   "parent_span_id": dispatch.span_id}

    # The worker side: a recorder seeded with the wire context.
    worker = TelemetryRecorder(context=ctx)
    with worker.span("point.compute", "point", point="k"):
        pass
    wire = json.loads(json.dumps(worker.drain()))
    assert parent.adopt(wire) == 1
    parent.end(dispatch)

    trees = assemble_traces(parent.drain())
    (roots,) = trees.values()
    (root,) = roots
    assert root.name == "exec.dispatch"
    assert [c.name for c in root.children] == ["point.compute"]


def test_inject_with_no_open_span_falls_back_to_context():
    ctx = {"trace_id": "t1", "parent_span_id": "p1"}
    rec = TelemetryRecorder(context=ctx)
    assert rec.inject() == ctx
    assert TelemetryRecorder().inject() is None


def test_take_trace_removes_only_that_trace():
    rec = TelemetryRecorder()
    a = rec.record("a", t_start=0.0, t_end=1.0,
                   parent={"trace_id": "trace-a"})
    rec.record("b", t_start=0.0, t_end=1.0, parent={"trace_id": "trace-b"})
    taken = rec.take_trace("trace-a")
    assert [s["span_id"] for s in taken] == [a.span_id]
    assert [s["trace_id"] for s in rec.snapshot()] == ["trace-b"]


# -- reassembly / export ------------------------------------------------------


def test_orphan_spans_stay_visible_as_roots():
    rec = TelemetryRecorder()
    rec.record("lost-child", "point", t_start=1.0, t_end=2.0,
               parent={"trace_id": "t", "span_id": "never-arrived"})
    rec.record("root", "service", t_start=0.0, t_end=3.0,
               parent={"trace_id": "t"})
    summary = trace_summary(rec.drain())
    assert summary["traces"]["t"]["roots"] == 2
    assert summary["traces"]["t"]["root_name"] == "root"


def test_trace_summary_counts_by_cat_and_errors():
    rec = TelemetryRecorder()
    root = rec.begin("job", "service")
    with pytest.raises(ValueError):
        with rec.span("bad-point", "point"):
            raise ValueError()
    rec.end(root)
    (t,) = trace_summary(rec.drain())["traces"].values()
    assert t["by_cat"] == {"point": 1, "service": 1}
    assert t["errors"] == 1


def test_chrome_trace_rebases_to_zero(tmp_path):
    rec = TelemetryRecorder()
    root = rec.begin("job", "service", k="v")
    rec.end(root, status="error")
    path = write_spans_chrome_trace(rec.drain(), tmp_path / "trace.json")
    (event,) = json.loads(path.read_text())["traceEvents"]
    assert event["ts"] == 0.0
    assert event["args"] == {"k": "v", "trace_id": root.trace_id,
                             "span_id": root.span_id, "parent_id": None,
                             "status": "error"}


def test_trace_span_dict_round_trip():
    s = Span("t", "s", "p", "name", "cat", t_start=1.5, t_end=2.5,
             pid=42, attrs={"k": "v"}, status="error")
    wire = s.to_dict()
    assert "children" not in wire  # the flat wire form
    back = Span.from_dict(json.loads(json.dumps(wire)))
    assert back.to_dict() == wire
    assert back.t_end - back.t_start == pytest.approx(1.0)


def test_chrome_trace_export(tmp_path):
    rec = TelemetryRecorder()
    with rec.span("job", "service"):
        with rec.span("point", "point"):
            pass
    path = tmp_path / "trace.json"
    write_spans_chrome_trace(rec.drain(), path)
    doc = json.loads(path.read_text())
    names = {e["name"] for e in doc["traceEvents"]}
    assert {"job", "point"} <= names


# -- ambient lookup -----------------------------------------------------------


def test_ambient_default_is_disabled():
    assert current("telemetry").enabled is False


def test_using_telemetry_scopes_per_thread():
    rec = TelemetryRecorder()
    with using(rec):
        assert current("telemetry") is rec
        seen = {}

        def other():
            seen["rec"] = current("telemetry")

        t = threading.Thread(target=other)
        t.start()
        t.join()
        # Thread-local scoping: the other thread sees the default.
        assert seen["rec"].enabled is False
    assert current("telemetry").enabled is False


def test_set_telemetry_global_fallback():
    rec = TelemetryRecorder()
    old = install(rec)
    try:
        assert current("telemetry") is rec
        local = TelemetryRecorder()
        with using(local):
            assert current("telemetry") is local  # thread-local wins
        assert current("telemetry") is rec
    finally:
        install(old)
