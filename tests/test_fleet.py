"""Fleet worker protocol and crash/restart accounting.

Two layers under test.  The worker side
(:func:`repro.exec.fleet.serve`) is a pure stdin/stdout loop, so it is
driven directly with in-memory streams: malformed lines, unknown ops,
EOF, shutdown, and the optional trace-context round trip.  The parent
side (:class:`repro.exec.backends.SubprocessBackend`) is exercised with
an in-process stand-in for the worker subprocess, so a worker that dies
mid-request or emits garbage exercises the real failure bookkeeping —
partial results surface, lost points requeue exactly once, and the
fleet-health counters (crashes, restarts, requests) add up.
"""

from __future__ import annotations

import io
import json
import threading
from collections import Counter, deque

import pytest

from repro.exec import ResultCache, SimPoint, SweepExecutor, compute_point
from repro.exec.backends import (
    ExecBackendError,
    SubprocessBackend,
    WorkerContext,
    decode_wire,
    encode_wire,
)
from repro.exec.fleet import serve


def _point(nprocs=2):
    return SimPoint.make("imb", "xeon", nprocs, benchmark="Sendrecv",
                         msg_bytes=1024)


def _serve_lines(*msgs: object) -> list[dict]:
    """Feed protocol lines through serve(); returns the parsed replies."""
    lines = []
    for m in msgs:
        lines.append(m if isinstance(m, str) else json.dumps(m))
    stdin = io.StringIO("\n".join(lines) + "\n")
    stdout = io.StringIO()
    assert serve(stdin, stdout) == 0
    return [json.loads(line) for line in stdout.getvalue().splitlines()]


_INIT = {"op": "init", "ctx": WorkerContext().to_dict()}


# -- worker side: the protocol loop -------------------------------------------


def test_serve_eof_is_a_clean_exit():
    assert serve(io.StringIO(""), io.StringIO()) == 0


def test_serve_shutdown_stops_reading():
    replies = _serve_lines({"op": "shutdown"},
                           {"op": "job", "id": 0})  # never reached
    assert replies == []


def test_serve_malformed_line_replies_error_and_continues():
    replies = _serve_lines("this is not json", {"op": "shutdown"})
    (err,) = replies
    assert err["op"] == "error" and err["id"] is None
    assert "malformed" in err["error"]


def test_serve_unknown_op_replies_error():
    replies = _serve_lines(_INIT, {"op": "dance", "id": 9},
                           {"op": "shutdown"})
    (err,) = replies
    assert err["op"] == "error" and err["id"] == 9
    assert "unknown op" in err["error"]


def test_serve_blank_lines_are_skipped():
    stdin = io.StringIO("\n\n" + json.dumps({"op": "shutdown"}) + "\n")
    stdout = io.StringIO()
    assert serve(stdin, stdout) == 0
    assert stdout.getvalue() == ""


def test_serve_job_round_trip_matches_inline():
    pt = _point()
    replies = _serve_lines(
        _INIT,
        {"op": "job", "id": 3, "point": encode_wire(pt)},
        {"op": "shutdown"})
    (reply,) = replies
    assert reply["op"] == "result" and reply["id"] == 3
    assert "spans" not in reply  # untraced job: no telemetry payload
    record = decode_wire(reply["record"])
    expect = compute_point(pt)
    assert record.value == expect.value
    assert record.events == expect.events


def test_serve_sim_error_replies_error_with_traceback():
    bad = SimPoint.make("nope", "xeon", 2)
    replies = _serve_lines(
        _INIT,
        {"op": "job", "id": 7, "point": encode_wire(bad)},
        {"op": "shutdown"})
    (err,) = replies
    assert err["op"] == "error" and err["id"] == 7
    assert "unknown simulation point" in err["error"]


def test_serve_traced_job_ships_spans_home():
    pt = _point()
    ctx = {"trace_id": "trace-X", "parent_span_id": "span-Y"}
    replies = _serve_lines(
        _INIT,
        {"op": "job", "id": 0, "point": encode_wire(pt), "trace": ctx},
        {"op": "shutdown"})
    (reply,) = replies
    spans = reply["spans"]
    assert spans, "traced job must return its spans"
    assert all(s["trace_id"] == "trace-X" for s in spans)
    # The worker's top-level span hangs off the remote parent.
    roots = [s for s in spans if s["parent_id"] == "span-Y"]
    assert [s["name"] for s in roots] == ["point.compute"]
    # Tracing never leaks into the record payload.
    traced = decode_wire(reply["record"])
    plain = compute_point(pt)
    assert traced.value == plain.value
    assert traced.events == plain.events


def test_serve_traced_failing_job_ships_spans_home():
    bad = SimPoint.make("imb", "xeon", 2, benchmark="NoSuchBench",
                        msg_bytes=8)
    ctx = {"trace_id": "T", "parent_span_id": "P"}
    (reply,) = _serve_lines(
        _INIT,
        {"op": "job", "id": 4, "point": encode_wire(bad), "trace": ctx},
        {"op": "shutdown"})
    assert reply["op"] == "error" and reply["id"] == 4
    # The failed attempt is part of the trace, as it is inline.
    assert [(s["name"], s["status"], s["trace_id"], s["parent_id"])
            for s in reply["spans"]] == [("point.compute", "error", "T", "P")]


# -- parent side: crash/restart accounting ------------------------------------


class _FakeWorker:
    """In-process stand-in for one fleet subprocess.

    Jobs queue up as they are sent and are answered in FIFO order, as
    the real worker answers its stdin pipe.  Behaviours (assigned per
    spawn index from ``plan``): ``ok`` answers every job; ``die-after-1``
    answers one job then simulates worker death (EOF on its stdout);
    ``garbage`` simulates a worker writing a non-JSON line;
    ``wrong-id`` answers each job under another job's id.
    """

    plan: dict[int, str] = {}
    spawned: list["_FakeWorker"] = []

    def __init__(self, ctx) -> None:
        self.behavior = self.plan.get(len(self.spawned), "ok")
        type(self).spawned.append(self)
        self.answered = 0
        self.closed = False
        self.sent: list[int] = []          # job ids, in send order
        self.ranks: list[int] = []         # their points' nprocs
        self._queue: deque[dict] = deque()

    def send(self, msg: dict) -> None:
        assert msg["op"] == "job"
        self.sent.append(msg["id"])
        self.ranks.append(decode_wire(msg["point"]).nprocs)
        self._queue.append(msg)

    def recv(self) -> dict | None:
        msg = self._queue.popleft()
        if self.behavior == "die-after-1" and self.answered >= 1:
            return None  # EOF: the process is gone
        if self.behavior == "garbage":
            raise json.JSONDecodeError("Expecting value", "<<<garbage>>>", 0)
        self.answered += 1
        record = compute_point(decode_wire(msg["point"]))
        reply_id = msg["id"] + 1 if self.behavior == "wrong-id" else msg["id"]
        return {"op": "result", "id": reply_id,
                "record": encode_wire(record)}

    def alive(self) -> bool:
        return not self.closed

    def close(self) -> None:
        self.closed = True


@pytest.fixture
def fake_fleet(monkeypatch):
    monkeypatch.setattr("repro.exec.backends._FleetWorker", _FakeWorker)
    _FakeWorker.plan = {}
    _FakeWorker.spawned = []
    return _FakeWorker


def test_worker_death_surfaces_partials_and_counts_one_crash(fake_fleet):
    fake_fleet.plan = {1: "die-after-1"}
    backend = SubprocessBackend(jobs=2)
    pts = [_point(p) for p in (2, 4, 8, 16)]
    with pytest.raises(ExecBackendError) as ei:
        backend.compute(pts)
    err = ei.value
    assert "exited mid-batch" in str(err)
    # Whatever the dealing: exactly one point is lost, and it is one the
    # dying worker held; points queued behind it went to the survivor.
    lost = set(range(len(pts))) - set(err.done)
    assert len(lost) == 1
    assert lost <= set(fake_fleet.spawned[1].sent)
    assert backend.health["crashes"] == 1
    assert backend.health["requests"] == len(err.done)
    assert all(w.closed for w in fake_fleet.spawned)  # fleet dropped


def test_reply_for_wrong_job_is_an_io_failure(fake_fleet):
    fake_fleet.plan = {1: "wrong-id"}
    backend = SubprocessBackend(jobs=2)
    pts = [_point(p) for p in (2, 4, 8, 16)]
    with pytest.raises(ExecBackendError,
                       match="worker i/o failed: reply for job") as ei:
        backend.compute(pts)
    err = ei.value
    lost = set(range(len(pts))) - set(err.done)
    assert len(lost) == 1
    assert lost <= set(fake_fleet.spawned[1].sent)
    for i, rec in err.done.items():  # no record filed under a wrong id
        assert rec.value == compute_point(pts[i]).value
    assert backend.health["crashes"] == 1
    assert backend.health["requests"] == len(err.done)


def test_fleet_deals_largest_points_first_to_every_worker(fake_fleet):
    """The executor deals; the fleet sends in the order it is handed."""
    backend = SubprocessBackend(jobs=2)
    ex = SweepExecutor(jobs=2, cache=None, backend=backend)
    pts = [_point(p) for p in (2, 16, 4, 8)]
    values = ex.run_points(pts)
    assert values == [compute_point(pt).value for pt in pts]  # input order
    first = [w.ranks[0] for w in fake_fleet.spawned]
    assert first == [16, 8]  # the 16- and 8-rank points start first
    assert [w.sent for w in fake_fleet.spawned] == [[0, 2], [1, 3]]
    assert sorted(r for w in fake_fleet.spawned for r in w.ranks) == \
        [2, 4, 8, 16]
    assert backend.health["requests"] == len(pts)
    ex.close()


def test_requeue_after_worker_death_maps_back_to_input_order(fake_fleet,
                                                            tmp_path):
    """Dealt largest-first, a killed worker's lost point is requeued
    under its input index, and every landed record is written to the
    cache under its own point."""
    fake_fleet.plan = {1: "die-after-1"}
    pts = [_point(p) for p in (4, 16, 2, 8)]
    with SweepExecutor(jobs=1, cache=None, backend="inline") as ref:
        clean = ref.run_points(pts)
    cache = ResultCache(tmp_path)
    ex = SweepExecutor(jobs=2, cache=cache,
                       backend=SubprocessBackend(jobs=2))
    values = ex.run_points(pts)
    assert values == clean
    assert ex.stats()["requeued"] == 1
    # The dying worker answered its 8-rank point and lost the next one.
    assert fake_fleet.spawned[1].ranks[:2] == [8, 2]
    assert [cache.get(pt).value for pt in pts] == clean
    assert [e["point"] for e in ex.point_log] == [pt.key() for pt in pts]
    ex.close()


def test_garbage_from_worker_counts_as_crash(fake_fleet):
    fake_fleet.plan = {0: "garbage"}
    backend = SubprocessBackend(jobs=2)
    with pytest.raises(ExecBackendError, match="worker i/o failed"):
        backend.compute([_point(p) for p in (2, 4)])
    assert backend.health["crashes"] == 1


def test_respawn_after_crash_counts_restarts(fake_fleet):
    fake_fleet.plan = {0: "garbage"}
    backend = SubprocessBackend(jobs=2)
    pts = [_point(p) for p in (2, 4)]
    with pytest.raises(ExecBackendError):
        backend.compute(pts)
    assert backend.health["restarts"] == 0
    fake_fleet.plan = {}
    records = backend.compute(pts)  # fleet respawns lazily, healthy now
    assert len(records) == 2
    assert backend.health["restarts"] == 2  # both workers are respawns
    assert backend.health["workers_spawned"] == 4
    backend.close()


def test_executor_requeues_lost_points_exactly_once(fake_fleet):
    fake_fleet.plan = {1: "die-after-1"}
    backend = SubprocessBackend(jobs=2)
    pts = [_point(p) for p in (2, 4, 8, 16)]
    with SweepExecutor(jobs=1, cache=None, backend="inline") as ref:
        clean = ref.run_points(pts)
    ex = SweepExecutor(jobs=2, cache=None, backend=backend)
    values = ex.run_points(pts)
    assert values == clean  # identical output despite the mid-batch death
    st = ex.stats()
    assert st["points"] == len(pts)       # counted once, not re-counted
    assert st["cache_misses"] == len(pts)
    assert st["requeued"] == 1            # only the lost point recomputed
    assert backend.health["crashes"] == 1
    assert backend.health["requests"] == len(pts) - 1


def test_landed_records_are_handed_on_before_a_worker_death(fake_fleet,
                                                             tmp_path):
    """Every record in ``err.done`` already went through ``on_record``,
    on the calling thread, so a cache written there holds all of them."""
    fake_fleet.plan = {1: "die-after-1"}
    backend = SubprocessBackend(jobs=2)
    pts = [_point(p) for p in (2, 4, 8, 16)]
    cache = ResultCache(tmp_path)
    landed: list[tuple[int, threading.Thread]] = []

    def on_record(i, rec):
        landed.append((i, threading.current_thread()))
        cache.put(pts[i], rec)

    with pytest.raises(ExecBackendError) as ei:
        backend.compute(pts, on_record)
    done = ei.value.done
    assert sorted(i for i, _t in landed) == sorted(done)
    assert {t for _i, t in landed} == {threading.current_thread()}
    for i, rec in done.items():
        assert cache.get(pts[i]).value == rec.value
    assert cache.stores == len(done) == len(pts) - 1


def test_executor_writes_each_miss_once_across_a_requeue(fake_fleet,
                                                         tmp_path):
    """Landed records are written as they arrive; after the worker death
    only the requeued point is written, once, all on the calling thread."""
    fake_fleet.plan = {1: "die-after-1"}
    pts = [_point(p) for p in (2, 4, 8, 16)]
    cache = ResultCache(tmp_path)
    writes: Counter = Counter()
    threads: set[threading.Thread] = set()
    put = cache.put

    def counting_put(pt, rec):
        writes[pt.key()] += 1
        threads.add(threading.current_thread())
        put(pt, rec)

    cache.put = counting_put
    ex = SweepExecutor(jobs=2, cache=cache,
                       backend=SubprocessBackend(jobs=2))
    values = ex.run_points(pts)
    assert ex.stats()["requeued"] == 1
    assert writes == Counter(pt.key() for pt in pts)  # once each
    assert cache.stores == len(pts)
    assert threads == {threading.current_thread()}
    assert [cache.get(pt).value for pt in pts] == values
