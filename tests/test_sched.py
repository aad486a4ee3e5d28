"""The calendar queue and the engine's batched dispatch on top of it.

Events must execute in ``(time, global insertion order)`` — the
determinism contract the golden oracle relies on; the random-program
oracle for that contract is the per-event reference dispatcher of
``tests/test_dispatch.py``.  These tests pin the queue's own discipline
(whole tied batches, later batches for pushes at a running time,
``pending_at``) plus the engine seams around it: the bounded-run loop's
instrumentation, the mid-batch exception re-queue, the live-process
bookkeeping on raising exits, and when an event may run in place.
"""

from __future__ import annotations

import pytest

from repro.core.engine import Engine, events_processed_total
from repro.core.errors import SimulationError
from repro.core.sched import CalendarQueue
from repro.obs import MetricsRegistry, using


# -- queue discipline -----------------------------------------------------------

def test_pop_batch_returns_whole_tie_in_insertion_order():
    q = CalendarQueue()
    q.push(2.0, "b1", ())
    q.push(1.0, "a1", ())
    q.push(2.0, "b2", ())
    q.push(1.0, "a2", ())
    assert len(q) == 4
    assert q.peek_time() == 1.0
    assert q.pop_batch() == (1.0, [("a1", ()), ("a2", ())])
    assert q.pop_batch() == (2.0, [("b1", ()), ("b2", ())])
    assert q.pop_batch() is None
    assert q.peek_time() is None
    assert len(q) == 0


def test_pending_at_tracks_the_earliest_time():
    q = CalendarQueue()
    assert not q.pending_at(0.0)
    q.push(1.0, "a", ())
    q.push(2.0, "b", ())
    assert not q.pending_at(0.5)
    assert q.pending_at(1.0)
    q.pop_batch()
    assert not q.pending_at(1.0)
    assert q.pending_at(2.0)


def test_push_at_popped_time_forms_later_batch():
    """Events pushed at time t while t's batch runs must not join it —
    they carry larger insertion seqs than anything already in flight."""
    q = CalendarQueue()
    q.push(1.0, "first", ())
    t, batch = q.pop_batch()
    assert (t, batch) == (1.0, [("first", ())])
    q.push(1.0, "second", ())
    assert q.pop_batch() == (1.0, [("second", ())])


def test_engine_tie_order_and_times():
    eng = Engine()
    order = []
    eng.schedule(2.0, order.append, "c")
    for tag in "ab":
        eng.schedule(1.0, order.append, tag)
    eng.schedule(0.0, order.append, "z")
    eng.run()
    assert order == ["z", "a", "b", "c"]
    assert eng.now == 2.0
    assert eng.events_processed == 4


# -- bounded runs and instrumentation -----------------------------------------

def test_run_until_stops_and_resumes():
    eng = Engine()
    ran = []
    eng.schedule(1.0, ran.append, "early")
    eng.schedule(10.0, ran.append, "late")
    assert eng.run(until=5.0) == 5.0
    assert ran == ["early"]
    assert eng.run() == 10.0
    assert ran == ["early", "late"]


def test_bounded_run_counts_events_and_high_water():
    """The instrumented until-loop must see the queue's high-water mark
    and count exactly the executed events."""
    registry = MetricsRegistry(enabled=True)
    with using(registry):
        eng = Engine()
        for i in range(6):
            eng.schedule(float(i), lambda: None)
        eng.schedule(100.0, lambda: None)
        assert eng.run(until=50.0) == 50.0
    assert eng.events_processed == 6          # the t=100 event did not run
    assert eng.heap_high_water == 7           # sampled before the first pop
    assert registry.counter("engine.events").value == 6
    assert registry.gauge("engine.heap_max").value == 7


def test_unbounded_instrumented_run_matches_fast_loop():
    """Metrics-on and metrics-off runs execute identically; only the
    bookkeeping differs."""

    def run(track):
        registry = MetricsRegistry(enabled=track)
        with using(registry):
            eng = Engine()
            order = []
            for i in range(5):
                eng.schedule(float(i % 2), order.append, i)
            eng.run()
        return order, eng.now, eng.events_processed, eng.heap_high_water

    order_on, now_on, n_on, hw_on = run(True)
    order_off, now_off, n_off, hw_off = run(False)
    assert (order_on, now_on, n_on) == (order_off, now_off, n_off)
    assert hw_on == 5 and hw_off == 0  # high-water only tracked when enabled


def test_engine_global_counter_accumulates():
    before = events_processed_total()
    eng = Engine()
    eng.schedule(1.0, lambda: None)
    eng.schedule(1.0, lambda: None)
    eng.run()
    assert events_processed_total() - before == 2


# -- exception paths -----------------------------------------------------------

def test_mid_batch_exception_requeues_remainder():
    """If an event raises mid-batch, the unexecuted tail returns to the
    queue at the same time; a later run() executes it exactly once."""
    eng = Engine()
    ran = []

    def boom():
        raise RuntimeError("boom")

    eng.schedule(1.0, ran.append, "before")
    eng.schedule(1.0, boom)
    eng.schedule(1.0, ran.append, "after")
    with pytest.raises(RuntimeError, match="boom"):
        eng.run()
    assert ran == ["before"]
    eng.run()
    assert ran == ["before", "after"]


@pytest.mark.parametrize("bad_yield, match", [
    (-1.0, "negative delay"),
    (-3, "negative delay"),
    ("nonsense", "unsupported"),
])
def test_raising_step_discards_live_process(bad_yield, match):
    """Regression: a process that dies on a bad yield must leave the
    live set before the exception propagates, so a caller that catches
    the error does not then face a ghost in the deadlock report."""
    eng = Engine()

    def prog():
        yield bad_yield

    proc = eng.spawn(prog())
    with pytest.raises(SimulationError, match=match):
        eng.run()
    assert proc not in eng._live_processes
    # the engine is still usable and deadlock-clean afterwards
    assert eng.run() == eng.now


def test_generator_exception_discards_live_process():
    eng = Engine()

    def prog():
        yield 1.0
        raise ValueError("body blew up")

    proc = eng.spawn(prog())
    with pytest.raises(ValueError, match="body blew up"):
        eng.run()
    assert proc not in eng._live_processes
    assert eng.run() == eng.now


def test_numpy_scalar_negative_delay_discards_live_process():
    np = pytest.importorskip("numpy")
    eng = Engine()

    def prog():
        yield np.float64(-0.5)

    proc = eng.spawn(prog())
    with pytest.raises(SimulationError, match="negative"):
        eng.run()
    assert proc not in eng._live_processes


# -- event wakeups ride the queue ---------------------------------------------

def test_event_wakeups_preserve_waiter_order():
    """Trigger pushes every waiter through the queue; wakeup order is
    registration order."""
    eng = Engine()
    ev = eng.event()
    woke = []

    def waiter(i):
        yield ev
        woke.append(i)

    for i in range(5):
        eng.spawn(waiter(i))
    eng.schedule(1.0, ev.trigger, None)
    eng.run()
    assert woke == [0, 1, 2, 3, 4]


# -- in-place dispatch ---------------------------------------------------------

class CountingEngine(Engine):
    """An engine that counts the events it pushes onto its queue."""

    def __init__(self) -> None:
        super().__init__()
        self.pushes = 0
        push = self._push

        def counted(t, fn, args):
            self.pushes += 1
            push(t, fn, args)

        self._push = counted


def test_next_event_runs_in_place_without_queue_round_trip():
    """A wakeup that is the very next event skips the queue but still
    counts as an event."""
    eng = CountingEngine()
    ev = eng.event()
    seen = []

    def prog():
        seen.append((yield ev))
        yield None
        seen.append((yield ev))

    eng.spawn(prog())
    eng.schedule(1.0, ev.fire, "x")
    eng.run()
    assert seen == ["x", "x"]
    # start + fire queued; wakeup, None and the fired re-wait in place
    assert eng.pushes == 2
    assert eng.events_processed == 5


@pytest.mark.parametrize("pending", ["batch_remainder", "queued_at_now"])
def test_step_not_in_place_when_other_event_pending_now(pending):
    """A ``None`` yield is queued behind anything else due at the same
    time — still in the running batch or already in the queue."""
    eng = CountingEngine()
    order = []

    def prog():
        if pending == "queued_at_now":
            eng.schedule(0.0, order.append, "other")
        yield None
        order.append("resumed")

    eng.spawn(prog())
    if pending == "batch_remainder":
        eng.schedule(0.0, order.append, "other")
    eng.run()
    assert order == ["other", "resumed"]
    assert eng.pushes == 3          # start, other, the queued resume
    assert eng.events_processed == 3


def test_scheduled_trigger_wakes_several_waiters_in_order():
    eng = Engine()
    ev = eng.event()
    woke = []

    def waiter(i):
        woke.append((i, (yield ev), eng.now))

    for i in range(3):
        eng.spawn(waiter(i))
    eng.schedule(1.0, ev.fire, "v")
    eng.run()
    assert woke == [(0, "v", 1.0), (1, "v", 1.0), (2, "v", 1.0)]


def test_exception_in_step_run_in_place():
    """A step run in place that raises discards its process, propagates
    out of run(), and leaves the pending queue consistent: the later
    event is still queued and a second run() executes it once."""
    eng = CountingEngine()
    ev = eng.event()
    ran = []

    def prog():
        yield ev
        raise ValueError("woken and blew up")

    proc = eng.spawn(prog())
    eng.schedule(1.0, ev.fire, None)
    eng.schedule(2.0, ran.append, "later")
    with pytest.raises(ValueError, match="woken and blew up"):
        eng.run()
    assert eng.pushes == 3          # the wakeup itself never queued
    assert proc not in eng._live_processes
    assert len(eng._sched) == 1 and eng._sched.peek_time() == 2.0
    assert eng.run() == 2.0
    assert ran == ["later"]


# -- executor determinism ------------------------------------------------------

def test_serial_parallel_and_cache_warm_identical(tmp_path):
    """Sweep values are identical serially, under ``--jobs 2``, and from
    a warm cache."""
    from repro.exec import ResultCache, SimPoint, SweepExecutor

    points = [SimPoint.make("imb", "xeon", p, benchmark="Sendrecv",
                            msg_bytes=4096) for p in (2, 4, 8)]
    serial = SweepExecutor(jobs=1, cache=None).run_points(points)
    with SweepExecutor(jobs=2, cache=None) as ex:
        parallel = ex.run_points(points)
    cold = SweepExecutor(
        jobs=1, cache=ResultCache(tmp_path / "c")).run_points(points)
    warm_ex = SweepExecutor(jobs=1, cache=ResultCache(tmp_path / "c"))
    warm = warm_ex.run_points(points)
    assert warm_ex.cache_hits == len(points)
    assert serial == parallel == cold == warm
