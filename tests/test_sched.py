"""Scheduler backends: registry, determinism contract, batched dispatch.

Every backend must execute events in ``(time, global insertion order)``
— the determinism contract the golden oracle relies on — and the engine
must behave identically on top of any of them: same execution order,
same counters, same error paths.  These tests pin that contract per
backend, plus the seams the refactor introduced: the process-default
selection (flag > env > fallback), the bounded-run twin loop's
instrumentation, the mid-batch exception re-queue, and the live-process
bookkeeping on raising exits.
"""

from __future__ import annotations

import pytest

from repro.core import sched
from repro.core.engine import Engine, events_processed_total
from repro.core.errors import ConfigError, SimulationError
from repro.obs import MetricsRegistry, using

EXACT_BACKENDS = ["heapq", "calendar"]
ALL_BACKENDS = ["heapq", "calendar", "macro"]


@pytest.fixture(autouse=True)
def _clean_default():
    """Never leak an explicit process default out of a test."""
    previous = sched.set_default_backend(None)
    yield
    sched.set_default_backend(previous)


# -- registry and default selection -------------------------------------------

def test_registry_lists_all_backends():
    names = sched.available_backends()
    for name in ALL_BACKENDS:
        assert name in names


def test_make_backend_resolves_names_and_instances():
    be = sched.make_backend("heapq")
    assert be.name == "heapq"
    assert sched.make_backend(be) is be
    assert sched.make_backend(None).name == sched.default_backend_name()


def test_make_backend_unknown_name_raises():
    with pytest.raises(ConfigError, match="unknown engine backend"):
        sched.make_backend("quantum")


def test_set_default_backend_unknown_raises():
    with pytest.raises(ConfigError, match="unknown engine backend"):
        sched.set_default_backend("quantum")


def test_default_resolution_order(monkeypatch):
    monkeypatch.delenv(sched.BACKEND_ENV, raising=False)
    assert sched.default_backend_name() == sched.FALLBACK_BACKEND
    monkeypatch.setenv(sched.BACKEND_ENV, "heapq")
    assert sched.default_backend_name() == "heapq"
    # explicit default outranks the environment
    sched.set_default_backend("macro")
    assert sched.default_backend_name() == "macro"
    # clearing restores env resolution
    sched.set_default_backend(None)
    assert sched.default_backend_name() == "heapq"


def test_env_backend_typo_raises(monkeypatch):
    monkeypatch.setenv(sched.BACKEND_ENV, "heapd")
    with pytest.raises(ConfigError, match="REPRO_ENGINE_BACKEND"):
        sched.default_backend_name()


def test_engine_reports_backend_name():
    for name in ALL_BACKENDS:
        assert Engine(backend=name).backend_name == name


# -- queue discipline, per backend --------------------------------------------

@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_pop_batch_returns_whole_tie_in_insertion_order(name):
    be = sched.make_backend(name)
    be.push(2.0, "b1", ())
    be.push(1.0, "a1", ())
    be.push(2.0, "b2", ())
    be.push(1.0, "a2", ())
    assert len(be) == 4
    assert be.peek_time() == 1.0
    assert be.pop_batch() == (1.0, [("a1", ()), ("a2", ())])
    assert be.pop_batch() == (2.0, [("b1", ()), ("b2", ())])
    assert be.pop_batch() is None
    assert be.peek_time() is None
    assert len(be) == 0


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_push_at_popped_time_forms_later_batch(name):
    """Events pushed at time t while t's batch runs must not join it —
    they carry larger insertion seqs than anything already in flight."""
    be = sched.make_backend(name)
    be.push(1.0, "first", ())
    t, batch = be.pop_batch()
    assert (t, batch) == (1.0, [("first", ())])
    be.push(1.0, "second", ())
    assert be.pop_batch() == (1.0, [("second", ())])


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_engine_tie_order_and_times(name):
    eng = Engine(backend=name)
    order = []
    eng.schedule(2.0, order.append, "c")
    for tag in "ab":
        eng.schedule(1.0, order.append, tag)
    eng.schedule(0.0, order.append, "z")
    eng.run()
    assert order == ["z", "a", "b", "c"]
    assert eng.now == 2.0
    assert eng.events_processed == 4


def test_execution_order_identical_across_backends():
    """One interleaved workload — sleeps, events, joins, same-time
    re-schedules — must produce the identical execution log under every
    backend."""

    def trace(backend):
        eng = Engine(backend=backend)
        log = []

        def child(i):
            yield 0.25 * i
            log.append(("child", i, eng.now))
            return i * 10

        def prog(i):
            ev = eng.event()
            eng.schedule(0.5, ev.trigger, i)
            got = yield ev
            log.append(("event", got, eng.now))
            yield None
            v = yield eng.spawn(child(i))
            log.append(("join", v, eng.now))
            yield 0.125
            log.append(("done", i, eng.now))

        for i in range(4):
            eng.spawn(prog(i))
        eng.run()
        return log, eng.now, eng.events_processed

    ref = trace("heapq")
    for name in ALL_BACKENDS[1:]:
        assert trace(name) == ref


# -- bounded runs and instrumentation -----------------------------------------

@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_run_until_stops_and_resumes(name):
    eng = Engine(backend=name)
    ran = []
    eng.schedule(1.0, ran.append, "early")
    eng.schedule(10.0, ran.append, "late")
    assert eng.run(until=5.0) == 5.0
    assert ran == ["early"]
    assert eng.run() == 10.0
    assert ran == ["early", "late"]


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_bounded_run_counts_events_and_high_water(name):
    """The instrumented twin of the until-loop must see the queue's
    high-water mark and count exactly the executed events."""
    registry = MetricsRegistry(enabled=True)
    with using(registry):
        eng = Engine(backend=name)
        for i in range(6):
            eng.schedule(float(i), lambda: None)
        eng.schedule(100.0, lambda: None)
        assert eng.run(until=50.0) == 50.0
    assert eng.events_processed == 6          # the t=100 event did not run
    assert eng.heap_high_water == 7           # sampled before the first pop
    assert registry.counter("engine.events").value == 6
    assert registry.gauge("engine.heap_max").value == 7


@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_unbounded_instrumented_run_matches_fast_loop(name):
    """Metrics-on and metrics-off runs execute identically; only the
    bookkeeping differs."""

    def run(track):
        registry = MetricsRegistry(enabled=track)
        with using(registry):
            eng = Engine(backend=name)
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
    eng = Engine(backend="calendar")
    eng.schedule(1.0, lambda: None)
    eng.schedule(1.0, lambda: None)
    eng.run()
    assert events_processed_total() - before == 2


# -- exception paths -----------------------------------------------------------

@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_mid_batch_exception_requeues_remainder(name):
    """If an event raises mid-batch, the unexecuted tail returns to the
    queue at the same time; a later run() executes it exactly once."""
    eng = Engine(backend=name)
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


# -- event wakeups ride the backend -------------------------------------------

@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_event_wakeups_preserve_waiter_order(name):
    """Trigger pushes every waiter through the backend; wakeup order is
    registration order under all of them."""
    eng = Engine(backend=name)
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


# -- executor determinism per backend ------------------------------------------

@pytest.mark.parametrize("name", ALL_BACKENDS)
def test_serial_parallel_and_cache_warm_identical(name, tmp_path):
    """Inside the paper range, every backend must produce identical sweep
    values serially, under ``--jobs 2``, and from a warm cache."""
    from repro.exec import ResultCache, SimPoint, SweepExecutor

    sched.set_default_backend(name)
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


# -- macro fast-path switches --------------------------------------------------

def test_macro_fastpath_flag_per_backend(monkeypatch):
    monkeypatch.delenv(sched.BACKEND_ENV, raising=False)
    for name in EXACT_BACKENDS:
        sched.set_default_backend(name)
        assert not sched.macro_fastpath_active()
        assert sched.backend_result_tag() is None
    sched.set_default_backend("macro")
    assert sched.macro_fastpath_active()
    assert sched.backend_result_tag() == (
        f"macro-fastpath>{sched.DEFAULT_MACRO_THRESHOLD}"
    )


def test_macro_threshold_env(monkeypatch):
    monkeypatch.delenv(sched.THRESHOLD_ENV, raising=False)
    assert sched.macro_fastpath_threshold() == sched.DEFAULT_MACRO_THRESHOLD
    monkeypatch.setenv(sched.THRESHOLD_ENV, "64")
    assert sched.macro_fastpath_threshold() == 64
    monkeypatch.setenv(sched.THRESHOLD_ENV, "not-a-number")
    with pytest.raises(ConfigError, match="REPRO_MACRO_THRESHOLD"):
        sched.macro_fastpath_threshold()
    monkeypatch.setenv(sched.THRESHOLD_ENV, "-1")
    with pytest.raises(ConfigError, match=">= 0"):
        sched.macro_fastpath_threshold()
