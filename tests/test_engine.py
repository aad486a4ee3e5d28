"""Unit tests for the discrete-event engine."""

import numpy as np
import pytest

from repro.core.engine import Engine, Event, Process, wait_all
from repro.core.errors import DeadlockError, SimulationError


def test_clock_starts_at_zero():
    assert Engine().now == 0.0


def test_schedule_runs_in_time_order():
    eng = Engine()
    order = []
    eng.schedule(2.0, order.append, "b")
    eng.schedule(1.0, order.append, "a")
    eng.schedule(3.0, order.append, "c")
    eng.run()
    assert order == ["a", "b", "c"]
    assert eng.now == 3.0


def test_ties_break_by_insertion_order():
    eng = Engine()
    order = []
    for tag in "abc":
        eng.schedule(1.0, order.append, tag)
    eng.run()
    assert order == ["a", "b", "c"]


def test_negative_delay_rejected():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.schedule(-0.1, lambda: None)


def test_run_until_stops_clock():
    eng = Engine()
    eng.schedule(10.0, lambda: None)
    assert eng.run(until=5.0) == 5.0
    # remaining event still runs on a subsequent call
    assert eng.run() == 10.0


def test_process_sleep_advances_time():
    eng = Engine()

    def prog():
        yield 1.5
        yield 2.5
        return "done"

    p = eng.spawn(prog())
    eng.run()
    assert p.finished
    assert p.result == "done"
    assert eng.now == 4.0


def test_process_yield_none_resumes_same_time():
    eng = Engine()
    times = []

    def prog():
        times.append(eng.now)
        yield None
        times.append(eng.now)

    eng.spawn(prog())
    eng.run()
    assert times == [0.0, 0.0]


def test_event_wakes_waiter_with_value():
    eng = Engine()
    ev = eng.event("data")
    got = []

    def waiter():
        value = yield ev
        got.append((eng.now, value))

    eng.spawn(waiter())
    eng.schedule(3.0, ev.trigger, 42)
    eng.run()
    assert got == [(3.0, 42)]


def test_event_latches_for_late_waiters():
    eng = Engine()
    ev = eng.event()
    got = []

    def late():
        yield 5.0
        value = yield ev
        got.append((eng.now, value))

    eng.spawn(late())
    eng.schedule(1.0, ev.trigger, "early")
    eng.run()
    assert got == [(5.0, "early")]


def test_event_multiple_waiters_all_wake():
    eng = Engine()
    ev = eng.event()
    woke = []

    def waiter(i):
        yield ev
        woke.append(i)

    for i in range(3):
        eng.spawn(waiter(i))
    eng.schedule(1.0, ev.trigger, None)
    eng.run()
    assert sorted(woke) == [0, 1, 2]


def test_event_double_trigger_raises():
    eng = Engine()
    ev = eng.event()
    ev.trigger(1)
    with pytest.raises(SimulationError):
        ev.trigger(2)


def test_event_value_before_trigger_raises():
    eng = Engine()
    with pytest.raises(SimulationError):
        _ = eng.event().value


def test_join_process_returns_child_result():
    eng = Engine()

    def child():
        yield 2.0
        return "payload"

    def parent():
        c = eng.spawn(child())
        value = yield c
        return (eng.now, value)

    p = eng.spawn(parent())
    eng.run()
    assert p.result == (2.0, "payload")


def test_join_finished_process_immediate():
    eng = Engine()

    def child():
        yield 1.0
        return 7

    def parent():
        c = eng.spawn(child())
        yield 5.0
        v = yield c  # child long done; resumes immediately
        return (eng.now, v)

    p = eng.spawn(parent())
    eng.run()
    assert p.result == (5.0, 7)


def test_wait_all_collects_in_order():
    eng = Engine()
    evs = [eng.event(str(i)) for i in range(3)]

    def prog():
        vals = yield from wait_all(evs)
        return (eng.now, vals)

    p = eng.spawn(prog())
    # trigger out of order at different times
    eng.schedule(3.0, evs[0].trigger, "a")
    eng.schedule(1.0, evs[1].trigger, "b")
    eng.schedule(2.0, evs[2].trigger, "c")
    eng.run()
    assert p.result == (3.0, ["a", "b", "c"])


def test_deadlock_detected_with_process_names():
    eng = Engine()
    ev = eng.event()

    def stuck():
        yield ev

    eng.spawn(stuck(), name="stuck_proc")
    with pytest.raises(DeadlockError, match="stuck_proc"):
        eng.run()


def test_non_generator_process_rejected():
    eng = Engine()
    with pytest.raises(SimulationError, match="generator"):
        Process(eng, lambda: None)  # type: ignore[arg-type]


def test_bad_yield_value_raises():
    eng = Engine()

    def prog():
        yield "nonsense"

    eng.spawn(prog())
    with pytest.raises(SimulationError, match="unsupported"):
        eng.run()


def test_negative_sleep_raises():
    eng = Engine()

    def prog():
        yield -1.0

    eng.spawn(prog())
    with pytest.raises(SimulationError, match="negative"):
        eng.run()


@pytest.mark.parametrize("delay", [float("nan"), np.float64("nan")],
                         ids=["float", "numpy"])
def test_nan_sleep_raises(delay):
    # NaN fails every comparison, so ``delay < 0`` let it through: the
    # clock became NaN and later events ran out of time order.
    eng = Engine()
    log = []

    def prog(tag, d):
        yield d
        log.append((tag, eng.now))

    eng.spawn(prog("nan", delay))
    eng.spawn(prog("b", 2.0))
    eng.spawn(prog("a", 1.0))
    with pytest.raises(SimulationError, match="negative"):
        eng.run()
    assert log == []


def test_nan_schedule_delay_rejected():
    eng = Engine()
    with pytest.raises(SimulationError, match="past"):
        eng.schedule(float("nan"), lambda: None)


def test_run_until_behind_the_clock_raises():
    eng = Engine()
    log = []

    def prog():
        yield 5.0
        yield 5.0

    eng.spawn(prog())
    assert eng.run(until=7.0) == 7.0
    # Running "until 3" would set the clock back to 3, and an event
    # scheduled 1 s later would run at 4, after the one at 5 had run.
    with pytest.raises(SimulationError, match="clock is at 7.0"):
        eng.run(until=3.0)
    with pytest.raises(SimulationError, match="nan"):
        eng.run(until=float("nan"))
    assert eng.now == 7.0
    eng.schedule(1.0, lambda: log.append(eng.now))
    assert eng.run(until=7.0) == 7.0
    assert eng.run() == 10.0
    assert log == [8.0]


def test_exception_in_process_propagates():
    eng = Engine()

    def prog():
        yield 1.0
        raise ValueError("boom")

    eng.spawn(prog())
    with pytest.raises(ValueError, match="boom"):
        eng.run()


def test_run_all_returns_results():
    eng = Engine()

    def prog(i):
        yield float(i)
        return i * i

    assert eng.run_all(prog(i) for i in range(4)) == [0, 1, 4, 9]


def test_run_not_reentrant():
    eng = Engine()

    def prog():
        with pytest.raises(SimulationError, match="reentrant"):
            eng.run()
        yield 0.1

    eng.spawn(prog())
    eng.run()


def test_determinism_same_structure_same_times():
    def build():
        eng = Engine()
        log = []

        def prog(i):
            yield 0.5 * (i + 1)
            log.append((eng.now, i))
            yield 0.25
            log.append((eng.now, i))

        for i in range(5):
            eng.spawn(prog(i))
        eng.run()
        return log

    assert build() == build()
