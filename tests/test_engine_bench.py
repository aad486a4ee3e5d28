"""Engine hot-path regression guard: counters plus a micro-benchmark."""

from __future__ import annotations

from time import perf_counter

from repro.core.engine import EVENT_STATS, Engine, events_processed_total

#: Fixed micro-benchmark workload: 8 processes x 10k sleep yields.
N_PROCS = 8
N_YIELDS = 10_000

#: Generous wall-clock budget (seconds).  The loop runs this workload in
#: well under a second on any modern host; the budget only catches order-
#: of-magnitude regressions (e.g. an accidental O(n log n) -> O(n^2)).
BUDGET_S = 10.0


def _sleeper(n):
    for _ in range(n):
        yield 1.0


def test_engine_counts_events():
    eng = Engine()
    before_total = events_processed_total()
    eng.spawn(_sleeper(5))
    eng.run()
    # one event per _step call: the start step plus one per yield
    assert eng.events_processed == 6
    assert events_processed_total() - before_total == 6
    assert EVENT_STATS["processed"] == events_processed_total()


def test_engine_counts_accumulate_across_runs():
    eng = Engine()
    eng.spawn(_sleeper(3))
    eng.run()
    eng.spawn(_sleeper(3))
    eng.run()
    assert eng.events_processed == 8


def test_engine_event_loop_micro_benchmark():
    eng = Engine()
    for i in range(N_PROCS):
        eng.spawn(_sleeper(N_YIELDS), name=f"p{i}")
    t0 = perf_counter()
    eng.run()
    elapsed = perf_counter() - t0
    expected = N_PROCS * (N_YIELDS + 1)
    assert eng.events_processed == expected
    assert elapsed < BUDGET_S, (
        f"engine processed {expected} events in {elapsed:.2f}s "
        f"({expected / elapsed:,.0f} ev/s); budget is {BUDGET_S}s"
    )


def test_engine_mixed_yields_still_supported():
    """The fast path must not change semantics for the slow yield types."""
    eng = Engine()

    def child():
        yield 0.5
        return "child-done"

    def parent():
        ev = eng.event("sig")
        eng.schedule(1.0, ev.trigger, "sig-value")
        got_sig = yield ev                      # Event wait
        got_child = yield eng.spawn(child())    # Process join
        yield None                              # cooperative reschedule
        yield True                              # bool: int subclass, 1s sleep
        return (got_sig, got_child, eng.now)

    proc = eng.spawn(parent())
    eng.run()
    sig, child_res, now = proc.result
    assert sig == "sig-value"
    assert child_res == "child-done"
    assert now == 2.5  # 1.0 (event) + 0.5 (child) + 1.0 (bool sleep)
