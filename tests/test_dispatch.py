"""In-place dispatch is exact: the engine against a per-event reference.

The reference dispatcher below is the plainest reading of the engine's
determinism contract — one heap of ``(time, seq)`` events, popped one at
a time, nothing ever run in place.  Random programs (ties, zero-delay
yields, waits on fired and pending events, scheduled triggers with any
number of waiters, direct triggers, joins, bounded runs) must produce
the same side-effect order, clock, event count and queue high-water mark
on the :class:`~repro.core.engine.Engine` as on the reference, under
both exact backends.
"""

from __future__ import annotations

from heapq import heappop, heappush

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import Engine
from repro.core.errors import DeadlockError
from repro.obs import MetricsRegistry, using

# -- reference dispatcher ------------------------------------------------------


class RefEvent:
    def __init__(self, eng):
        self.eng, self.triggered, self.value, self.waiters = eng, False, None, []

    def trigger(self, value=None):
        assert not self.triggered
        self.triggered, self.value = True, value
        for proc in self.waiters:
            self.eng._push(self.eng.now, proc.step, (value,))
        self.waiters = []

    fire = trigger

    def add_waiter(self, proc):
        if self.triggered:
            self.eng._push(self.eng.now, proc.step, (self.value,))
        else:
            self.waiters.append(proc)


class RefProcess:
    def __init__(self, eng, gen, name):
        self.eng, self.gen, self.name = eng, gen, name
        self.done = RefEvent(eng)

    def step(self, value):
        try:
            item = self.gen.send(value)
        except StopIteration as stop:
            self.eng._live_processes.discard(self)
            self.done.trigger(stop.value)
            return
        if isinstance(item, RefEvent):
            item.add_waiter(self)
        elif isinstance(item, RefProcess):
            item.done.add_waiter(self)
        else:
            self.eng.schedule(item or 0.0, self.step, None)


class RefEngine:
    """Per-event ``(time, seq)`` heap; a *batch* — the unit the engine
    samples the high-water mark on — is every event at the popped time
    that was already queued when its first event was popped."""

    def __init__(self):
        self.now, self.heap, self.seq = 0.0, [], 0
        self._live_processes = set()
        self.events_processed = self.heap_high_water = 0
        self.batch = (None, 0)  # (time, first seq not in the batch)

    def _push(self, t, fn, args):
        heappush(self.heap, (t, self.seq, fn, args))
        self.seq += 1

    def schedule(self, delay, fn, *args):
        self._push(self.now + delay, fn, args)

    def event(self):
        return RefEvent(self)

    def spawn(self, gen, name):
        proc = RefProcess(self, gen, name)
        self._live_processes.add(proc)
        self.schedule(0.0, proc.step, None)
        return proc

    def run(self, until=None):
        while self.heap:
            t, seq, fn, args = self.heap[0]
            if until is not None and t > until:
                self.now = until
                return until
            if t != self.batch[0] or seq >= self.batch[1]:
                self.heap_high_water = max(self.heap_high_water, len(self.heap))
                self.batch = (t, self.seq)
            heappop(self.heap)
            self.now = t
            fn(*args)
            self.events_processed += 1
        if self._live_processes:
            raise DeadlockError("stuck")
        return self.now


# -- random programs -------------------------------------------------------------

N_EVENTS = 4
DELAYS = (0.0, 0.5, 1.0)

_op = st.one_of(
    st.tuples(st.just("sleep"), st.sampled_from(DELAYS)),
    st.tuples(st.just("none")),
    st.tuples(st.just("wait"), st.integers(0, N_EVENTS - 1)),
    st.tuples(st.just("trigger"), st.integers(0, N_EVENTS - 1)),
    st.tuples(st.just("fire"), st.integers(0, N_EVENTS - 1),
              st.sampled_from(DELAYS)),
    st.tuples(st.just("join"), st.integers(0, 3)),
)
_setup = st.one_of(
    st.tuples(st.just("log"), st.sampled_from(DELAYS)),
    st.tuples(st.just("fire"), st.sampled_from(DELAYS),
              st.integers(0, N_EVENTS - 1)),
)
programs = st.fixed_dictionaries({
    "procs": st.lists(st.lists(_op, max_size=8), min_size=1, max_size=4),
    "setup": st.lists(_setup, max_size=6),
    "until": st.sampled_from((None, 0.0, 0.5, 1.0, 2.0)),
})


def execute(eng, program):
    """Run ``program`` on ``eng``; return everything observable."""
    log = []
    events = [eng.event() for _ in range(N_EVENTS)]
    armed = set()  # events whose one trigger is already set up

    def arm(k, delay=None):
        if k in armed:
            return
        armed.add(k)
        if delay is None:
            events[k].trigger(("v", k))
        else:
            eng.schedule(delay, events[k].fire, ("v", k))

    def body(i, ops):
        for n, op in enumerate(ops):
            got = None
            if op[0] == "sleep":
                got = yield op[1]
            elif op[0] == "none":
                got = yield None
            elif op[0] == "wait":
                got = yield events[op[1]]
            elif op[0] == "trigger":
                arm(op[1])
            elif op[0] == "fire":
                arm(op[1], op[2])
            elif op[0] == "join":
                got = yield procs[op[1] % len(procs)]
            log.append((i, n, eng.now, got))
        return i

    for n, item in enumerate(program["setup"]):
        if item[0] == "log":
            eng.schedule(item[1], log.append, ("cb", n))
        else:
            arm(item[2], item[1])
    procs = [eng.spawn(body(i, ops), name=f"p{i}")
             for i, ops in enumerate(program["procs"])]

    def run(until=None):
        try:
            outcome = eng.run(until=until)
        except DeadlockError:
            outcome = sorted(p.name for p in eng._live_processes)
        return (outcome, len(log), eng.now, eng.events_processed,
                eng.heap_high_water)

    first = run(program["until"]) if program["until"] is not None else None
    return first, run(), log


@pytest.mark.parametrize("backend", ["heapq", "calendar"])
@settings(max_examples=300, deadline=None)
@given(program=programs)
def test_engine_matches_reference_dispatch(backend, program):
    expected = execute(RefEngine(), program)
    with using(MetricsRegistry(enabled=True)):
        eng = Engine(backend=backend)
    assert execute(eng, program) == expected
