"""Discrete-event simulation engine.

The engine owns a virtual clock and a pending-event queue, the calendar
queue of :mod:`repro.core.sched`.  Simulated activities (MPI ranks,
benchmark drivers) are Python *generator processes* in the SimPy style:
a process is a generator that ``yield``\\ s one of

* a ``float``/``int`` — sleep for that many virtual seconds,
* an :class:`Event` — block until the event is triggered; the value passed
  to :meth:`Event.trigger` becomes the result of the ``yield`` expression,
* another :class:`Process` — block until that process finishes (join);
  the child's return value becomes the result of the ``yield``,
* ``None`` — yield control and resume at the same virtual time (a
  cooperative re-schedule).

Processes compose with plain ``yield from`` so higher layers (collectives,
benchmarks) read like straight-line MPI code.

The engine is single-threaded and fully deterministic: events run in
``(time, insertion order)``.  Events are dispatched in *batches* — all
events queued at one timestamp are drained in one inner loop.  Ties are
rare in the message-level traffic that dominates (about 1.005 events
per batch on the HPCC kernels), so the engine also dispatches *in
place*: when an event is about to be queued at the current time while
nothing else is pending at that time — the running batch has no
remainder and the queue holds nothing at ``now`` — the contract makes
it the very next event dispatched, so it runs at once instead of taking
a queue round trip.  Two sites do this: a process
step that yields ``None`` or an already-triggered event, and
:meth:`Event.fire`, the scheduled trigger that wakes a single waiter.
Events run in place count as events (``events_processed``) and sample
the queue high-water mark as the batch they would have started, so
every observable result is what the queued dispatch would produce.
The transport goes one step further for an exchange's eager send
completion, which provably fires unobserved: it is never queued at all
and only counted (:meth:`repro.mpi.pt2pt.Transport.sendrecv`), with
recorders on or off.  The queue high-water mark (``engine.heap_max``)
is therefore the peak of events actually queued, an in-place claim
sampled as the queue plus itself.
"""

from __future__ import annotations

from collections.abc import Callable, Generator, Iterable
from typing import Any

from ..obs.context import current
from .errors import DeadlockError, SimulationError
from .sched import CalendarQueue

#: Type alias for process generators.
ProcessGen = Generator[Any, Any, Any]

#: Process-wide event counter, accumulated by every :meth:`Engine.run`.
#: The sweep executor reads deltas around each simulation point to report
#: events-processed / events-per-second in ``BENCH_harness.json``.
EVENT_STATS = {"processed": 0}


def events_processed_total() -> int:
    """Total events executed by all engines in this process."""
    return EVENT_STATS["processed"]


#: Shared args tuple for self-reschedules — avoids one allocation per event
#: on the dominant sleep path.
_STEP_ARGS = (None,)


class Event:
    """A one-shot latching event that processes can wait on.

    Once triggered the event stays triggered; waiting on a triggered event
    resumes the waiter immediately (at the current virtual time) with the
    stored value.  This latch behaviour is what makes sequential waits on a
    list of events ("waitall") correct.
    """

    __slots__ = ("engine", "name", "_triggered", "_value", "_waiters")

    def __init__(self, engine: "Engine", name: str = "") -> None:
        self.engine = engine
        self.name = name
        self._triggered = False
        self._value: Any = None
        # Lazily allocated: most events (send/recv completions) acquire
        # at most one waiter, and many trigger before anyone waits.
        self._waiters: list[Process] | None = None

    @property
    def triggered(self) -> bool:
        return self._triggered

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError(f"event {self.name!r} has not been triggered")
        return self._value

    def trigger(self, value: Any = None) -> None:
        """Fire the event, waking all current and future waiters."""
        if self._triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self._triggered = True
        self._value = value
        waiters = self._waiters
        if waiters:
            self._waiters = None
            engine = self.engine
            push = engine._push
            now = engine._now
            args = (value,)
            for proc in waiters:
                push(now, proc._step, args)

    def fire(self, value: Any = None) -> None:
        """Scheduled trigger: push ``ev.fire`` as an event callback.

        Behaves as :meth:`trigger`, except that a single waiter whose
        wakeup would be the very next event dispatched is stepped in
        place instead of queued.  Only valid as the whole body of a
        dispatched event — called from inside another event, the rest
        of that event must run before any waiter, so use
        :meth:`trigger` there.
        """
        waiters = self._waiters
        if (waiters is not None and len(waiters) == 1
                and not self._triggered and self.engine._run_here()):
            self._triggered = True
            self._value = value
            self._waiters = None
            waiters[0]._step(value)
        else:
            self.trigger(value)

    def _add_waiter(self, proc: "Process") -> None:
        if self._triggered:
            engine = self.engine
            engine._push(engine._now, proc._step, (self._value,))
        elif self._waiters is None:
            self._waiters = [proc]
        else:
            self._waiters.append(proc)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "set" if self._triggered else "pending"
        return f"<Event {self.name!r} {state}>"


class Process:
    """A running generator process.

    A ``Process`` is itself awaitable (another process may ``yield`` it to
    join on completion and receive its return value).
    """

    __slots__ = ("engine", "gen", "name", "done", "_started")

    def __init__(self, engine: "Engine", gen: ProcessGen, name: str = "") -> None:
        if not isinstance(gen, Generator):
            raise SimulationError(
                f"process body must be a generator, got {type(gen).__name__}; "
                "did you forget a yield?"
            )
        self.engine = engine
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self.done = Event(engine, name=f"{self.name}.done")
        self._started = False

    @property
    def finished(self) -> bool:
        return self.done.triggered

    @property
    def result(self) -> Any:
        return self.done.value

    def _start(self) -> None:
        if self._started:
            raise SimulationError(f"process {self.name!r} started twice")
        self._started = True
        self.engine.schedule(0.0, self._step, None)

    def _step(self, value: Any) -> None:
        """Advance the generator until it blocks or sleeps.

        Hot path: this runs once per queued wakeup.  The yields — plain
        ``float`` sleeps, ``None`` re-schedules, ``Event`` waits and
        ``Process`` joins — are dispatched on exact type with pre-bound
        locals; subclasses (``bool``, numpy scalars) take the isinstance
        branches of :meth:`_yield_other`.
        A ``None`` or an already-triggered event resumes the generator
        at the current time: in place when :meth:`Engine._run_here`
        says that wakeup is the very next event, else through the queue.
        Every raising exit — generator exception, negative delay,
        unsupported yield — discards the process from the live set
        first, so a caught error never leaves a ghost in the deadlock
        report.
        """
        engine = self.engine
        send = self.gen.send
        while True:
            try:
                item = send(value)
            except StopIteration as stop:
                engine._live_processes.discard(self)
                self.done.trigger(stop.value)
                return
            except Exception:
                engine._live_processes.discard(self)
                raise
            cls = item.__class__
            if cls is float or cls is int:
                if item < 0:
                    engine._live_processes.discard(self)
                    raise SimulationError(
                        f"process {self.name!r} yielded negative delay {item!r}"
                    )
                engine._push(engine._now + item, self._step, _STEP_ARGS)
                return
            if item is None:
                value = None
            else:
                if cls is Process:
                    item = item.done
                elif cls is not Event:
                    self._yield_other(item)
                    return
                if not item._triggered:
                    item._add_waiter(self)
                    return
                value = item._value
            if not engine._run_here():
                engine._push(engine._now, self._step, (value,))
                return

    def _yield_other(self, item: Any) -> None:
        """The rare yields: subclasses of the awaitables and numbers."""
        engine = self.engine
        if isinstance(item, Event):
            item._add_waiter(self)
        elif isinstance(item, Process):
            item.done._add_waiter(self)
        elif isinstance(item, (int, float)):
            if item < 0:
                engine._live_processes.discard(self)
                raise SimulationError(
                    f"process {self.name!r} yielded negative delay {item!r}"
                )
            engine.schedule(float(item), self._step, None)
        else:
            engine._live_processes.discard(self)
            raise SimulationError(
                f"process {self.name!r} yielded unsupported value {item!r}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.finished else "live"
        return f"<Process {self.name!r} {state}>"


class Engine:
    """The discrete-event scheduler and virtual clock."""

    def __init__(self) -> None:
        self._now = 0.0
        self._sched = CalendarQueue()
        #: Raw absolute-time insert of the queue.  The single scheduling
        #: funnel: every event — sleeps, event wakeups, process joins,
        #: transport callbacks — goes through this bound method.
        self._push = self._sched.push
        self._pending_at = self._sched.pending_at
        self._live_processes: set[Process] = set()
        self._running = False
        #: True while the running event is the last of its batch — the
        #: first half of the in-place test in :meth:`_run_here`.
        self._tail = False
        #: Events counted without a queue round trip during the current
        #: run() call: those run in place, and the send completions
        #: :meth:`repro.mpi.pt2pt.Transport.sendrecv` elides (counted
        #: when reserved, as each would have been dispatched).
        self._logical = 0
        #: Events executed by this engine across all run() calls,
        #: including those run in place.
        self.events_processed = 0
        #: Largest pending-queue size seen while running (only tracked when
        #: the ambient metrics registry is enabled at construction);
        #: elided send completions never enter the queue.
        #: Sampled once per dispatched batch — at the moment the batch is
        #: taken, matching what a per-event loop would see at its first
        #: pop of that timestamp — and once per event run in place.
        self.heap_high_water = 0
        registry = current("metrics")
        self._metrics = registry if registry.enabled else None

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule in the past (delay={delay})")
        self._push(self._now + delay, fn, args)

    def event(self, name: str = "") -> Event:
        """Create a fresh untriggered :class:`Event`."""
        return Event(self, name=name)

    def spawn(self, gen: ProcessGen, name: str = "") -> Process:
        """Register a generator as a process and schedule its first step."""
        proc = Process(self, gen, name=name)
        self._live_processes.add(proc)
        proc._start()
        return proc

    def run(self, until: float | None = None) -> float:
        """Run the event loop.

        Runs until the queue drains or virtual time would pass ``until``.
        Returns the final virtual time.  Raises :class:`DeadlockError` if
        the queue drains while spawned processes are still unfinished.

        Dispatch is batched: every event at the minimum pending timestamp
        runs in one inner loop, and the last event of a batch may run
        further events in place (see :meth:`_run_here`).  ``until`` never
        cuts an in-place event: it runs at the current time, which the
        bound has already admitted.  If an event callback raises, the
        unexecuted remainder of its batch is pushed back onto the queue
        (in order, at the same time) before the exception propagates, so
        the pending set stays consistent for post-mortem inspection.
        """
        if self._running:
            raise SimulationError("engine.run() is not reentrant")
        self._running = True
        self._tail = True
        self._logical = 0
        sched = self._sched
        pop_batch = sched.pop_batch
        n_events = 0
        hw = self.heap_high_water
        track = self._metrics is not None
        peek = sched.peek_time
        try:
            # One loop for every mode: ``until`` adds a peek per batch
            # and ``track`` a high-water sample per batch; with neither,
            # each batch runs inline and its length is added once.
            while True:
                if until is not None:
                    t = peek()
                    if t is None:
                        break
                    if t > until:
                        self._now = until
                        return until
                if track:
                    pending = len(sched)
                    if pending > hw:
                        hw = pending
                nxt = pop_batch()
                if nxt is None:
                    break
                t, batch = nxt
                self._now = t
                if len(batch) == 1:
                    fn, args = batch[0]
                    fn(*args)
                    n_events += 1
                else:
                    self._run_batch(t, batch)
                    n_events += len(batch)
            if self._live_processes:
                stuck = sorted(p.name for p in self._live_processes)
                raise DeadlockError(
                    "event queue drained with blocked processes: "
                    + ", ".join(stuck[:16])
                    + ("..." if len(stuck) > 16 else "")
                )
            return self._now
        finally:
            self._running = False
            self._tail = False
            n_events += self._logical
            self.events_processed += n_events
            EVENT_STATS["processed"] += n_events
            if track:
                if hw > self.heap_high_water:
                    self.heap_high_water = hw
                m = self._metrics
                m.counter("engine.events").inc(n_events)
                m.counter("engine.runs").inc()
                m.gauge("engine.heap_max").set_max(self.heap_high_water)

    def _run_batch(self, t: float, batch: list) -> None:
        """Run a batch of tied events; only the last may run others in place.

        If an event raises, the unexecuted remainder goes back onto the
        queue at ``t`` (the batch's events executed before the raise stay
        uncounted, matching the pre-batching per-event loop, which also
        never reached its counter update on a raise; events run in place
        are counted when claimed).
        """
        self._tail = False
        last = len(batch) - 1
        i = 0
        try:
            while i < last:
                fn, args = batch[i]
                i += 1
                fn(*args)
        except BaseException:
            push = self._push
            for fn, args in batch[i:]:
                push(t, fn, args)
            raise
        self._tail = True
        fn, args = batch[last]
        fn(*args)

    def _run_here(self) -> bool:
        """Claim the next dispatch for an event due now, if it is free.

        True when an event queued at the current time would be the very
        next one dispatched: the running event is the last of its batch
        and the queue holds nothing at ``now``.  Under the ``(time,
        insertion order)`` contract the caller may then run that event
        in place — as the tail of the running event — with the same
        effect as queueing it.  A claimed event counts as processed and
        samples the high-water mark as the batch it would have started
        (everything pending plus itself).
        """
        if not self._tail or self._pending_at(self._now):
            return False
        self._logical += 1
        if self._metrics is not None:
            pending = len(self._sched) + 1
            if pending > self.heap_high_water:
                self.heap_high_water = pending
        return True

    def run_all(self, gens: Iterable[ProcessGen]) -> list[Any]:
        """Spawn each generator, run to completion, return their results."""
        procs = [self.spawn(g, name=f"proc{i}") for i, g in enumerate(gens)]
        self.run()
        return [p.result for p in procs]


def wait_all(events: Iterable[Event | Process]) -> ProcessGen:
    """Process helper: wait for every event/process, return their values.

    Because events latch, waiting sequentially is equivalent to waiting
    concurrently; completion time is the max over all events.
    """
    results = []
    for ev in events:
        results.append((yield ev))
    return results
