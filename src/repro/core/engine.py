"""Discrete-event simulation engine.

The engine owns a virtual clock and a pending-event queue provided by a
pluggable scheduler backend (:mod:`repro.core.sched`).  Simulated
activities (MPI ranks, benchmark drivers) are Python *generator
processes* in the SimPy style: a process is a generator that
``yield``\\ s one of

* a ``float``/``int`` — sleep for that many virtual seconds,
* an :class:`Event` — block until the event is triggered; the value passed
  to :meth:`Event.trigger` becomes the result of the ``yield`` expression,
* another :class:`Process` — block until that process finishes (join);
  the child's return value becomes the result of the ``yield``,
* ``None`` — yield control and resume at the same virtual time (a
  cooperative re-schedule).

Processes compose with plain ``yield from`` so higher layers (collectives,
benchmarks) read like straight-line MPI code.

The engine is single-threaded and fully deterministic: ties in the event
queue are broken by insertion order, under every backend.  Events are
dispatched in *batches* — all events at one timestamp are drained in one
inner loop, so the per-event cost of queue maintenance, clock updates and
instrumentation is amortised over the tie width (large in the
bulk-synchronous phases that dominate benchmark traffic).
"""

from __future__ import annotations

from collections.abc import Callable, Generator, Iterable
from typing import Any

from ..obs.context import current
from .errors import DeadlockError, SimulationError
from .sched import SchedulerBackend, make_backend

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
        """Advance the generator by one yield.

        Hot path: this runs once per event.  The dominant yields are plain
        ``float`` sleeps and ``None`` re-schedules, so those are dispatched
        on exact type and pushed straight onto the scheduler backend with
        pre-bound locals; ``Event``/``Process`` waits and int/float
        subclasses (``bool``, numpy scalars) take the slower isinstance
        branches.  Every raising exit — generator exception, negative
        delay, unsupported yield — discards the process from the live set
        first, so a caught error never leaves a ghost in the deadlock
        report.
        """
        engine = self.engine
        try:
            item = self.gen.send(value)
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
        elif item is None:
            engine._push(engine._now, self._step, _STEP_ARGS)
        elif isinstance(item, Event):
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
    """The discrete-event scheduler and virtual clock.

    ``backend`` selects the pending-event queue implementation: a
    registered name (``"heapq"``, ``"calendar"``, ``"macro"``), a
    :class:`~repro.core.sched.SchedulerBackend` instance, or ``None`` for
    the process default (``--engine-backend`` flag /
    ``REPRO_ENGINE_BACKEND`` env var, falling back to ``calendar``).
    Execution order — and therefore every simulated result — is identical
    under every exact backend.
    """

    def __init__(self, backend: str | SchedulerBackend | None = None) -> None:
        self._now = 0.0
        self._sched = make_backend(backend)
        #: Raw absolute-time insert of the active backend.  The single
        #: scheduling funnel: every event — sleeps, event wakeups, process
        #: joins, transport callbacks — goes through this bound method, so
        #: backend selection covers the whole event population.
        self._push = self._sched.push
        self._live_processes: set[Process] = set()
        self._running = False
        #: Events executed by this engine across all run() calls.
        self.events_processed = 0
        #: Largest pending-queue size seen while running (only tracked when
        #: the ambient metrics registry is enabled at construction).
        #: Sampled once per dispatched batch — at the moment the batch is
        #: taken, matching what a per-event loop would see at its first
        #: pop of that timestamp.
        self.heap_high_water = 0
        registry = current("metrics")
        self._metrics = registry if registry.enabled else None

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def backend_name(self) -> str:
        """Name of the scheduler backend this engine runs on."""
        return self._sched.name

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
        runs in one inner loop.  If an event callback raises, the
        unexecuted remainder of its batch is pushed back onto the queue
        (in order, at the same time) before the exception propagates, so
        the pending set stays consistent for post-mortem inspection.
        """
        if self._running:
            raise SimulationError("engine.run() is not reentrant")
        self._running = True
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
                it = iter(batch)
                try:
                    for fn, args in it:
                        fn(*args)
                except BaseException:
                    self._requeue(t, it)
                    raise
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
            self.events_processed += n_events
            EVENT_STATS["processed"] += n_events
            if track:
                self.heap_high_water = hw
                m = self._metrics
                m.counter("engine.events").inc(n_events)
                m.counter("engine.runs").inc()
                m.gauge("engine.heap_max").set_max(hw)

    def _requeue(self, t: float, tail) -> None:
        """Re-queue the unexecuted remainder of a batch whose event raised.

        ``tail`` is the batch iterator, resumed past the raising event —
        pushing it back at ``t`` keeps the pending set consistent for
        post-mortem inspection.  (Events executed before the raise stay
        uncounted, matching the pre-batching per-event loop, which also
        never reached its counter update on a raise.)
        """
        push = self._push
        for fn, args in tail:
            push(t, fn, args)

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
