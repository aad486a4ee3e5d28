"""Pluggable scheduler backends for the discrete-event engine.

The engine's pending-event queue is the hottest data structure in the
whole simulator; this module lifts it behind a small backend interface so
the queue discipline can be swapped without touching engine semantics:

* ``heapq`` — the reference backend: one binary heap of
  ``(time, seq, fn, args)`` tuples, ties broken by a global insertion
  counter.  Exactly the pre-refactor engine behaviour.
* ``calendar`` — a calendar-queue-style bucketed backend tuned for the
  engine's near-monotone, heavily tied timestamp distribution: events are
  bucketed by *exact* timestamp (a dict of append-ordered lists) and only
  the set of **distinct** times lives in a heap.  A push at an
  already-pending time is an O(1) append and the heap shrinks by the
  tie factor (1.005 to 2.4 events per distinct time on the benchmark
  workloads).  No seq counter or per-event tuple is needed — bucket
  order *is* insertion order.
* ``macro`` — the calendar backend plus the **macro fast-path** flag:
  steady-state collective phases whose cost the closed forms in
  :mod:`repro.network.macro` price are short-circuited analytically
  instead of being scheduled message by message (see
  :mod:`repro.imb.fastpath`).  The fast-path only fires at rank counts
  strictly above :func:`macro_fastpath_threshold`, which defaults to
  above the paper's largest configuration — results inside the paper
  range stay byte-identical under every backend.

Every backend yields the exact same execution order: events run in
``(time, global insertion order)`` — the determinism contract the golden
oracle relies on.  Backends hand the engine *batches* (all events at one
timestamp present when the batch is taken), which the engine drains in
one inner loop, amortising pop cost and bookkeeping.

Selection: ``Engine(backend=...)`` takes a name or instance; the
process-wide default comes from :func:`set_default_backend` (wired to the
``--engine-backend`` harness flag) or the ``REPRO_ENGINE_BACKEND``
environment variable, falling back to ``calendar``.
"""

from __future__ import annotations

import itertools
import os
from heapq import heappop, heappush
from typing import Any, Callable

from .errors import ConfigError

#: Environment variable consulted for the process default backend.
BACKEND_ENV = "REPRO_ENGINE_BACKEND"

#: Environment variable for the macro fast-path rank threshold.
THRESHOLD_ENV = "REPRO_MACRO_THRESHOLD"

#: Fast-path fires only strictly above this many ranks by default — one
#: past the paper's largest configuration (2024 CPUs on the four-box
#: Altix), so every figure/table value in the paper range is produced by
#: the exact message-level simulation under *every* backend.
DEFAULT_MACRO_THRESHOLD = 2048

#: Name used when no explicit default has been configured anywhere.
FALLBACK_BACKEND = "calendar"


class SchedulerBackend:
    """Pending-event queue: absolute-time push, batched in-order pop.

    The contract every backend must honour:

    * :meth:`push` inserts ``fn(*args)`` to run at absolute time ``t``.
    * :meth:`pop_batch` removes and returns ``(t, events)`` where ``t``
      is the minimum pending time and ``events`` is **every** event at
      ``t`` currently queued, in insertion order; ``None`` when empty.
      Events pushed at ``t`` *while a batch runs* form a later batch —
      which is exactly where a per-event pop loop would put them, since
      they would carry larger insertion seqs than anything in flight.
    * :meth:`peek_time` returns the minimum pending time without
      removing anything (``None`` when empty) — the bounded-run path.
    * :meth:`pending_at` answers whether any event is queued at exactly
      ``t``, for ``t`` no later than every pending time (the engine asks
      it at the current clock before dispatching an event in place).
    * ``len(backend)`` is the number of pending events.

    ``macro_fastpath`` marks backends that additionally license the
    analytic collective fast-path; the scheduler itself stays exact.
    """

    name: str = "?"
    macro_fastpath: bool = False

    def push(self, t: float, fn: Callable[..., None], args: tuple) -> None:
        raise NotImplementedError

    def pop_batch(self) -> tuple[float, list[tuple[Callable, tuple]]] | None:
        raise NotImplementedError

    def peek_time(self) -> float | None:
        raise NotImplementedError

    def pending_at(self, t: float) -> bool:
        return self.peek_time() == t

    def __len__(self) -> int:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r} pending={len(self)}>"


class HeapqBackend(SchedulerBackend):
    """Reference backend: one binary heap, global tie-break counter."""

    name = "heapq"

    __slots__ = ("_heap", "_counter")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Callable, tuple]] = []
        self._counter = itertools.count()

    def push(self, t: float, fn: Callable[..., None], args: tuple) -> None:
        heappush(self._heap, (t, next(self._counter), fn, args))

    def pop_batch(self):
        heap = self._heap
        if not heap:
            return None
        t, _seq, fn, args = heappop(heap)
        batch = [(fn, args)]
        while heap and heap[0][0] == t:
            _t, _seq, fn, args = heappop(heap)
            batch.append((fn, args))
        return t, batch

    def peek_time(self) -> float | None:
        return self._heap[0][0] if self._heap else None

    def __len__(self) -> int:
        return len(self._heap)


class CalendarQueueBackend(SchedulerBackend):
    """Bucketed calendar queue keyed by exact timestamp.

    ``_buckets`` maps each distinct pending time to its events in
    insertion order; ``_times`` is a heap of the distinct times.  A time
    enters the heap exactly once per bucket generation (a bucket is
    removed whole by :meth:`pop_batch`, and only a later push at the
    same time re-creates it and re-heaps the key), so the heap never
    holds duplicates and each event pays amortised O(1) push cost
    whenever its timestamp is already pending — the common case in the
    engine's bulk-synchronous phases.
    """

    name = "calendar"

    __slots__ = ("_buckets", "_times", "_len", "pending_at")

    def __init__(self) -> None:
        self._buckets: dict[float, list[tuple[Callable, tuple]]] = {}
        self._times: list[float] = []
        self._len = 0
        #: A time is pending exactly when it has a bucket: the engine
        #: asks once per in-place candidate, so bind the C-level test.
        self.pending_at = self._buckets.__contains__

    def push(self, t: float, fn: Callable[..., None], args: tuple) -> None:
        bucket = self._buckets.get(t)
        if bucket is None:
            self._buckets[t] = [(fn, args)]
            heappush(self._times, t)
        else:
            bucket.append((fn, args))
        self._len += 1

    def pop_batch(self):
        if not self._times:
            return None
        t = heappop(self._times)
        batch = self._buckets.pop(t)
        self._len -= len(batch)
        return t, batch

    def peek_time(self) -> float | None:
        return self._times[0] if self._times else None

    def __len__(self) -> int:
        return self._len


class MacroBackend(CalendarQueueBackend):
    """Calendar queue that additionally enables the macro fast-path."""

    name = "macro"
    macro_fastpath = True

    __slots__ = ()


#: Backend registry: name -> zero-arg factory.
BACKENDS: dict[str, Callable[[], SchedulerBackend]] = {
    "heapq": HeapqBackend,
    "calendar": CalendarQueueBackend,
    "macro": MacroBackend,
}


def register_backend(name: str,
                     factory: Callable[[], SchedulerBackend]) -> None:
    """Register a scheduler backend under ``name`` (overwrites allowed)."""
    BACKENDS[name] = factory


def available_backends() -> list[str]:
    """Registered backend names, sorted."""
    return sorted(BACKENDS)


# -- process-wide default -----------------------------------------------------

_default_name: str | None = None


def set_default_backend(name: str | None) -> str | None:
    """Set (or with ``None`` clear) the process default; returns the old.

    The explicit default outranks ``REPRO_ENGINE_BACKEND``; clearing it
    restores env-var resolution.  Raises :class:`ConfigError` for an
    unknown name so CLI typos fail before any simulation runs.
    """
    global _default_name
    if name is not None and name not in BACKENDS:
        raise ConfigError(
            f"unknown engine backend {name!r} "
            f"(registered: {', '.join(available_backends())})"
        )
    previous, _default_name = _default_name, name
    return previous


def default_backend_name() -> str:
    """The backend name new engines use when none is passed explicitly."""
    if _default_name is not None:
        return _default_name
    env = os.environ.get(BACKEND_ENV, "").strip()
    if env:
        if env not in BACKENDS:
            raise ConfigError(
                f"{BACKEND_ENV}={env!r} names no registered backend "
                f"(registered: {', '.join(available_backends())})"
            )
        return env
    return FALLBACK_BACKEND


def make_backend(backend: str | SchedulerBackend | None = None,
                 ) -> SchedulerBackend:
    """Resolve ``backend`` (name, instance, or None = default) to a fresh
    instance ready to be owned by one engine."""
    if backend is None:
        backend = default_backend_name()
    if isinstance(backend, SchedulerBackend):
        return backend
    try:
        factory = BACKENDS[backend]
    except KeyError:
        raise ConfigError(
            f"unknown engine backend {backend!r} "
            f"(registered: {', '.join(available_backends())})"
        ) from None
    return factory()


# -- macro fast-path switches -------------------------------------------------

def macro_fastpath_active() -> bool:
    """Whether the resolved default backend licenses the macro fast-path."""
    name = default_backend_name()
    factory = BACKENDS.get(name)
    if factory is None:  # pragma: no cover - guarded by default_backend_name
        return False
    flag = getattr(factory, "macro_fastpath", None)
    if flag is None:
        flag = getattr(factory(), "macro_fastpath", False)
    return bool(flag)


def macro_fastpath_threshold() -> int:
    """Rank count strictly above which the macro fast-path may fire.

    Read from ``REPRO_MACRO_THRESHOLD`` each call (scale studies lower it
    per run); defaults to :data:`DEFAULT_MACRO_THRESHOLD`, i.e. beyond
    the paper's largest configuration so default sweeps never divert.
    """
    raw = os.environ.get(THRESHOLD_ENV, "").strip()
    if not raw:
        return DEFAULT_MACRO_THRESHOLD
    try:
        value = int(raw)
    except ValueError:
        raise ConfigError(
            f"{THRESHOLD_ENV} must be an integer, got {raw!r}"
        ) from None
    if value < 0:
        raise ConfigError(f"{THRESHOLD_ENV} must be >= 0, got {value}")
    return value


def backend_result_tag() -> str | None:
    """Cache-key salt for modes that change simulated *values*.

    Exact backends (``heapq``/``calendar``) are proven byte-identical, so
    their points share cache entries — that sharing is what makes
    cache-warm cross-backend runs byte-identical.  A fast-pathing
    backend prices eligible points analytically, so its results must
    never be served to (or from) an exact-mode cache: salt the key with
    the mode and its threshold.
    """
    if not macro_fastpath_active():
        return None
    return f"macro-fastpath>{macro_fastpath_threshold()}"
