"""The discrete-event engine's pending-event queue: one calendar queue.

The queue is the hottest data structure in the whole simulator: every
sleep, message callback and event wakeup passes through it once.  It is
a calendar-queue-style bucketed scheduler tuned for the engine's
near-monotone, heavily tied timestamp distribution: events are bucketed
by *exact* timestamp (a dict of append-ordered lists) and only the set
of **distinct** times lives in a heap.  A push at an already-pending
time is an O(1) append and the heap shrinks by the tie factor (1.005 to
2.4 events per distinct time on the benchmark workloads).  No seq
counter or per-event tuple is needed — bucket order *is* insertion
order.

Events run in ``(time, global insertion order)`` — the determinism
contract the golden oracle relies on.  The queue hands the engine
*batches* (all events at one timestamp present when the batch is
taken), which the engine drains in one inner loop, amortising pop cost
and bookkeeping.

A plain ``(time, seq)`` binary heap was measured against this queue on
every benchmark workload and lost on all three (3-10% slower end to
end), so it is the only queue; see ``docs/MODEL.md`` §11.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable


class CalendarQueue:
    """Bucketed calendar queue keyed by exact timestamp.

    The contract the engine relies on:

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
      ``t`` (the engine asks it at the current clock before dispatching
      an event in place).
    * ``len(queue)`` is the number of pending events.

    ``_buckets`` maps each distinct pending time to its events in
    insertion order; ``_times`` is a heap of the distinct times.  A time
    enters the heap exactly once per bucket generation (a bucket is
    removed whole by :meth:`pop_batch`, and only a later push at the
    same time re-creates it and re-heaps the key), so the heap never
    holds duplicates and each event pays amortised O(1) push cost
    whenever its timestamp is already pending — the common case in the
    engine's bulk-synchronous phases.
    """

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

    def pop_batch(self) -> tuple[float, list[tuple[Callable, tuple]]] | None:
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

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<CalendarQueue pending={self._len}>"
