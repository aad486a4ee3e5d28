"""Parallel sweep executor with deterministic merge order.

:class:`SweepExecutor` takes a list of independent simulation points,
satisfies what it can from the result cache, hands the misses to an
execution backend (:mod:`repro.exec.backends` — ``inline``, ``pool``, or
``subprocess``), and returns values **in the order the points were
given**.  Serial, pooled, and fleet runs therefore produce byte-identical
figures, CSVs and tables — the backend changes only the wall clock.

The active executor is ambient per *thread*: library code (the
figure/table builders) calls :func:`get_executor`, which defaults to a
serial, cache-less executor so plain API use and the test-suite behave
exactly as before; the CLI harness installs a configured executor around
a run via :func:`using_executor`, and the sweep service gives each of
its worker threads an executor of its own without them stomping on each
other.

When a :class:`~repro.service.coalesce.PointCoalescer` is attached,
concurrent executors that miss the cache on the *same* point fingerprint
share one computation: the first claimant computes and publishes, the
rest wait and record the point as ``coalesced`` provenance.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections.abc import Sequence
from time import perf_counter
from typing import Any

from ..config import default_jobs
from ..imb import fastpath
from ..obs.context import RECORDERS, current
from .backends import (ExecBackend, ExecBackendError, OnRecord,
                       make_exec_backend)
from .cache import ResultCache
from .points import SimPoint
from .worker import PointRecord, compute_point


class SweepExecutor:
    """Runs batches of :class:`SimPoint` with caching and backend fan-out."""

    def __init__(self, jobs: int | None = None,
                 cache: ResultCache | None = None,
                 backend: str | ExecBackend | None = None,
                 coalescer=None) -> None:
        self.jobs = default_jobs() if jobs is None else max(1, int(jobs))
        self.cache = cache
        self.backend = make_exec_backend(backend, self.jobs)
        self.coalescer = coalescer
        # Cumulative instrumentation (see stats()).
        self.points_total = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.coalesced = 0
        self.requeued = 0
        self.events = 0
        self.compute_wall_s = 0.0
        #: Per-point provenance log in submission order: each entry is
        #: {"point", "provenance" ("cached"|"computed"|"coalesced"),
        #: "wall_s", "events"} so every report can tell cached points
        #: from freshly simulated ones.
        self.point_log: list[dict] = []

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Release backend worker resources (idempotent)."""
        self.backend.close()

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- execution ----------------------------------------------------------

    def run_points(self, points: Sequence[SimPoint]) -> list[Any]:
        """Compute every point; values returned in input order."""
        tel = current("telemetry")
        if not tel.enabled:
            return self._run_points(points, None)
        with tel.span("sweep.batch", "exec", points=len(points),
                      backend=self.backend.name):
            return self._run_points(points, tel)

    def _run_points(self, points: Sequence[SimPoint], tel) -> list[Any]:
        records: list[PointRecord | None] = [None] * len(points)
        misses: list[tuple[int, SimPoint]] = []
        fresh_idx: set[int] = set()
        coalesced_idx: set[int] = set()
        for i, pt in enumerate(points):
            t_h0 = time.time() if tel is not None else 0.0
            rec = self._cache_get(pt)
            if rec is not None:
                records[i] = rec
                if tel is not None:
                    # Exact lookup timing: cache hits are real (if tiny)
                    # phases of the job, and the trace must show them.
                    tel.record("point.cache_hit", "exec",
                               t_start=t_h0, t_end=time.time(),
                               point=pt.key())
            else:
                misses.append((i, pt))

        # Counted exactly once per *submitted* point, before any compute:
        # the worker-crash requeue path below re-runs misses without
        # re-entering run_points, so a requeued point can never be
        # double-counted in stats() (it used to be, when the retry called
        # run_points again on the unfinished tail).
        self.points_total += len(points)
        self.cache_hits += len(points) - len(misses)
        self.cache_misses += len(misses)

        if misses:
            dspan = tel.begin("exec.dispatch", "exec",
                              backend=self.backend.name,
                              points=len(misses)) if tel is not None else None
            t0 = perf_counter()
            try:
                computed, owned = self._compute_misses(
                    [pt for _i, pt in misses])
            except BaseException:
                if tel is not None:
                    tel.end(dspan, status="error")
                raise
            self.compute_wall_s += perf_counter() - t0
            if tel is not None:
                tel.end(dspan)
            for ((i, pt), rec, is_owned) in zip(misses, computed, owned):
                records[i] = rec
                (fresh_idx if is_owned else coalesced_idx).add(i)

        self.coalesced += len(coalesced_idx)
        self.events += sum(r.events for r in records)
        self._observe(points, records, fresh_idx, coalesced_idx)
        return [r.value for r in records]

    def _cache_get(self, pt: SimPoint) -> PointRecord | None:
        rec = self.cache.get(pt) if self.cache is not None else None
        if rec is not None and any(
                cls.replay_cached and current(name).enabled
                and name not in rec.obs
                for name, cls in RECORDERS.items()):
            # Cached before a replayed recorder was switched on:
            # recompute so the report never shows an empty matrix or
            # zero joules for work that did run.  The refreshed record
            # replaces it.
            return None
        return rec

    def _cache_put(self, pt: SimPoint, rec: PointRecord) -> None:
        if self.cache is not None:
            self.cache.put(pt, rec)

    def _compute_misses(self, pts: list[SimPoint],
                        ) -> tuple[list[PointRecord], list[bool]]:
        """Compute cache misses; returns (records, owned-by-us flags).

        Without a coalescer every miss is owned (computed here).  With
        one, misses whose fingerprint is already in flight in a sibling
        executor wait for the sibling's record instead of recomputing;
        owned points are published for those siblings once done.

        Each record is written to the cache as it lands, on this thread,
        while the backend computes the rest of the batch — and, with a
        coalescer, before its flight is retired: a claim is only ever
        granted ownership when the point is durably absent, so a sibling
        arriving at any moment finds the point either in the cache or
        in flight, never in between.
        """
        if self.coalescer is None:
            records = self._compute_with_requeue(
                pts, lambda k, rec: self._cache_put(pts[k], rec))
            return records, [True] * len(pts)

        tel = current("telemetry")
        claims = [self.coalescer.claim(fastpath.salt(pt.key()))
                  for pt in pts]
        records: list[PointRecord | None] = [None] * len(pts)
        owned_flags = [c.owner for c in claims]
        owned_pairs: list[tuple[int, SimPoint]] = []
        for j, (pt, claim) in enumerate(zip(pts, claims)):
            if not claim.owner:
                continue
            # This executor missed, then won the claim — but a sibling
            # may have published and retired the same point in between.
            # Re-check under ownership so that gap never recomputes.
            rec = self._cache_get(pt)
            if rec is not None:
                records[j] = rec
                owned_flags[j] = False  # computed elsewhere, like a join
                claim.publish(rec)
            else:
                if tel.enabled:
                    # Stamp the owner's causal position on the flight so
                    # waiters in sibling jobs can link their coalesced
                    # spans to the computation they piggybacked on.
                    claim.set_owner_ctx(tel.inject())
                owned_pairs.append((j, pt))

        def land(k: int, rec: PointRecord) -> None:
            j, pt = owned_pairs[k]
            self._cache_put(pt, rec)  # durable before the flight retires
            claims[j].publish(rec)
            records[j] = rec

        try:
            self._compute_with_requeue([pt for _j, pt in owned_pairs], land)
        except BaseException as exc:
            for j, _pt in owned_pairs:
                if records[j] is None:  # not yet published
                    claims[j].fail(exc)
            raise
        for j, claim in enumerate(claims):
            if records[j] is not None or claim.owner:
                continue
            t_w0 = time.time() if tel.enabled else 0.0
            rec = claim.wait()
            if rec is None:
                # The owner failed; compute it ourselves rather than
                # propagating someone else's crash into this job.
                rec = compute_point(pts[j])
                self._cache_put(pts[j], rec)
                owned_flags[j] = True
            elif tel.enabled:
                octx = claim.owner_ctx() or {}
                tel.record("point.coalesced", "exec",
                           t_start=t_w0, t_end=time.time(),
                           point=pts[j].key(),
                           owner_trace_id=octx.get("trace_id"),
                           owner_span_id=octx.get("parent_span_id"))
            records[j] = rec
        return records, owned_flags

    def _compute_with_requeue(self, pts: list[SimPoint],
                              on_record: OnRecord) -> list[PointRecord]:
        """Backend compute, largest points first, with inline requeue.

        This is the one dealing rule: the backend gets the points sorted
        by ``nprocs``, largest first (a stable sort, so equal sizes keep
        their input order).  The longest points then start early, and a
        batch does not end on one worker finishing a big point alone.
        ``on_record`` indices, the returned list and
        :attr:`ExecBackendError.done` are mapped back to input order.

        A worker-fleet/pool crash loses some points but not the batch:
        whatever finished is kept, the rest are recomputed inline so the
        sweep still completes (and ``requeued`` counts the casualties).
        ``on_record`` sees every record once: the backend hands on the
        ones that landed, and only the recomputed ones are handed on
        here.
        """
        if not pts:
            return []
        order = sorted(range(len(pts)), key=lambda i: -pts[i].nprocs)
        out: list[PointRecord | None] = [None] * len(pts)
        try:
            records = self.backend.compute(
                [pts[i] for i in order],
                lambda k, rec: on_record(order[k], rec))
        except ExecBackendError as exc:
            done = {order[k]: rec for k, rec in exc.done.items()}
            tel = current("telemetry")
            for i, pt in enumerate(pts):
                rec = done.get(i)
                if rec is None:
                    # The inline recompute traces itself (it runs under
                    # this thread's ambient recorder); a traced run marks
                    # *why* it ran with a requeue span around it.
                    with tel.span("point.requeue", "exec",
                                  point=pt.key(), error=str(exc)[:200]):
                        rec = compute_point(pt)
                    self.requeued += 1
                    on_record(i, rec)
                out[i] = rec
            return out
        for i, rec in zip(order, records):
            out[i] = rec
        return out

    def _observe(self, points: Sequence[SimPoint],
                 records: Sequence[PointRecord],
                 fresh_idx: set[int],
                 coalesced_idx: set[int] = frozenset()) -> None:
        """Provenance log + per-point recorder fan-in for one batch.

        Each enabled ambient recorder merges the points' snapshots in
        input order, which is what makes serial, parallel, and
        cache-warm sweeps byte-identical.  A ``replay_cached`` recorder
        (comm matrices, timelines, energy: pure virtual-time facts,
        identical whether the point was recomputed or replayed from the
        cache) merges *every* point.  The metrics registry merges only
        freshly computed points — a cached (or coalesced: computed by a
        sibling executor) point's engine events were *not* executed by
        this executor, and counting them would make ``engine.events``
        disagree with reality.  Cached points are visible instead
        through ``cache.hits`` and their ``provenance`` tag.
        """
        registry = current("metrics")
        recorders = [rec for rec in map(current, RECORDERS) if rec.enabled]
        for i, pt in enumerate(points):
            rec = records[i]
            fresh = i in fresh_idx
            provenance = ("computed" if fresh
                          else "coalesced" if i in coalesced_idx
                          else "cached")
            self.point_log.append({
                "point": pt.key(),
                "provenance": provenance,
                "wall_s": round(rec.wall_s, 6),
                "events": rec.events,
            })
            if registry.enabled and fresh:
                registry.histogram("exec.point_wall_s").observe(rec.wall_s)
            for recorder in recorders:
                snap = rec.obs.get(recorder.name)
                if snap is not None and (fresh or recorder.replay_cached):
                    recorder.merge(snap)
        if registry.enabled:
            n_fresh = len(fresh_idx)
            registry.counter("exec.points").inc(len(points))
            registry.counter("cache.hits").inc(
                len(points) - n_fresh - len(coalesced_idx))
            registry.counter("cache.misses").inc(n_fresh)
            if coalesced_idx:
                registry.counter("exec.coalesced").inc(len(coalesced_idx))

    def stats(self) -> dict:
        """Cumulative counters since construction (snapshot-and-diff safe)."""
        return {
            "points": self.points_total,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "coalesced": self.coalesced,
            "requeued": self.requeued,
            "events": self.events,
            "compute_wall_s": self.compute_wall_s,
        }

    def backend_health(self) -> dict | None:
        """Worker-health counters of the backend, if it keeps any.

        The ``subprocess`` fleet counts workers spawned, requests
        served, crashes, and post-crash restarts; backends without
        worker processes return None.
        """
        health = getattr(self.backend, "health", None)
        return dict(health) if health else None


# -- thread-ambient executor context ----------------------------------------

_tls = threading.local()
_default: SweepExecutor | None = None
_default_lock = threading.Lock()


def get_executor() -> SweepExecutor:
    """The active executor (a serial, cache-less one if none installed).

    The active executor is per-thread (see :func:`using_executor`); the
    fallback default is shared process-wide.
    """
    global _default
    current = getattr(_tls, "current", None)
    if current is not None:
        return current
    if _default is None:
        with _default_lock:
            if _default is None:
                _default = SweepExecutor(jobs=1, cache=None,
                                         backend="inline")
    return _default


def set_executor(executor: SweepExecutor | None) -> SweepExecutor | None:
    """Install ``executor`` as this thread's ambient one; returns the old."""
    previous = getattr(_tls, "current", None)
    _tls.current = executor
    return previous


@contextlib.contextmanager
def using_executor(executor: SweepExecutor):
    """Scope ``executor`` as the active one for a ``with`` block.

    Thread-local: concurrent service jobs each install their own
    executor without interfering.
    """
    previous = set_executor(executor)
    try:
        yield executor
    finally:
        set_executor(previous)
