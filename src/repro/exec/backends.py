"""Pluggable execution backends for the sweep executor.

This module lifts the *executor's* compute path behind a registry of
execution backends, so how simulation points are fanned out can be
swapped without touching sweep semantics:

* ``inline`` — compute every point serially in this process.  The
  reference backend and the library default.
* ``subprocess`` — a persistent fleet of worker subprocesses speaking a
  line-delimited JSON job protocol over stdin/stdout
  (:mod:`repro.exec.fleet`); the default for ``jobs > 1``.  Computes a
  single point, or any batch with ``jobs == 1``, inline.  The explicit
  wire protocol is the seam where future remote (HTTP) workers plug in:
  anything that can answer the same JSON lines can be a worker.  A dead
  worker costs only its lost points: the next batch respawns the fleet.

Every backend honours the same contract: :meth:`ExecBackend.compute`
takes a sequence of points and returns their records **in input order**
— which is what keeps figures byte-identical across backends.  It also
hands each record to an ``on_record(index, record)`` callback as soon
as the record lands, on the calling thread, so the executor can write
it to the cache while the rest of the batch is still computing.  Worker
*transport* failures (a killed worker process, a garbled reply) raise
:class:`ExecBackendError` carrying any already-completed records so the
executor can requeue only the unfinished points; simulation errors
raised by a point itself propagate unchanged, as they always did.
Backends start points in the order given; the dealing order (largest
``nprocs`` first) is the executor's, in one place.

Selection: ``SweepExecutor(backend=...)`` takes a name or instance.
:func:`resolve_exec_backend_name` is the one rule for a name: the
explicit one (the ``--exec-backend`` CLI flag), else the
``REPRO_EXEC_BACKEND`` environment variable, else ``subprocess`` for
``jobs > 1`` and ``inline`` otherwise.  :class:`repro.config.ReproConfig`
and :func:`make_exec_backend` both apply it.
"""

from __future__ import annotations

import base64
import json
import os
import pickle
import queue
import subprocess
import sys
import threading
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ..config import EXEC_BACKEND_ENV
from ..core.errors import ConfigError
from ..imb import fastpath
from ..obs.context import RECORDERS, current, install
from .points import SimPoint
from .worker import PointRecord, compute_point

#: ``on_record(index, record)``: called once per landed record, on the
#: thread that called :meth:`ExecBackend.compute`.
OnRecord = Callable[[int, PointRecord], None]


class ExecBackendError(RuntimeError):
    """A worker-transport failure (worker death, garbled reply).

    ``done`` maps the indices of points that *did* finish (within the
    failed :meth:`ExecBackend.compute` call) to their records, so the
    caller can requeue only what is missing.  Every record in ``done``
    has already been handed to ``on_record``.  Never raised for errors in
    the simulated points themselves — those propagate as-is.
    """

    def __init__(self, message: str,
                 done: dict[int, PointRecord] | None = None) -> None:
        super().__init__(message)
        self.done: dict[int, PointRecord] = done or {}


@dataclass(frozen=True)
class WorkerContext:
    """Everything a worker process must mirror from its parent.

    One JSON-able object, sent in the fleet's ``init`` message: the
    names of the enabled per-point recorders plus the macro fast-path
    threshold (a fresh worker process would otherwise start exact
    whatever its parent runs).
    """

    recorders: tuple[str, ...] = ()
    macro_above: int | None = None

    @classmethod
    def capture(cls) -> "WorkerContext":
        """Snapshot the ambient switches of the calling (parent) process."""
        return cls(recorders=tuple(name for name in RECORDERS
                                   if current(name).enabled),
                   macro_above=fastpath.macro_above())

    def to_dict(self) -> dict:
        return {"recorders": list(self.recorders),
                "macro_above": self.macro_above}

    @classmethod
    def from_dict(cls, doc: dict) -> "WorkerContext":
        """Rebuild a context read off the fleet pipe.

        An unknown recorder name is a :class:`ConfigError`: a worker
        that silently skipped it would return records missing that
        recorder's snapshots.
        """
        recorders = tuple(doc.get("recorders", ()))
        unknown = [name for name in recorders if name not in RECORDERS]
        if unknown:
            raise ConfigError(
                f"unknown recorder {unknown[0]!r} in worker context "
                f"(registered: {', '.join(RECORDERS)})")
        return cls(recorders=recorders,
                   macro_above=doc.get("macro_above"))


def init_worker(ctx: WorkerContext) -> None:
    """Initialise a worker process from its parent's :class:`WorkerContext`.

    Run by each fleet worker on the ``init`` message.  Workers start
    with the shared disabled recorders; each recorder the parent runs
    with is installed process-globally as a fresh enabled instance, so
    :func:`compute_point` collects per-point snapshots for the
    deterministic fan-in merge.  Telemetry is not installed: a
    process-global recorder in a worker would accumulate spans nobody
    drains, so the fleet worker scopes one per job message instead and
    ships the spans back in the protocol reply (see
    :mod:`repro.exec.fleet`).
    """
    fastpath.set_macro_above(ctx.macro_above)
    for name in ctx.recorders:
        install(RECORDERS[name]())


def _ignore(index: int, record: PointRecord) -> None:
    """Default ``on_record``: the caller wants only the returned list."""


def compute_inline(points: Sequence[SimPoint],
                   on_record: OnRecord = _ignore) -> list[PointRecord]:
    """Compute ``points`` serially here, handing each record on as it lands."""
    out = []
    for i, pt in enumerate(points):
        rec = compute_point(pt)
        on_record(i, rec)
        out.append(rec)
    return out


class ExecBackend:
    """How a batch of simulation points gets computed.

    The contract:

    * :meth:`compute` returns one :class:`PointRecord` per point, in
      input order.  A transport failure raises :class:`ExecBackendError`
      with the partial ``done`` map; a point's own exception propagates.
    * Each record is passed to ``on_record(index, record)`` exactly
      once, as it lands (in any order), on the thread that called
      :meth:`compute`.
    * :meth:`close` releases worker resources (idempotent).
    """

    name: str = "?"

    def compute(self, points: Sequence[SimPoint],
                on_record: OnRecord = _ignore) -> list[PointRecord]:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        pass

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name!r}>"


class InlineBackend(ExecBackend):
    """Serial, in-process computation — the reference backend."""

    name = "inline"

    def __init__(self, jobs: int = 1) -> None:
        # ``jobs`` accepted for factory uniformity; inline ignores it.
        self.jobs = 1

    def compute(self, points: Sequence[SimPoint],
                on_record: OnRecord = _ignore) -> list[PointRecord]:
        return compute_inline(points, on_record)


class _FleetWorker:
    """One subprocess speaking the line-delimited JSON job protocol."""

    def __init__(self, ctx: WorkerContext) -> None:
        env = dict(os.environ)
        pkg_root = str(Path(__file__).resolve().parent.parent.parent)
        path = env.get("PYTHONPATH", "")
        if pkg_root not in path.split(os.pathsep):
            env["PYTHONPATH"] = (pkg_root + (os.pathsep + path if path
                                             else ""))
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.exec.fleet"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=env, text=True, bufsize=1,
        )
        self.send({"op": "init", "ctx": ctx.to_dict()})

    def send(self, msg: dict) -> None:
        self.proc.stdin.write(json.dumps(msg, sort_keys=True) + "\n")
        self.proc.stdin.flush()

    def recv(self) -> dict | None:
        line = self.proc.stdout.readline()
        if not line:
            return None
        return json.loads(line)

    def alive(self) -> bool:
        return self.proc.poll() is None

    def close(self) -> None:
        if self.alive():
            try:
                self.send({"op": "shutdown"})
            except (OSError, ValueError):  # pragma: no cover - racing exit
                pass
        try:
            self.proc.stdin.close()
        except OSError:  # pragma: no cover
            pass
        # Replies still owed for abandoned jobs must not block the
        # worker on a full pipe: unread, they fail fast with EPIPE.
        self.proc.stdout.close()
        self.proc.wait(timeout=10)


def encode_wire(obj: SimPoint | PointRecord) -> str:
    """Pickle + base64 a point or record for transport in a JSON line."""
    return base64.b64encode(
        pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)).decode()


def decode_wire(blob: str) -> SimPoint | PointRecord:
    """Inverse of :func:`encode_wire`."""
    return pickle.loads(base64.b64decode(blob))


#: Jobs a fleet worker holds at once: the one it computes and one queued
#: in its stdin pipe, so it never idles waiting for the parent's next send.
IN_FLIGHT = 2


class SubprocessBackend(ExecBackend):
    """Worker-fleet backend: N persistent subprocess workers.

    Points are dealt from one shared queue in the order given (the
    executor hands them over largest ``nprocs`` first).  Each worker's
    pipeline is first filled round-robin to :data:`IN_FLIGHT` jobs;
    after that, a worker pulls the next point from the queue as each
    reply arrives.  The
    parent writes at most ``IN_FLIGHT`` small job lines ahead of the
    reply it waits for, so the pipes cannot fill up and deadlock.  A
    reply must carry the id of the worker's oldest in-flight job; a
    mismatch is a transport failure like a dead worker.

    One pump thread per worker drives its pipe and puts each decoded
    record on a queue; the calling thread drains that queue, handing
    every record to ``on_record`` as it lands, until the pumps finish.

    When a worker fails, its oldest in-flight point is lost and the
    points queued behind it go back to the shared queue for the rest of
    the fleet.  The batch then surfaces as :class:`ExecBackendError`
    carrying every record the fleet completed, so the executor requeues
    only the lost points.
    """

    name = "subprocess"

    def __init__(self, jobs: int = 1) -> None:
        self.jobs = max(1, int(jobs))
        self._fleet: list[_FleetWorker] = []
        self._ctx: WorkerContext | None = None
        #: Cumulative worker-health counters (service fleet stats):
        #: workers spawned, job requests answered, crashes (transport
        #: failures that dropped the fleet), and workers spawned *after*
        #: a crash (restarts).  Plain ints mutated under the GIL — reads
        #: are snapshots via SweepExecutor.backend_health().
        self.health = {"workers_spawned": 0, "requests": 0,
                       "crashes": 0, "restarts": 0}
        self._crashed = False

    def _ensure_fleet(self, n: int) -> list[_FleetWorker]:
        ctx = WorkerContext.capture()
        if self._fleet and ctx != self._ctx:
            # Observability switches or scheduler default changed since
            # the fleet started: restart so workers mirror the parent.
            self.close()
        self._ctx = ctx
        while len(self._fleet) < n:
            self._fleet.append(_FleetWorker(ctx))
            self.health["workers_spawned"] += 1
            if self._crashed:
                self.health["restarts"] += 1
        return self._fleet[:n]

    def compute(self, points: Sequence[SimPoint],
                on_record: OnRecord = _ignore) -> list[PointRecord]:
        if not points:
            return []
        n_workers = min(self.jobs, len(points))
        if n_workers <= 1:
            # A single worker fleet would just add IPC overhead on top
            # of a serial computation; compute it here instead.
            return compute_inline(points, on_record)
        fleet = self._ensure_fleet(n_workers)
        pending = deque(range(len(points)))

        # Trace context captured on the dispatching thread: the pump
        # threads below have no open spans of their own (the recorder's
        # stacks are thread-local), so they carry both the context and
        # the recorder object into the protocol explicitly.  This dict
        # in the job message IS the cross-process propagation seam a
        # remote (HTTP) worker would inherit.
        tel = current("telemetry")
        trace_ctx = tel.inject() if tel.enabled else None

        done: dict[int, PointRecord] = {}
        landed: queue.Queue = queue.Queue()  # (index, record); None = pump done
        failures: list[str] = []
        failed: list[_FleetWorker] = []
        lock = threading.Lock()

        def send(worker: _FleetWorker, i: int) -> None:
            msg = {"op": "job", "id": i, "point": encode_wire(points[i])}
            if trace_ctx is not None:
                msg["trace"] = trace_ctx
            worker.send(msg)

        def lose(worker: _FleetWorker, inflight: deque, message: str) -> None:
            """Drop a failed worker: its oldest job is lost with it, and
            the jobs queued behind that one never started, so they go
            back to the shared queue."""
            with lock:
                failures.append(message)
                failed.append(worker)
                if inflight:
                    inflight.popleft()
                    pending.extendleft(reversed(inflight))

        def pump(worker: _FleetWorker, inflight: deque) -> None:
            """Drive one worker until the shared queue drains."""
            try:
                for i in inflight:
                    send(worker, i)
                while inflight:
                    reply = worker.recv()
                    i = inflight[0]
                    if reply is None:
                        lose(worker, inflight,
                             f"worker exited mid-batch (point {i})")
                        return
                    if not isinstance(reply, dict) or reply.get("id") != i:
                        got = (reply.get("id") if isinstance(reply, dict)
                               else reply)
                        lose(worker, inflight,
                             f"worker i/o failed: reply for job {got!r} "
                             f"while job {i} was oldest in flight")
                        return
                    error = reply.get("op") == "error"
                    record = None if error else decode_wire(reply["record"])
                    inflight.popleft()
                    if not error:
                        landed.put((i, record))
                    with lock:
                        if error:
                            # The point's own failure: the worker stays
                            # healthy, and the executor's inline requeue
                            # raises the real exception.
                            failures.append(
                                f"point {points[i]} failed in worker: "
                                f"{reply.get('error')}")
                        nxt = pending.popleft() if pending else None
                    if trace_ctx is not None:
                        tel.adopt(reply.get("spans"))
                    if nxt is not None:
                        inflight.append(nxt)
                        send(worker, nxt)
            except (OSError, ValueError, pickle.UnpicklingError) as exc:
                lose(worker, inflight, f"worker i/o failed: {exc}")
            finally:
                landed.put(None)

        live = fleet
        while pending and live:
            # Fill every pipeline round-robin, so a batch smaller than
            # the fleet's depth still spreads over all workers; after
            # that, whichever worker answers first pulls the next point.
            queues: list[deque] = [deque() for _ in live]
            for _ in range(IN_FLIGHT):
                for q in queues:
                    if pending:
                        q.append(pending.popleft())
            threads = [threading.Thread(target=pump, args=(w, q), daemon=True)
                       for w, q in zip(live, queues) if q]
            for t in threads:
                t.start()
            running = len(threads)
            try:
                while running:
                    item = landed.get()
                    if item is None:
                        running -= 1
                        continue
                    i, record = item
                    done[i] = record
                    self.health["requests"] += 1
                    on_record(i, record)
            except BaseException:
                # The pumps are still driving the fleet: drop it, so they
                # stop at their closed pipes and the next batch respawns.
                self.close()
                raise
            # Survivors take over the points a failed worker handed back.
            live = [w for w in live if w not in failed]

        crashes = len(failed)
        if failures:
            self.health["crashes"] += crashes
            if crashes:
                self._crashed = True
            self.close()  # drop the whole fleet; survivors restart lazily
            raise ExecBackendError(
                "; ".join(failures), done=done)
        return [done[i] for i in range(len(points))]

    def close(self) -> None:
        fleet, self._fleet = self._fleet, []
        for worker in fleet:
            try:
                worker.close()
            except (OSError, subprocess.TimeoutExpired):
                worker.proc.kill()


#: Execution-backend registry: name -> factory taking ``jobs``.
EXEC_BACKENDS: dict[str, Callable[[int], ExecBackend]] = {
    "inline": InlineBackend,
    "subprocess": SubprocessBackend,
}


def register_exec_backend(name: str,
                          factory: Callable[[int], ExecBackend]) -> None:
    """Register an execution backend under ``name`` (overwrites allowed)."""
    EXEC_BACKENDS[name] = factory


def available_exec_backends() -> list[str]:
    """Registered execution-backend names, sorted."""
    return sorted(EXEC_BACKENDS)


def resolve_exec_backend_name(name: str | None = None, jobs: int = 1) -> str:
    """The backend to run: ``name``, else ``REPRO_EXEC_BACKEND``, else
    ``subprocess`` for ``jobs > 1`` and ``inline`` otherwise.

    A name missing from :data:`EXEC_BACKENDS` is a :class:`ConfigError`;
    one read from the environment names the variable.
    """
    where = ""
    if name is None:
        name = os.environ.get(EXEC_BACKEND_ENV, "").strip()
        if not name:
            return "subprocess" if jobs > 1 else "inline"
        where = f" in {EXEC_BACKEND_ENV}"
    if name not in EXEC_BACKENDS:
        raise ConfigError(
            f"unknown exec backend {name!r}{where} "
            f"(registered: {', '.join(available_exec_backends())})")
    return name


def make_exec_backend(backend: str | ExecBackend | None = None,
                      jobs: int = 1) -> ExecBackend:
    """Resolve ``backend`` (name, instance, or None = default) to a fresh
    instance sized for ``jobs`` workers."""
    if isinstance(backend, ExecBackend):
        return backend
    return EXEC_BACKENDS[resolve_exec_backend_name(backend, jobs)](jobs)
