"""Async job queue: submit sweeps, poll status, stream progress.

:class:`JobQueue` is the heart of the sweep service.  Jobs (a set of
figure/table ids plus a CPU cap) are queued and drained by a bounded
pool of worker *threads*; each worker thread runs its job through its
own :class:`~repro.exec.executor.SweepExecutor` built from one shared
:class:`~repro.config.ReproConfig`, so process fan-out and the exec
backend stay configurable per service, not per request.

Two layers of deduplication make concurrent identical requests cheap:

* every worker shares one multi-tenant result cache, so anything any
  job has finished computing is a cache hit for the rest;
* every worker shares one
  :class:`~repro.service.coalesce.PointCoalescer`, so points that are
  *currently being computed* by one job are not recomputed by another —
  two concurrent submissions of the same figure cost one figure's worth
  of simulation, total.

Observability: each finished job carries its executor's stats (points,
cache hits/misses, coalesced, requeued, events, compute wall) and, when
the queue has a ledger path, appends one schema-versioned row to the run
ledger — the same append-only history the harness writes, with a
``service`` field naming the job.
"""

from __future__ import annotations

import itertools
import queue as _queue
import threading
import time
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from ..api import normalize_figure_id, normalize_item_id, \
    normalize_table_id, resolve_item
from ..config import ReproConfig
from ..exec.executor import SweepExecutor, using_executor
from ..obs.context import using
from ..obs.energy import EnergyRecorder
from ..obs.ledger import RunLedger, ledger_row
from ..obs.telemetry import (TelemetryRecorder, mint_span_id, mint_trace_id,
                             trace_summary)
from ..scenarios import item_charge, run_items
from .coalesce import PointCoalescer
from .health import ServiceEventLog, ServiceMetrics

#: Job lifecycle states.
JOB_STATES = ("queued", "running", "done", "failed")

#: Terminal job states.
TERMINAL_STATES = ("done", "failed")


class Job:
    """One submitted request and everything known about its execution."""

    def __init__(self, job_id: str, items: tuple[str, ...],
                 max_cpus: int | None) -> None:
        self.id = job_id
        self.items = items
        self.max_cpus = max_cpus
        self.state = "queued"
        self.error: str | None = None
        self.submitted_at = time.time()
        self.started_at: float | None = None
        self.finished_at: float | None = None
        self.wall_s: float | None = None
        self.stats: dict = {}
        self.energy: dict | None = None
        self.item_results: list[dict] = []
        self.artifacts: list[str] = []
        self.cond = threading.Condition()
        self.events: list[dict] = []
        #: Telemetry (present only when the queue runs with --telemetry):
        #: the job's trace id, its pre-minted root span id, and — once
        #: terminal — the complete span list plus a compact summary.
        self.trace_id: str | None = None
        self.root_span_id: str | None = None
        self.trace_spans: list[dict] | None = None
        self.trace: dict | None = None

    def emit(self, kind: str, **data) -> None:
        with self.cond:
            self.events.append({"seq": len(self.events), "type": kind,
                                "job": self.id, **data})
            self.cond.notify_all()

    def snapshot(self) -> dict:
        """JSON-able status document (what ``status``/``poll`` return)."""
        with self.cond:
            doc = {
                "id": self.id,
                "items": list(self.items),
                "max_cpus": self.max_cpus,
                "state": self.state,
                "error": self.error,
                "submitted_at": self.submitted_at,
                "started_at": self.started_at,
                "finished_at": self.finished_at,
                "wall_s": self.wall_s,
                "stats": dict(self.stats),
                "item_results": list(self.item_results),
                "artifacts": list(self.artifacts),
            }
            if self.energy is not None:
                doc["energy"] = dict(self.energy)
            if self.trace_id is not None:
                doc["trace_id"] = self.trace_id
            if self.trace is not None:
                doc["trace"] = dict(self.trace)
            return doc


class JobQueue:
    """Bounded-worker async job queue over the sweep executor."""

    def __init__(self, config: ReproConfig | None = None, *,
                 workers: int = 2,
                 cache=None,
                 artifacts_dir: str | Path | None = None,
                 ledger_path: str | Path | None = None,
                 events_path: str | Path | None = None) -> None:
        self.config = config if config is not None \
            else ReproConfig.from_env_and_args()
        self.config.apply_macro_above()
        self.cache = cache if cache is not None else self.config.make_cache()
        self.coalescer = PointCoalescer()
        self.artifacts_dir = (Path(artifacts_dir)
                              if artifacts_dir is not None else None)
        self.ledger_path = (Path(ledger_path)
                            if ledger_path is not None else None)
        # Telemetry trio, present only under --telemetry: one shared
        # trace recorder (span stacks are per worker thread, so
        # concurrent jobs do not interleave), one service metrics set,
        # and — when the spool gave us a path — the append-only event
        # log.  With telemetry off all three are None and every call
        # site below pays one `is not None` test.
        if self.config.telemetry:
            self.telemetry: TelemetryRecorder | None = \
                TelemetryRecorder(enabled=True)
            self.metrics: ServiceMetrics | None = ServiceMetrics()
            self.event_log: ServiceEventLog | None = (
                ServiceEventLog(events_path)
                if events_path is not None else None)
        else:
            self.telemetry = None
            self.metrics = None
            self.event_log = None
        self.workers = max(1, int(workers))
        self._jobs: dict[str, Job] = {}
        self._order: list[str] = []
        self._pending: _queue.Queue = _queue.Queue()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._closed = False
        self._threads = [
            threading.Thread(target=self._worker_loop,
                             name=f"repro-service-{i}", daemon=True)
            for i in range(self.workers)
        ]
        for t in self._threads:
            t.start()

    # -- submission ---------------------------------------------------------

    def submit(self, items: list[str] | tuple[str, ...] = (), *,
               figures: list | tuple = (), tables: list | tuple = (),
               max_cpus: int | None = None,
               job_id: str | None = None) -> str:
        """Queue a job; returns its id immediately.

        ``items`` mixes raw ids (``"fig06"``, ``"table2"``, ``"6"``);
        ``figures``/``tables`` take explicitly typed ids.  Ids are
        normalised here so ``submit(["6"])`` and ``submit(["fig06"])``
        are the same request.
        """
        if self._closed:
            raise RuntimeError("JobQueue is closed")
        idents = [normalize_item_id(raw) for raw in items]
        idents.extend(normalize_table_id(t) for t in tables)
        idents.extend(normalize_figure_id(f) for f in figures)
        if not idents:
            raise ValueError("job must name at least one figure or table")
        with self._lock:
            if job_id is None:
                job_id = f"job-{next(self._ids):04d}"
            elif job_id in self._jobs:
                raise ValueError(f"duplicate job id {job_id!r}")
            job = Job(job_id, tuple(idents), max_cpus)
            if self.telemetry is not None:
                # The root span id is minted now, written at job end:
                # everything recorded in between names it as parent.
                job.trace_id = mint_trace_id()
                job.root_span_id = mint_span_id()
            self._jobs[job_id] = job
            self._order.append(job_id)
        job.emit("queued", items=list(idents))
        if self.metrics is not None:
            self.metrics.job_submitted()
        if self.event_log is not None:
            self.event_log.append("submitted", job=job_id,
                                  items=list(idents), max_cpus=max_cpus,
                                  trace_id=job.trace_id)
        self._pending.put(job_id)
        self._observe_queue()
        return job_id

    # -- inspection ---------------------------------------------------------

    def _get(self, job_id: str) -> Job:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise KeyError(f"unknown job id {job_id!r}") from None

    def status(self, job_id: str) -> dict:
        """Status document for one job."""
        return self._get(job_id).snapshot()

    def poll(self) -> list[dict]:
        """Status documents for every job, in submission order."""
        with self._lock:
            jobs = [self._jobs[i] for i in self._order]
        return [j.snapshot() for j in jobs]

    def result(self, job_id: str, timeout: float | None = None) -> dict:
        """Block until the job is terminal; returns its final status.

        Raises :class:`TimeoutError` if ``timeout`` elapses first.
        """
        job = self._get(job_id)
        deadline = None if timeout is None else time.monotonic() + timeout
        with job.cond:
            # Wait for the terminal *event*, not just the terminal
            # state: the state flips first, but the ledger row and (when
            # telemetry is on) the assembled job trace are only attached
            # when the terminal event is emitted — a result() caller
            # must never observe a finished job without them.
            while not (job.events
                       and job.events[-1]["type"] in TERMINAL_STATES):
                remaining = (None if deadline is None
                             else deadline - time.monotonic())
                if remaining is not None and remaining <= 0:
                    raise TimeoutError(
                        f"job {job_id} still {job.state} after {timeout}s")
                job.cond.wait(remaining)
        return job.snapshot()

    def stream(self, job_id: str, timeout: float | None = None):
        """Yield the job's events as they happen, ending at a terminal one.

        ``timeout`` bounds the wait for *each* event, not the whole
        stream; on expiry a :class:`TimeoutError` is raised.
        """
        job = self._get(job_id)
        idx = 0
        while True:
            with job.cond:
                while idx >= len(job.events):
                    if not job.cond.wait(timeout):
                        raise TimeoutError(
                            f"no event from job {job_id} in {timeout}s")
                batch = job.events[idx:]
                idx = len(job.events)
            for event in batch:
                yield event
                if event["type"] in TERMINAL_STATES:
                    return

    def _by_state(self) -> dict[str, int]:
        """Per-state job counts, zero-filled over every lifecycle state."""
        counts = {state: 0 for state in JOB_STATES}
        with self._lock:
            for job in self._jobs.values():
                counts[job.state] = counts.get(job.state, 0) + 1
        return counts

    def queue_depth(self) -> int:
        """Jobs accepted but not yet picked up by a worker thread."""
        return self._pending.qsize()

    def _observe_queue(self) -> None:
        if self.metrics is not None:
            self.metrics.observe_queue(self.queue_depth(), self._by_state())

    def stats(self) -> dict:
        """Aggregate queue statistics (jobs by state, dedup totals).

        Always available — per-state counts and queue depth do not
        depend on ``--telemetry``, so the spool ``status`` summary line
        can print them for any server.
        """
        snaps = self.poll()
        by_state = self._by_state()
        totals = {"points": 0, "cache_hits": 0, "cache_misses": 0,
                  "coalesced": 0, "requeued": 0, "events": 0,
                  "computed": 0}
        for s in snaps:
            st = s["stats"]
            for k in ("points", "cache_hits", "cache_misses", "coalesced",
                      "requeued", "events"):
                totals[k] += st.get(k, 0)
        # Fresh computations = misses that were not satisfied by a
        # sibling's in-flight computation.
        totals["computed"] = totals["cache_misses"] - totals["coalesced"]
        return {"jobs": len(snaps), "by_state": by_state,
                "queue_depth": self.queue_depth(),
                "workers": self.workers, **totals,
                "coalescer": self.coalescer.stats()}

    def metrics_snapshot(self) -> dict | None:
        """The service metrics snapshot, or None with telemetry off."""
        if self.metrics is None:
            return None
        self.metrics.set_coalescer(self.coalescer.stats())
        self.metrics.observe_queue(self.queue_depth(), self._by_state())
        return self.metrics.snapshot()

    def job_trace(self, job_id: str) -> list[dict] | None:
        """A terminal job's telemetry spans (wire dicts), if traced."""
        job = self._get(job_id)
        with job.cond:
            return (list(job.trace_spans)
                    if job.trace_spans is not None else None)

    # -- execution ----------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            job_id = self._pending.get()
            if job_id is None:
                return
            self._run_job(self._get(job_id))

    def _run_job(self, job: Job) -> None:
        executor = SweepExecutor(jobs=self.config.jobs,
                                 cache=self.cache,
                                 backend=self.config.exec_backend,
                                 coalescer=self.coalescer)
        # Per-job energy accounting: the recorder is scoped to this
        # worker *thread* (see repro.obs.context), so concurrent jobs
        # never mix joules.
        enrec = (EnergyRecorder(enabled=True) if self.config.energy
                 else None)
        with job.cond:
            job.state = "running"
            job.started_at = time.time()
        job.emit("running")
        tel = self.telemetry
        root_ctx = run_span = None
        if tel is not None:
            # The trace root (service.job) is written retroactively at
            # job end with the span id minted at submit; meanwhile the
            # queue wait is recorded from its observed boundaries and
            # the live run phase opens here, on this worker thread.
            root_ctx = {"trace_id": job.trace_id,
                        "span_id": job.root_span_id}
            tel.record("queue.wait", "service",
                       t_start=job.submitted_at, t_end=job.started_at,
                       parent=root_ctx, job=job.id)
            run_span = tel.begin("job.run", "service", parent=root_ctx,
                                 job=job.id)
        if self.metrics is not None:
            self.metrics.job_started(job.started_at - job.submitted_at)
        if self.event_log is not None:
            self.event_log.append(
                "started", job=job.id, trace_id=job.trace_id,
                queue_wait_s=round(job.started_at - job.submitted_at, 6))
        self._observe_queue()
        t0 = perf_counter()
        outcome = "failed"
        scoped = [r for r in (tel, enrec) if r is not None]
        try:
            with using(*scoped), using_executor(executor):
                # One sweep per job, as in the harness: unknown ids fail
                # here, before any point runs, and each distinct point
                # runs once however many items declare it.
                scenarios = [resolve_item(ident) for ident in job.items]
                results = run_items(scenarios, job.max_cpus)
                batch = {e["point"]: e for e in executor.point_log}
                # A repeated id is one item's files: saved once, listed
                # once in the job's artifacts, named by each item doc.
                saved: dict[str, list[str]] = {}
                for s, result in zip(scenarios, results):
                    fresh = s.scenario_id not in saved
                    if fresh:
                        saved[s.scenario_id] = self._save_artifacts(
                            job, s.scenario_id, result)
                    paths = saved[s.scenario_id]
                    item_doc = {
                        **item_charge(s, job.max_cpus, batch),
                        "coalesced": sum(
                            batch[pt.key()]["provenance"] == "coalesced"
                            for pt in s.plan(job.max_cpus)),
                        "artifacts": paths,
                    }
                    with job.cond:
                        job.item_results.append(item_doc)
                        if fresh:
                            job.artifacts.extend(paths)
                    job.emit("item", **item_doc)
            outcome = "done"
        except Exception as exc:
            with job.cond:
                job.error = f"{type(exc).__name__}: {exc}"
        finally:
            with job.cond:
                job.finished_at = time.time()
                job.wall_s = round(perf_counter() - t0, 6)
                job.stats = executor.stats()
                if enrec is not None:
                    job.energy = enrec.totals()
            if tel is not None:
                tel.end(run_span, status="ok" if outcome == "done"
                        else "error")
            # The public state flip and terminal event (which wake
            # result()/stream() waiters and tell pollers the snapshot is
            # final) are deliberately LAST: by the time anyone observes
            # a terminal state, the ledger row is appended and the trace
            # is assembled onto the job.
            try:
                backend_health = executor.backend_health()
                executor.close()
                with (tel.span("job.ledger_append", "service",
                               parent=root_ctx, job=job.id)
                      if tel is not None else nullcontext()):
                    self._append_ledger(job, outcome, scoped)
                if tel is not None:
                    self._finish_telemetry(job, backend_health, outcome)
            finally:
                with job.cond:
                    job.state = outcome
                if outcome == "failed":
                    job.emit("failed", error=job.error)
                else:
                    job.emit("done", stats=job.stats)

    def _finish_telemetry(self, job: Job, backend_health: dict | None,
                          outcome: str) -> None:
        """Close out a traced job: totals, event log, trace assembly."""
        tel = self.telemetry
        if self.metrics is not None:
            self.metrics.job_finished(
                outcome, (job.finished_at or job.submitted_at)
                - job.submitted_at)
            self.metrics.fold_job_stats(job.stats)
            self.metrics.fold_backend_health(backend_health)
            self.metrics.set_coalescer(self.coalescer.stats())
        self._observe_queue()
        # Retro-write the trace root now that both endpoints are known,
        # then move the completed trace off the shared recorder.
        tel.record("service.job", "service",
                   t_start=job.submitted_at,
                   t_end=job.finished_at or time.time(),
                   parent={"trace_id": job.trace_id},
                   span_id=job.root_span_id,
                   status="ok" if outcome == "done" else "error",
                   job=job.id, items=list(job.items), state=outcome)
        spans = tel.take_trace(job.trace_id)
        summary = trace_summary(spans)
        doc = summary["traces"].get(job.trace_id, {})
        doc["trace_id"] = job.trace_id
        with job.cond:
            job.trace_spans = spans
            job.trace = doc
        if self.event_log is not None:
            self.event_log.append(
                "finished", job=job.id, state=outcome,
                trace_id=job.trace_id, wall_s=job.wall_s,
                stats=dict(job.stats), error=job.error,
                spans=len(spans),
                fleet=backend_health or {})

    def _save_artifacts(self, job: Job, ident: str, result) -> list[str]:
        if self.artifacts_dir is None:
            return []
        from ..harness.report import save_result

        out = self.artifacts_dir / job.id
        with (self.telemetry.span("job.artifact_save", "service", item=ident)
              if self.telemetry is not None else nullcontext()):
            save_result(result, out)
        return sorted(str(p) for p in out.glob(f"{ident}.*"))

    def _append_ledger(self, job: Job, state: str, scoped: list) -> None:
        """One run-ledger row per finished job, naming the recorders scoped."""
        if self.ledger_path is None:
            return
        RunLedger(self.ledger_path).append(ledger_row(
            job.items, job.max_cpus,
            exec_backend=self.config.exec_backend, jobs=self.config.jobs,
            recorders=[r.name for r in scoped], wall_s=job.wall_s,
            totals=job.stats, energy=job.energy,
            service=job.id, state=state, coalesced=job.stats["coalesced"],
            # Traced jobs link their row to the job trace; the span
            # summary lives in the status document (the row is appended
            # inside the trace, before its root is written).
            trace_id=job.trace_id))

    # -- lifecycle ----------------------------------------------------------

    def join(self, timeout: float | None = None) -> bool:
        """Wait until every submitted job is terminal; True on success."""
        deadline = None if timeout is None else time.monotonic() + timeout
        for snap in self.poll():
            remaining = (None if deadline is None
                         else max(0.0, deadline - time.monotonic()))
            try:
                self.result(snap["id"], timeout=remaining)
            except TimeoutError:
                return False
        return True

    def close(self, wait: bool = True) -> None:
        """Stop accepting jobs and shut the worker threads down."""
        if self._closed:
            return
        self._closed = True
        if wait:
            self.join()
        for _ in self._threads:
            self._pending.put(None)
        for t in self._threads:
            t.join(timeout=30)

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc) -> None:
        self.close(wait=not any(exc))
