"""Filesystem spool: the durable front end of the sweep service.

``python -m repro.service serve`` and ``submit`` talk through a spool
directory (default ``.repro_service/``, overridable via ``--root`` or
``REPRO_SERVICE_DIR``) instead of a network socket, so the service works
anywhere a shared filesystem does — a laptop, a login node, a CI runner
— with zero extra dependencies.  The layout::

    .repro_service/
      jobs/<request-id>.json      one submitted request (atomic write)
      status/<request-id>.json    server-maintained status document
      artifacts/<job-id>/         CSV/TXT/JSON exports per job
      service_ledger.jsonl        one run-ledger row per finished job
      service_events.jsonl        service event log (telemetry only)
      metrics.prom                Prometheus exposition (telemetry only)
      traces/<request-id>.json    Chrome trace per job (telemetry only)

A request file is the whole client protocol: ``submit`` drops one,
``serve`` picks it up (any request without a status file is new), runs
it through a :class:`~repro.service.queue.JobQueue`, and keeps the
status file fresh until the job is terminal.  ``submit --wait`` just
polls the status file.  The same request/status JSON documents are the
seam where an HTTP front end would plug in — the queue underneath would
not change.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path

from ..config import ReproConfig
from .queue import TERMINAL_STATES, JobQueue

#: Environment variable naming the spool directory.
SERVICE_DIR_ENV = "REPRO_SERVICE_DIR"

#: Default spool directory (relative to the current working directory).
DEFAULT_SERVICE_DIR = ".repro_service"

#: Bump when the request/status document layout changes incompatibly.
SPOOL_SCHEMA_VERSION = 1


def service_root(root: str | os.PathLike | None = None) -> Path:
    """Resolve the spool root: explicit > ``REPRO_SERVICE_DIR`` > default."""
    if root is not None:
        return Path(root)
    env = os.environ.get(SERVICE_DIR_ENV, "").strip()
    return Path(env) if env else Path(DEFAULT_SERVICE_DIR)


def _write_json_atomic(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


class Spool:
    """The on-disk request/status store shared by clients and the server."""

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        self.root = service_root(root)
        self.jobs_dir = self.root / "jobs"
        self.status_dir = self.root / "status"
        self.artifacts_dir = self.root / "artifacts"
        self.ledger_path = self.root / "service_ledger.jsonl"
        self.events_path = self.root / "service_events.jsonl"
        self.metrics_path = self.root / "metrics.prom"
        self.traces_dir = self.root / "traces"

    def ensure(self) -> "Spool":
        for d in (self.jobs_dir, self.status_dir, self.artifacts_dir):
            d.mkdir(parents=True, exist_ok=True)
        return self

    # -- client side --------------------------------------------------------

    def submit(self, items: list[str], *, max_cpus: int | None = None,
               note: str | None = None) -> str:
        """Drop one request file; returns the request id."""
        self.ensure()
        request_id = (time.strftime("%Y%m%d-%H%M%S")
                      + "-" + os.urandom(3).hex())
        _write_json_atomic(self.jobs_dir / f"{request_id}.json", {
            "schema_version": SPOOL_SCHEMA_VERSION,
            "id": request_id,
            "items": list(items),
            "max_cpus": max_cpus,
            "note": note,
            "submitted_at": round(time.time(), 3),
        })
        return request_id

    def read_status(self, request_id: str) -> dict | None:
        """The server-maintained status document, or None before pickup."""
        path = self.status_dir / f"{request_id}.json"
        try:
            return json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            return None

    def wait(self, request_id: str, *, timeout: float | None = None,
             poll_s: float = 0.2) -> dict:
        """Poll until the request reaches a terminal state."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            doc = self.read_status(request_id)
            if doc is not None and doc.get("state") in TERMINAL_STATES:
                return doc
            if deadline is not None and time.monotonic() >= deadline:
                raise TimeoutError(
                    f"request {request_id} not finished after {timeout}s "
                    f"(last: {doc.get('state') if doc else 'unclaimed'})")
            time.sleep(poll_s)

    # -- server side --------------------------------------------------------

    def requests(self) -> list[dict]:
        """Every parseable request document, oldest first."""
        if not self.jobs_dir.is_dir():
            return []
        docs = []
        for path in sorted(self.jobs_dir.glob("*.json")):
            try:
                docs.append(json.loads(path.read_text()))
            except (OSError, json.JSONDecodeError):
                continue
        return docs

    def statuses(self) -> list[dict]:
        """Every status document, oldest first."""
        if not self.status_dir.is_dir():
            return []
        docs = []
        for path in sorted(self.status_dir.glob("*.json")):
            try:
                docs.append(json.loads(path.read_text()))
            except (OSError, json.JSONDecodeError):
                continue
        return docs

    def write_status(self, request_id: str, doc: dict) -> None:
        _write_json_atomic(self.status_dir / f"{request_id}.json", doc)

    # -- maintenance --------------------------------------------------------

    def gc(self, *, older_than_s: float = 0.0) -> dict:
        """Remove terminal requests (+status/artifacts) older than the age.

        Only *terminal* requests are touched — queued or running work is
        never collected.  Telemetry droppings follow the same policy:
        each collected request takes its ``traces/<id>.json`` with it,
        and once no statuses remain at all, a sufficiently old
        ``service_events.jsonl`` / ``metrics.prom`` is aged out too
        (they aggregate across requests, so they outlive any single
        one).  Returns ``{removed: [...], kept: int, files: [...]}``.
        """
        now = time.time()
        removed, kept, files = [], 0, []
        for doc in self.statuses():
            rid = doc.get("id")
            state = doc.get("state")
            finished = doc.get("finished_at") or 0.0
            if (rid is None or state not in TERMINAL_STATES
                    or now - finished < older_than_s):
                kept += 1
                continue
            for path in (self.jobs_dir / f"{rid}.json",
                         self.status_dir / f"{rid}.json",
                         self.traces_dir / f"{rid}.json"):
                try:
                    path.unlink()
                except OSError:
                    pass
            job_id = doc.get("job")
            if job_id:
                import shutil
                shutil.rmtree(self.artifacts_dir / job_id,
                              ignore_errors=True)
            removed.append(rid)
        if kept == 0:
            for path in (self.events_path, self.metrics_path):
                try:
                    if now - path.stat().st_mtime >= older_than_s:
                        path.unlink()
                        files.append(path.name)
                except OSError:
                    pass
            try:
                self.traces_dir.rmdir()  # only if empty
            except OSError:
                pass
        return {"removed": removed, "kept": kept, "files": files}


class SpoolServer:
    """Drains a :class:`Spool` through a :class:`JobQueue`."""

    def __init__(self, spool: Spool, config: ReproConfig | None = None, *,
                 workers: int = 2, poll_s: float = 0.2) -> None:
        self.spool = spool.ensure()
        self.poll_s = poll_s
        self.queue = JobQueue(config, workers=workers,
                              artifacts_dir=spool.artifacts_dir,
                              ledger_path=spool.ledger_path,
                              events_path=spool.events_path)
        #: request id -> queue job id, for requests this server accepted.
        self._accepted: dict[str, str] = {}
        self._terminal: set[str] = set()

    def _status_doc(self, request: dict, job_doc: dict | None,
                    error: str | None = None) -> dict:
        doc = {
            "schema_version": SPOOL_SCHEMA_VERSION,
            "id": request["id"],
            "items": request.get("items", []),
            "max_cpus": request.get("max_cpus"),
            "submitted_at": request.get("submitted_at"),
            "config": self.queue.config.to_dict(),
        }
        if error is not None:
            doc.update(state="failed", error=error, job=None,
                       finished_at=round(time.time(), 3))
        else:
            doc.update(state=job_doc["state"], error=job_doc["error"],
                       job=job_doc["id"], wall_s=job_doc["wall_s"],
                       started_at=job_doc["started_at"],
                       finished_at=job_doc["finished_at"],
                       stats=job_doc["stats"],
                       item_results=job_doc["item_results"],
                       artifacts=job_doc["artifacts"])
            if "energy" in job_doc:
                # Only energy-accounted jobs carry the field — no
                # null-padding of energy-off statuses.
                doc["energy"] = job_doc["energy"]
            for key in ("trace_id", "trace"):
                # Likewise only traced jobs carry telemetry fields.
                if key in job_doc:
                    doc[key] = job_doc[key]
        return doc

    def _flush_telemetry(self, rid: str, job_id: str) -> None:
        """Write the per-request Chrome trace once the job is terminal."""
        spans = self.queue.job_trace(job_id)
        if not spans:
            return
        from ..obs.exporters import write_spans_chrome_trace
        self.spool.traces_dir.mkdir(parents=True, exist_ok=True)
        write_spans_chrome_trace(spans, self.spool.traces_dir
                                 / f"{rid}.json")

    def _write_metrics(self) -> None:
        """Refresh ``metrics.prom`` (the scrape file) from the registry."""
        snap = self.queue.metrics_snapshot()
        if snap is None:
            return
        from .health import render_prometheus
        tmp = self.spool.metrics_path.with_suffix(".prom.tmp")
        tmp.write_text(render_prometheus(snap))
        os.replace(tmp, self.spool.metrics_path)

    def step(self) -> int:
        """One server tick: ingest new requests, refresh live statuses.

        Returns the number of accepted-but-not-yet-terminal requests.
        """
        for request in self.spool.requests():
            rid = request.get("id")
            if rid is None or rid in self._accepted or rid in self._terminal:
                continue
            existing = self.spool.read_status(rid)
            if existing is not None and existing.get("state") in \
                    TERMINAL_STATES:
                # Finished in a previous server's lifetime.
                self._terminal.add(rid)
                continue
            # No status, or a non-terminal one left by a dead server:
            # (re-)accept the request.
            try:
                job_id = self.queue.submit(request.get("items", ()),
                                           max_cpus=request.get("max_cpus"))
            except (ValueError, KeyError) as exc:
                self.spool.write_status(rid, self._status_doc(
                    request, None, error=f"rejected: {exc}"))
                self._terminal.add(rid)
                continue
            self._accepted[rid] = job_id
            self.spool.write_status(
                rid, self._status_doc(request, self.queue.status(job_id)))

        live = 0
        for rid, job_id in list(self._accepted.items()):
            request = {"id": rid}
            job_doc = self.queue.status(job_id)
            # Keep the request fields from the original doc if possible.
            existing = self.spool.read_status(rid) or {}
            request = {"id": rid,
                       "items": existing.get("items", job_doc["items"]),
                       "max_cpus": existing.get("max_cpus",
                                                job_doc["max_cpus"]),
                       "submitted_at": existing.get("submitted_at")}
            self.spool.write_status(rid, self._status_doc(request, job_doc))
            if job_doc["state"] in TERMINAL_STATES:
                self._flush_telemetry(rid, job_id)
                self._terminal.add(rid)
                del self._accepted[rid]
            else:
                live += 1
        self._write_metrics()
        return live

    def run(self, *, once: bool = False,
            max_wall_s: float | None = None) -> int:
        """Serve until interrupted (or, with ``once``, until drained).

        Returns the number of requests brought to a terminal state.
        """
        t0 = time.monotonic()
        try:
            while True:
                live = self.step()
                pending = [r for r in self.spool.requests()
                           if r.get("id") not in self._terminal
                           and r.get("id") not in self._accepted]
                if once and not live and not pending:
                    break
                if (max_wall_s is not None
                        and time.monotonic() - t0 > max_wall_s):
                    break
                time.sleep(self.poll_s)
        finally:
            self.queue.close(wait=True)
            self.step()  # final status refresh after the queue drained
        return len(self._terminal)
