"""Span tracing for the harness, the executor, the fleet and the service.

One span type, :class:`Span`, and one recorder, :class:`TelemetryRecorder`,
time every phase: the harness stage tree (``harness.run`` → ``sweep``,
then item → ``render`` / ``save``), the sweep executor's batches and
dispatches, fleet-worker point computes, and sweep-service jobs.  A
trace must survive three boundaries:

* **concurrency** — several jobs trace simultaneously through one
  shared :class:`TelemetryRecorder`; the open-span stack is
  thread-local, the finished-span list is shared under a lock;
* **causality without a stack** — a queue-wait or a worker-side compute
  happens on a different thread (or in a different process) than its
  logical parent, so spans carry explicit ``trace_id`` / ``span_id`` /
  ``parent_id`` fields and a parent can be named directly;
* **process hops** — :meth:`TelemetryRecorder.inject` produces the
  plain-JSON *trace context* dict (``{"trace_id", "parent_span_id"}``)
  that rides inside the fleet's job messages; the worker opens its
  spans under that remote parent and ships them back in the reply,
  where :meth:`TelemetryRecorder.adopt` folds them into the parent's
  record.  A future HTTP/remote worker inherits exactly this contract —
  the context dict and the span dicts are the whole wire format.

Timestamps are ``time.time()`` (shared epoch) so spans from different
processes land on one comparable timeline; a trace reassembles into a
tree with :func:`assemble_traces` and exports to Chrome ``traceEvents``
with :func:`repro.obs.exporters.write_spans_chrome_trace`.

The module follows the ``repro.obs`` no-op discipline: a shared
*disabled* recorder is ambient by default, every recording entry point
checks ``enabled`` first, and the recorder lives in the ambient context
of :mod:`repro.obs.context` under ``"telemetry"``, whose thread-local
slot lets concurrent service jobs scope their spans without
interfering.
Telemetry never touches simulation state or results — traced and
untraced runs are byte-identical by construction (and by test).
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from typing import Iterator


#: Bump when the span-dict layout changes incompatibly.
TRACE_SCHEMA_VERSION = 1

_ids_lock = threading.Lock()
_ids_counter = 0


def _mint(nbytes: int) -> str:
    """Random hex id, suffixed with a process-local counter.

    ``os.urandom`` gives cross-process uniqueness, the counter makes
    collisions impossible within one process even under a starved
    entropy pool.
    """
    global _ids_counter
    with _ids_lock:
        _ids_counter += 1
        n = _ids_counter
    return f"{os.urandom(nbytes).hex()}{n:04x}"


def mint_trace_id() -> str:
    """A fresh 128-bit-ish trace id (one per submitted job / run)."""
    return _mint(12)


def mint_span_id() -> str:
    """A fresh 64-bit-ish span id."""
    return _mint(6)


class Span:
    """One timed operation within a trace.

    Mutable while open (the recorder stamps ``t_end`` on exit), then
    treated as frozen.  ``children`` is populated only by
    :func:`assemble_traces` — on the wire and in the event log, spans
    are flat and linked by ``parent_id``.
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "cat",
                 "t_start", "t_end", "pid", "attrs", "status", "children")

    def __init__(self, trace_id: str, span_id: str, parent_id: str | None,
                 name: str, cat: str = "service", *,
                 t_start: float, t_end: float | None = None,
                 pid: int | None = None, attrs: dict | None = None,
                 status: str = "ok") -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.cat = cat
        self.t_start = t_start
        self.t_end = t_end
        self.pid = os.getpid() if pid is None else pid
        self.attrs = attrs or {}
        self.status = status
        self.children: list["Span"] = []

    def to_dict(self) -> dict:
        """Flat JSON-able form — the wire/event-log representation."""
        d = {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "cat": self.cat,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "pid": self.pid,
            "status": self.status,
        }
        if self.attrs:
            d["attrs"] = self.attrs
        if self.children:
            d["children"] = [c.to_dict() for c in self.children]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Span":
        return cls(d["trace_id"], d["span_id"], d.get("parent_id"),
                   d.get("name", "?"), d.get("cat", "service"),
                   t_start=float(d.get("t_start", 0.0)),
                   t_end=d.get("t_end"),
                   pid=d.get("pid", 0),
                   attrs=d.get("attrs") or {},
                   status=d.get("status", "ok"))


class TelemetryRecorder:
    """Shared, thread-safe recorder of :class:`Span` trees.

    One recorder serves every concurrent job of a service (or one whole
    harness run): each thread keeps its own open-span stack, finished
    spans collect in one shared list.  ``context`` seeds a *remote*
    parent — a worker process constructs its recorder from the trace
    context found in the job message, so its root-level spans are
    children of the dispatching span in the parent process.
    """

    #: Ambient-context name (see :mod:`repro.obs.context`).
    name = "telemetry"

    def __init__(self, enabled: bool = True,
                 context: dict | None = None) -> None:
        self.enabled = enabled
        self._ctx_trace = (context or {}).get("trace_id")
        self._ctx_parent = (context or {}).get("parent_span_id")
        self._lock = threading.Lock()
        self._tls = threading.local()
        self.spans: list[Span] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _parent_of(self, parent: dict | None) -> tuple[str, str | None]:
        """``(trace_id, parent_id)`` for a new span, most specific first.

        An explicit ``parent`` trace context, else the innermost open
        span on *this thread*, else the recorder's remote context, else
        a fresh root with a fresh trace id.
        """
        if parent is not None:
            return (parent.get("trace_id") or mint_trace_id(),
                    parent.get("parent_span_id") or parent.get("span_id"))
        stack = self._stack()
        if stack:
            return stack[-1].trace_id, stack[-1].span_id
        if self._ctx_trace is not None:
            return self._ctx_trace, self._ctx_parent
        return mint_trace_id(), None

    def begin(self, name: str, cat: str = "service", *,
              parent: dict | None = None, **attrs) -> Span | None:
        """Open a span; returns None (recording nothing) when disabled."""
        if not self.enabled:
            return None
        tid, pid = self._parent_of(parent)
        span = Span(tid, mint_span_id(), pid, name, cat,
                    t_start=time.time(), attrs=attrs)
        self._stack().append(span)
        return span

    def end(self, span: Span | None, status: str = "ok") -> None:
        """Close ``span`` (a no-op for the disabled-recorder None).

        The span is always kept.  Closing a span that is not the
        innermost open one unwinds this thread's stack down to it, so
        any spans opened inside it and never closed stop being parents.
        """
        if span is None or not self.enabled:
            return
        stack = self._stack()
        for k in range(len(stack) - 1, -1, -1):
            if stack[k] is span:
                del stack[k:]
                break
        span.t_end = time.time()
        span.status = status
        with self._lock:
            self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str, cat: str = "service", *,
             parent: dict | None = None, **attrs) -> Iterator[Span | None]:
        """Context-manager span; yields None when the recorder is off."""
        s = self.begin(name, cat, parent=parent, **attrs)
        try:
            yield s
        except BaseException:
            self.end(s, status="error")
            raise
        else:
            self.end(s)

    def record(self, name: str, cat: str = "service", *,
               t_start: float, t_end: float,
               parent: dict | None = None,
               span_id: str | None = None,
               status: str = "ok", **attrs) -> Span | None:
        """Record a span retroactively with explicit epoch timestamps.

        For phases whose boundaries were observed rather than lived —
        e.g. queue wait, known only once a worker picks the job up.
        ``span_id`` lets the caller pre-mint the id (the service mints a
        job's root span id at submit time so children recorded *during*
        the job can name it as parent before it is written at the end).
        """
        if not self.enabled:
            return None
        tid, pid = self._parent_of(parent)
        span = Span(tid, span_id or mint_span_id(), pid, name, cat,
                    t_start=t_start, t_end=t_end, attrs=attrs,
                    status=status)
        with self._lock:
            self.spans.append(span)
        return span

    # -- propagation ---------------------------------------------------------

    def inject(self, span: Span | None = None) -> dict | None:
        """Trace context for a child in another thread/process.

        Serialises the causal position of ``span`` (default: this
        thread's innermost open span) as the plain-JSON dict the fleet
        protocol carries.  Returns None when there is nothing to
        propagate (disabled, or no open span).
        """
        if not self.enabled:
            return None
        if span is None:
            stack = self._stack()
            if not stack:
                if self._ctx_trace is not None:
                    return {"trace_id": self._ctx_trace,
                            "parent_span_id": self._ctx_parent}
                return None
            span = stack[-1]
        return {"trace_id": span.trace_id, "parent_span_id": span.span_id}

    def adopt(self, span_dicts: list[dict] | None) -> int:
        """Fold spans recorded elsewhere (worker replies) into this record.

        The dicts already carry their trace/parent ids — adoption is
        collection, not re-parenting.  Returns the number adopted.
        """
        if not self.enabled or not span_dicts:
            return 0
        adopted = [Span.from_dict(d) for d in span_dicts]
        with self._lock:
            self.spans.extend(adopted)
        return len(adopted)

    # -- views ---------------------------------------------------------------

    def drain(self) -> list[dict]:
        """Remove and return every finished span as dicts (wire form)."""
        with self._lock:
            out, self.spans = self.spans, []
        return [s.to_dict() for s in out]

    def snapshot(self) -> list[dict]:
        """Finished spans as dicts, without clearing."""
        with self._lock:
            return [s.to_dict() for s in self.spans]

    def take_trace(self, trace_id: str) -> list[dict]:
        """Remove and return one trace's finished spans as dicts.

        The service calls this when a job goes terminal: the trace is
        complete at that point, and moving it off the shared recorder
        keeps a long-lived queue's span list from growing without bound.
        """
        with self._lock:
            mine = [s for s in self.spans if s.trace_id == trace_id]
            self.spans = [s for s in self.spans if s.trace_id != trace_id]
        return [s.to_dict() for s in mine]


# -- reassembly ---------------------------------------------------------------


def assemble_traces(span_dicts: list[dict]) -> dict[str, list[Span]]:
    """Rebuild span trees: ``{trace_id: [root spans]}``.

    Children attach to their parent (sorted by start time); a span
    whose parent never arrived (a lost worker reply) is kept as an
    extra root rather than dropped — incomplete traces should be
    *visibly* incomplete.
    """
    spans = [Span.from_dict(d) for d in span_dicts]
    by_id = {s.span_id: s for s in spans}
    out: dict[str, list[Span]] = {}
    for s in spans:
        parent = by_id.get(s.parent_id) if s.parent_id else None
        if parent is not None and parent.trace_id == s.trace_id:
            parent.children.append(s)
        else:
            out.setdefault(s.trace_id, []).append(s)
    for roots in out.values():
        roots.sort(key=lambda s: (s.t_start, s.span_id))
        stack = list(roots)
        while stack:
            node = stack.pop()
            node.children.sort(key=lambda s: (s.t_start, s.span_id))
            stack.extend(node.children)
    return out


def trace_summary(span_dicts: list[dict]) -> dict:
    """Per-trace roll-up for bench/ledger rows and status documents.

    ``{"traces": {trace_id: {"roots", "spans", "wall_s", "root_name",
    "errors", "by_cat"}}, "spans": total}`` — small enough to embed
    anywhere, precise enough for the "one root per job" CI assertion.
    """
    trees = assemble_traces(span_dicts)
    doc: dict = {"spans": len(span_dicts), "traces": {}}
    for trace_id, roots in sorted(trees.items()):
        flat: list[Span] = []
        stack = list(roots)
        while stack:
            s = stack.pop()
            flat.append(s)
            stack.extend(s.children)
        t0 = min(s.t_start for s in flat)
        t1 = max(s.t_end if s.t_end is not None else s.t_start for s in flat)
        by_cat: dict[str, int] = {}
        for s in flat:
            by_cat[s.cat] = by_cat.get(s.cat, 0) + 1
        doc["traces"][trace_id] = {
            "roots": len(roots),
            "root_name": roots[0].name,
            "spans": len(flat),
            "wall_s": round(t1 - t0, 6),
            "errors": sum(1 for s in flat if s.status != "ok"),
            "by_cat": dict(sorted(by_cat.items())),
        }
    return doc
