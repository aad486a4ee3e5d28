"""Exporters: Chrome trace JSON for traced cluster runs and for spans.

Chrome ``traceEvents`` files open in ``chrome://tracing`` or
https://ui.perfetto.dev: one row per rank, compute phases as duration
(``X``) events, messages as flow arrows between ranks.  Recorded spans
(the harness stage tree, executor and fleet spans) export the same way,
one row per process, nested by parentage.

Usage::

    cluster = Cluster(machine, 16, trace=True)
    cluster.run(program)
    write_chrome_trace(cluster, "run.json")
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from .telemetry import Span, assemble_traces

if TYPE_CHECKING:  # avoid importing the model layers at module level
    from ..mpi.cluster import Cluster

#: Trace timestamps are microseconds in the Chrome format.
_US = 1e6


def chrome_trace_events(cluster: "Cluster") -> list[dict]:
    """Build the trace-event list from a traced cluster run."""
    tracer = cluster.tracer
    events: list[dict] = []
    for rank in range(cluster.nprocs):
        events.append({
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": rank,
            "args": {"name": f"rank {rank} (node "
                             f"{cluster.placement[rank]})"},
        })
    for c in tracer.computes:
        events.append({
            "name": c.kernel,
            "cat": "compute",
            "ph": "X",
            "pid": 0,
            "tid": c.rank,
            "ts": c.t_start * _US,
            "dur": max((c.t_end - c.t_start) * _US, 0.001),
            "args": {"flops": c.flops, "bytes": c.bytes_moved},
        })
    for i, m in enumerate(tracer.messages):
        common = {
            "name": f"msg {m.nbytes}B",
            "cat": "message",
            "id": i,
            "pid": 0,
        }
        events.append({**common, "ph": "s", "tid": m.src,
                       "ts": m.t_inject * _US})
        events.append({**common, "ph": "f", "bp": "e", "tid": m.dst,
                       "ts": m.t_deliver * _US})
        # a visible sliver on the receiving row for each delivery
        events.append({
            "name": f"recv {m.nbytes}B from {m.src}",
            "cat": "message",
            "ph": "X",
            "pid": 0,
            "tid": m.dst,
            "ts": m.t_deliver * _US,
            "dur": 0.1,
            "args": {"tag": m.tag, "intra_node": m.intra_node},
        })
    return events


def write_chrome_trace(cluster: "Cluster", path: str | Path) -> Path:
    """Serialise a traced cluster run to ``path`` (Chrome trace JSON)."""
    path = Path(path)
    payload = {"traceEvents": chrome_trace_events(cluster),
               "displayTimeUnit": "ms"}
    path.write_text(json.dumps(payload))
    return path


# -- span export --------------------------------------------------------------

def write_spans_chrome_trace(span_dicts: Iterable[dict],
                             path: str | Path) -> Path:
    """Serialise span dicts (wire form) to a Chrome trace JSON file.

    The flat spans are reassembled into per-trace trees first, so
    parent/child causality shows up as nesting in Perfetto, and every
    timestamp is rebased so the trace starts at t=0.  Each span becomes
    one complete (``X``) event on its process's row (``tid`` = pid),
    with its attrs, ids and status as ``args``.
    """
    roots = [r for rs in assemble_traces(list(span_dicts)).values()
             for r in rs]
    t0 = min((r.t_start for r in roots), default=0.0)
    events: list[dict] = []

    def emit(span: Span) -> None:
        end = span.t_start if span.t_end is None else span.t_end
        events.append({
            "name": span.name,
            "cat": span.cat,
            "ph": "X",
            "pid": 0,
            "tid": span.pid,
            "ts": (span.t_start - t0) * _US,
            "dur": max((end - span.t_start) * _US, 0.001),
            "args": {**span.attrs, "trace_id": span.trace_id,
                     "span_id": span.span_id, "parent_id": span.parent_id,
                     "status": span.status},
        })
        for child in span.children:
            emit(child)

    for r in sorted(roots, key=lambda s: (s.t_start, s.span_id)):
        emit(r)
    path = Path(path)
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms"}))
    return path
