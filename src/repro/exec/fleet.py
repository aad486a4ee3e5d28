"""Fleet worker: the subprocess side of the ``subprocess`` exec backend.

Run as ``python -m repro.exec.fleet``.  Speaks a line-delimited JSON
protocol on stdin/stdout — one JSON object per line, one reply per job:

========================  ==================================================
parent -> worker          ``{"op": "init", "ctx": {...}}`` (once, first)
                          ``{"op": "job", "id": N, "point": <b64 pickle>,``
                          ``"trace": {...}?}`` (trace context, optional)
                          ``{"op": "shutdown"}``
worker -> parent          ``{"op": "result", "id": N, "record": <b64>,``
                          ``"spans": [...]?}`` (telemetry spans, optional)
                          ``{"op": "error", "id": N, "error": "...",``
                          ``"spans": [...]?}``
========================  ==================================================

The payloads are base64-pickled :class:`~repro.exec.points.SimPoint` /
:class:`~repro.exec.worker.PointRecord` objects; the *framing* is plain
JSON so a future remote worker (an HTTP endpoint, a container) only has
to speak these lines — nothing about process pools or shared memory
leaks into the protocol.

The worker is deliberately silent on stdout except for protocol replies:
anything else would corrupt the stream.  Simulation stderr passes
through untouched for debuggability.
"""

from __future__ import annotations

import json
import sys
import traceback


def serve(stdin, stdout) -> int:
    """Process protocol lines until shutdown/EOF; returns an exit code."""
    # Imports deferred so ``init`` can set the fast-path threshold before
    # any engine state is touched — and so a protocol error in the very
    # first line doesn't pay the full model import.
    from ..obs.context import using
    from ..obs.telemetry import TelemetryRecorder
    from .backends import (WorkerContext, decode_point, encode_record,
                           init_worker)
    from .worker import compute_point

    for line in stdin:
        line = line.strip()
        if not line:
            continue
        try:
            msg = json.loads(line)
        except json.JSONDecodeError:
            print(json.dumps({"op": "error", "id": None,
                              "error": f"malformed line: {line[:80]!r}"}),
                  file=stdout, flush=True)
            continue
        op = msg.get("op")
        if op == "shutdown":
            return 0
        if op == "init":
            init_worker(WorkerContext.from_dict(msg.get("ctx", {})))
            continue
        if op == "job":
            job_id = msg.get("id")
            trace = msg.get("trace")
            # A per-message recorder seeded with the parent's trace
            # context: the worker's spans are children of the
            # dispatching span across the process boundary, and travel
            # home in the reply — result or error alike — never in the
            # record, which must stay cache-identical whether or not
            # the run was traced.
            recorder = (TelemetryRecorder(enabled=True, context=trace)
                        if trace else None)
            try:
                point = decode_point(msg["point"])
                if recorder is None:
                    record = compute_point(point)
                else:
                    with using(recorder):
                        record = compute_point(point)
                reply = {"op": "result", "id": job_id,
                         "record": encode_record(record)}
            except Exception:
                reply = {"op": "error", "id": job_id,
                         "error": traceback.format_exc(limit=20)}
            spans = recorder.drain() if recorder is not None else None
            if spans:
                reply["spans"] = spans
            print(json.dumps(reply), file=stdout, flush=True)
            continue
        print(json.dumps({"op": "error", "id": msg.get("id"),
                          "error": f"unknown op {op!r}"}),
              file=stdout, flush=True)
    return 0


def main() -> int:
    return serve(sys.stdin, sys.stdout)


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
