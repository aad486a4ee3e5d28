"""One recorder registry and one ambient context for every recorder.

:data:`RECORDERS` maps a name to a per-point recorder class (see
:mod:`repro.obs.recorder`), the same name→class registry pattern as the
scheduler and execution backends.  The executor, the worker and the
harness each run one loop over it instead of one branch per recorder.

The ambient context resolves a name in three steps: this thread's slot
(scoped with :func:`using`: the harness main thread, per-point child
recorders, sweep-service job threads), then the process-global slot
(set with :func:`install`: worker-process initialisation, where every
thread must see it), then a shared disabled instance.  Telemetry shares
this context under the name ``"telemetry"`` but is not a per-point
recorder: its spans ride on the fleet reply, never on the cached record.

Model code fetches its recorder once, at construction, with
:func:`current` and keeps ``None`` when it is disabled, so the
observation-off hot path pays nothing.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Iterator

from .commviz import CommRecorder
from .energy import EnergyRecorder
from .metrics import MetricsRegistry
from .recorder import Recorder
from .telemetry import TelemetryRecorder
from .timeline import TimelineRecorder

#: Per-point recorders by name, in the order points collect them.
RECORDERS: dict[str, type[Recorder]] = {
    "metrics": MetricsRegistry,
    "comm": CommRecorder,
    "timeline": TimelineRecorder,
    "energy": EnergyRecorder,
}

#: Every recorder the ambient context holds, by name.
AMBIENT: dict[str, type] = {**RECORDERS, "telemetry": TelemetryRecorder}

#: Shared disabled instance per ambient name: the last fallback.
_DISABLED = {name: cls(enabled=False) for name, cls in AMBIENT.items()}

_global = dict(_DISABLED)
_tls = threading.local()


def current(name: str):
    """The active recorder called ``name`` (see the module docstring)."""
    rec = getattr(_tls, name, None)
    return rec if rec is not None else _global[name]


def install(rec):
    """Install ``rec`` process-globally under its name; returns the old one.

    Passing the returned recorder back restores the previous state.
    """
    previous, _global[rec.name] = _global[rec.name], rec
    return previous


@contextlib.contextmanager
def using(*recs) -> Iterator:
    """Scope ``recs`` as this thread's active recorders for a ``with`` block.

    Yields the first recorder, so the one-recorder form reads
    ``with using(MetricsRegistry()) as reg:``.
    """
    previous = [(rec.name, getattr(_tls, rec.name, None)) for rec in recs]
    for rec in recs:
        setattr(_tls, rec.name, rec)
    try:
        yield recs[0] if recs else None
    finally:
        for name, rec in reversed(previous):
            setattr(_tls, name, rec)
