"""Unified observability: metrics, span tracing, critical-path analysis.

This package is the single place the simulator reports *why* a run took
the time it did:

* :mod:`repro.obs.metrics` — a zero-dependency metrics registry
  (counters, gauges, log2-bucket histograms) with hierarchical names
  like ``engine.events`` or ``net.egress.queue_wait``.  Near-zero cost
  when disabled (the default outside the harness).
* :mod:`repro.obs.telemetry` — span tracing: one :class:`Span` type and
  one :class:`TelemetryRecorder` time the harness stage tree, the
  executor, the fleet workers and the sweep service, with trace and
  parent ids that survive thread and process hops.
* :mod:`repro.obs.exporters` — Chrome ``traceEvents`` JSON (view in
  ``chrome://tracing`` / Perfetto) for a traced cluster run and for
  recorded spans.
* :mod:`repro.obs.critical_path` — walks the message/compute records of
  a traced run and reports which resource (compute, NIC, bisection,
  shared memory, wire latency) dominates end-to-end time, and when.
* :mod:`repro.obs.commviz` — rank×rank message/byte matrices with
  intra/inter-node splits, tagged by benchmark phase.
* :mod:`repro.obs.timeline` — time-bucketed busy/occupancy series per
  resource kind and per-rank straggler profiles.
* :mod:`repro.obs.ledger` — append-only JSONL run history with trend
  queries and trailing-median regression flagging.

One observation protocol ties the per-point recorders together:

* :mod:`repro.obs.recorder` — the :class:`Recorder` base of metrics,
  commviz, timeline and energy: ``child(phase)``, ``snapshot()``,
  ``merge(snap)``, the ``replay_cached`` flag, one phase cursor and one
  snapshot-merge helper.
* :mod:`repro.obs.context` — the :data:`RECORDERS` name→class registry
  and one ambient context for all five recorders, telemetry included:
  :func:`current` looks in this thread's slot (scoped by :func:`using`),
  then the process-global slot (set by :func:`install`), then falls back
  to a shared disabled instance.

Nothing in this package imports the model layers at module level, so the
core engine can import :mod:`repro.obs.context` without cycles.
"""

from .commviz import CommRecorder, PhaseMatrix
from .context import AMBIENT, RECORDERS, current, install, using
from .critical_path import (
    CriticalPathReport,
    PathSegment,
    critical_path_report,
    format_critical_path,
)
from .energy import EnergyRecorder, PowerModel, integrate_energy
from .exporters import (
    chrome_trace_events,
    write_chrome_trace,
    write_spans_chrome_trace,
)
from .ledger import (LEDGER_SCHEMA_VERSION, RunLedger, git_dirty, git_sha,
                     ledger_row, run_key)
from .telemetry import (
    TRACE_SCHEMA_VERSION,
    Span,
    TelemetryRecorder,
    assemble_traces,
    mint_span_id,
    mint_trace_id,
    trace_summary,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .recorder import Recorder
from .timeline import TimelineRecorder, TimelineSeries, straggler_profile

# perfbench imports these four names; they are the one ``using``.
using_commviz = using_energy = using_metrics = using_timeline = using

__all__ = [
    "AMBIENT",
    "CommRecorder",
    "Counter",
    "CriticalPathReport",
    "EnergyRecorder",
    "Gauge",
    "Histogram",
    "LEDGER_SCHEMA_VERSION",
    "MetricsRegistry",
    "PathSegment",
    "PhaseMatrix",
    "PowerModel",
    "RECORDERS",
    "Recorder",
    "RunLedger",
    "Span",
    "TRACE_SCHEMA_VERSION",
    "TelemetryRecorder",
    "TimelineRecorder",
    "TimelineSeries",
    "assemble_traces",
    "chrome_trace_events",
    "critical_path_report",
    "current",
    "format_critical_path",
    "git_dirty",
    "git_sha",
    "mint_span_id",
    "mint_trace_id",
    "install",
    "integrate_energy",
    "ledger_row",
    "run_key",
    "straggler_profile",
    "trace_summary",
    "using",
    "write_chrome_trace",
    "write_spans_chrome_trace",
]
