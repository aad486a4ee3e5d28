"""Bandwidth resources: the contention primitives of the network model.

A :class:`BandwidthResource` is a FIFO fluid server: each transfer occupies
the resource for ``nbytes / bandwidth`` seconds, and transfers queue in the
order they arrive.  The network model composes three kinds of resource per
message — source-node egress NIC, a network-core (bisection) aggregate, and
destination-node ingress NIC — which is enough to reproduce the contention
effects the paper discusses (SMP-node NIC sharing on the NEC SX-8, the SGI
Altix multi-box bandwidth collapse, Myrinet oversubscription) without
tracking individual switch ports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from ..core.errors import ConfigError
from ..obs.context import current
from ..obs.metrics import (Counter, Histogram, MetricsRegistry,
                           fold_reservations)
from ..obs.timeline import TimelineSeries


#: Reservations a kind's log holds before it is folded into the
#: instruments; bounds the log's memory on runs of any length.
LOG_CAP = 1024


@dataclass(frozen=True)
class ResourceMetrics:
    """Observation log and instruments shared by every resource of one kind.

    Aggregating per *kind* (egress/ingress/core/shm/nicbus) rather than
    per instance keeps metric cardinality independent of node count;
    per-instance ``busy_time``/``bytes_served`` stay on the resource
    itself for the critical-path analyser and the utilisation report.

    A reservation only appends ``(start, end, earliest, nbytes)`` to
    ``log``; :meth:`flush` folds the log into the ``net.<kind>.*``
    queue-wait histogram and bytes/busy counters and, when a timeline
    recorder is installed, into the kind's occupancy series.  The fold
    runs when the log reaches :data:`LOG_CAP` entries and at the end of
    every :meth:`repro.mpi.cluster.Cluster.run`; code that drives a
    :class:`~repro.network.netmodel.Fabric` directly calls
    :meth:`~repro.network.netmodel.Fabric.flush_observations` before it
    reads the instruments.
    """

    queue_wait: Histogram | None  # seconds queued before service
    bytes: Counter | None         # bytes served
    busy_s: Counter | None        # busy (serving) virtual seconds
    timeline: TimelineSeries | None = None  # occupancy series, or None
    log: list = field(default_factory=list, compare=False)

    @classmethod
    def for_kind(cls, registry: MetricsRegistry,
                 kind: str) -> "ResourceMetrics | None":
        """Log and instruments for ``net.<kind>.*``, or None when disabled.

        With the registry disabled and a timeline recorder installed,
        the instruments are None and only the series is folded.
        """
        recorder = current("timeline")
        series = recorder.series(kind) if recorder.enabled else None
        if not registry.enabled:
            if series is None:
                return None
            return cls(None, None, None, series)
        return cls(
            queue_wait=registry.histogram(f"net.{kind}.queue_wait"),
            bytes=registry.counter(f"net.{kind}.bytes"),
            busy_s=registry.counter(f"net.{kind}.busy_s"),
            timeline=series,
        )

    def flush(self) -> None:
        """Fold the pending log into the instruments and clear it."""
        log = self.log
        if not log:
            return
        if self.queue_wait is not None:
            fold_reservations(log, self.queue_wait, self.bytes, self.busy_s)
        if self.timeline is not None:
            self.timeline.fold(log)
        log.clear()


class BandwidthResource:
    """A FIFO bandwidth server.

    ``bandwidth`` is in bytes/second and may be ``math.inf`` for a
    non-constraining resource.  Utilisation accounting is kept for the
    analysis layer; an optional :class:`ResourceMetrics` additionally
    logs each reservation for the metrics registry and timeline.
    """

    __slots__ = ("name", "bandwidth", "next_free", "busy_time",
                 "bytes_served", "metrics")

    def __init__(self, name: str, bandwidth: float,
                 metrics: ResourceMetrics | None = None) -> None:
        if bandwidth <= 0:
            raise ConfigError(f"resource {name!r}: bandwidth must be > 0")
        self.name = name
        self.bandwidth = float(bandwidth)
        self.next_free = 0.0
        self.busy_time = 0.0
        self.bytes_served = 0.0
        self.metrics = metrics

    def service_time(self, nbytes: float) -> float:
        if self.bandwidth is math.inf:
            return 0.0
        return nbytes / self.bandwidth

    def reserve(self, nbytes: float, earliest: float) -> tuple[float, float]:
        """Reserve the resource for ``nbytes``; returns ``(start, end)``."""
        start, end, _arrival = reserve_route(
            Route(0.0, (self,), math.inf), nbytes, earliest)
        return start, end

    def reset(self) -> None:
        self.next_free = 0.0
        self.busy_time = 0.0
        self.bytes_served = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<BandwidthResource {self.name!r} bw={self.bandwidth:.3g} B/s>"


class Route(NamedTuple):
    """One node pair's route record (built by
    :meth:`~repro.network.netmodel.Fabric.route`)."""

    latency: float  # zero-byte latency
    resources: tuple[BandwidthResource, ...]  # servers, in reserve order
    stream_bw: float  # single-stream bandwidth cap


def reserve_route(route: Route, nbytes: float,
                  t_ready: float) -> tuple[float, float, float]:
    """Reserve one ``nbytes`` transfer over a route record.

    Returns ``(inject_start, inject_end, arrival)`` as plain floats.
    This is the one copy of the FIFO reservation arithmetic: the eager
    send path, :meth:`~repro.network.netmodel.Fabric.message_timing` and
    :meth:`BandwidthResource.reserve` all come here, and the servers'
    steps are written out in one loop rather than paid as a call each.
    ``nbytes`` must be >= 0.

    Each server is reserved *independently* (its own FIFO) from
    ``t_ready``: the message occupies server ``r`` for ``nbytes / bw_r``
    starting when ``r`` frees up.  The transfer starts at the first
    server's start, ends at the latest end across servers but no earlier
    than the single-stream cap allows, and lands ``latency`` later.

    Independent reservation keeps every resource work-conserving, which
    makes aggregate throughput match the fluid fair-share ideal under
    bulk-synchronous load.  (A common-start coupled reservation was tried
    first and produces convoy dead-time: a busy *remote* ingress would
    idle the local egress, collapsing random-ring bandwidth far below
    the per-resource capacities.)
    """
    latency, resources, stream_bw = route
    start = None
    end = t_ready
    for r in resources:
        s = r.next_free
        if s < t_ready:
            s = t_ready
        # nbytes / inf == 0.0, so an unconstrained resource needs no branch.
        e = s + nbytes / r.bandwidth
        r.next_free = e
        r.busy_time += e - s
        r.bytes_served += nbytes
        m = r.metrics
        if m is not None:
            log = m.log
            log.append((s, e, t_ready, nbytes))
            if len(log) >= LOG_CAP:
                m.flush()
        if start is None:
            start = s
        if e > end:  # the latest end, without the builtin call
            end = e
    capped = start + nbytes / stream_bw
    if capped > end:
        end = capped
    return start, end, end + latency
