"""Time-resolved resource utilisation and per-rank straggler profiles.

:class:`TimelineSeries` turns the ``(start, end)`` busy intervals that
:class:`~repro.network.resources.BandwidthResource` reserves into a
bounded-memory, time-bucketed occupancy series: each bucket holds the
busy virtual-seconds that fell inside it, summed over every resource
instance of the kind.  Bucket width is an exact power of two seconds and
doubles (folding pairs of buckets) whenever the run outgrows
``RESOLUTION`` buckets — the HdrHistogram auto-ranging trick.  Because
folds are exact halvings and merges fold both sides to the coarser
width before adding cells in sorted index order, serial, ``--jobs N``,
and cache-warm sweeps produce byte-identical series.

:func:`straggler_profile` answers the imbalance question from the other
side: group a traced run's messages by collective call (the transport
tag encodes the collective sequence number) and compare per-rank exit
times — the max/mean skew per collective and which rank straggled.

:class:`TimelineRecorder` is the ``"timeline"`` recorder of the
observation protocol (:mod:`repro.obs.recorder`).  Like every module in
:mod:`repro.obs`, nothing here imports the model layers; the recorder is
wired in by :mod:`repro.network.resources` fetching the active series
once per fabric construction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .recorder import DEFAULT_PHASE, Recorder

if TYPE_CHECKING:  # avoid importing the model layers at module level
    from ..core.trace import Tracer

#: Maximum buckets a series holds before its width doubles.
RESOLUTION = 256

#: Initial bucket width exponent: 2**-20 s ~ 1 microsecond.
_START_EXP = -20

#: Tag span per collective call — must equal
#: ``repro.mpi.collectives._TAGSPAN`` (cross-checked by the test suite;
#: obs modules do not import the model layers).
COLL_TAGSPAN = 8192


class TimelineSeries:
    """Busy-time occupancy in power-of-two-width time buckets."""

    __slots__ = ("exp", "buckets", "count", "busy_s", "bytes")

    def __init__(self) -> None:
        self.exp = _START_EXP
        self.buckets: dict[int, float] = {}
        self.count = 0
        self.busy_s = 0.0
        self.bytes = 0.0

    @property
    def width(self) -> float:
        """Current bucket width in seconds (exact power of two)."""
        return 2.0 ** self.exp

    def _rescale(self) -> None:
        """Double the bucket width, folding bucket pairs exactly.

        A folded cell sums at most two positive cells, and IEEE addition
        commutes, so the cells need not be visited in index order.
        """
        self.exp += 1
        folded: dict[int, float] = {}
        get = folded.get
        for i, v in self.buckets.items():
            j = i >> 1
            folded[j] = get(j, 0.0) + v
        self.buckets = folded

    def add(self, start: float, end: float, nbytes: float = 0.0) -> None:
        """Record one busy interval ``[start, end)``."""
        self.fold(((start, end, start, nbytes),))

    def fold(self, log) -> None:
        """Record a batch of busy intervals, in order.

        ``log`` holds ``(start, end, earliest, nbytes)`` reservation
        tuples in non-negative virtual time (``earliest`` is not used
        here).  Every accumulator is updated with explicit sequential
        ``+=`` in log order, and the width doubles exactly where it
        would between single adds, so a batch is bit-identical to the
        same intervals added one by one.
        """
        count = self.count
        total_bytes = self.bytes
        busy = self.busy_s
        buckets = self.buckets
        get = buckets.get
        w = 2.0 ** self.exp
        limit = RESOLUTION * w
        for start, end, _earliest, nbytes in log:
            count += 1
            total_bytes += nbytes
            dur = end - start
            if dur <= 0:
                continue
            busy += dur
            if end >= limit:
                while end >= limit:
                    self._rescale()
                    w = 2.0 ** self.exp
                    limit = RESOLUTION * w
                buckets = self.buckets
                get = buckets.get
            # Cell ``i`` covers [i*w, (i+1)*w) and gains the overlap
            # ``min(end, (i+1)*w) - max(start, i*w)``.  Multiples of the
            # power-of-two width are exact, so the overlap is ``dur``
            # inside one cell, exactly ``w`` for an interior cell, and
            # nothing for a last cell that ``end`` only touches.
            i0 = int(start / w)
            i1 = int(end / w)
            if i0 == i1:
                buckets[i0] = get(i0, 0.0) + dur
                continue
            lo = i0 * w
            if start > lo:
                lo = start
            buckets[i0] = get(i0, 0.0) + ((i0 + 1) * w - lo)
            for i in range(i0 + 1, i1):
                buckets[i] = get(i, 0.0) + w
            lo = i1 * w
            if end > lo:
                buckets[i1] = get(i1, 0.0) + (end - lo)
        self.count = count
        self.bytes = total_bytes
        self.busy_s = busy

    # -- views ---------------------------------------------------------------

    def series(self) -> list[tuple[float, float]]:
        """``(bucket_start_s, busy_s)`` pairs, sorted by time."""
        w = 2.0 ** self.exp
        return [(i * w, v) for i, v in sorted(self.buckets.items())]

    def to_dict(self) -> dict:
        return {
            "exp": self.exp,
            "width_s": 2.0 ** self.exp,
            "count": self.count,
            "busy_s": self.busy_s,
            "bytes": self.bytes,
            "buckets": {str(i): v for i, v in sorted(self.buckets.items())},
        }

    def merge(self, snap: dict) -> None:
        """Fold one :meth:`to_dict` snapshot into this series.

        Both sides are first folded to the coarser of the two widths
        (exact halvings), then cells add in sorted index order, so a
        fixed fan-in order gives bit-identical results.
        """
        self.count += snap["count"]
        self.busy_s += snap["busy_s"]
        self.bytes += snap["bytes"]
        while self.exp < snap["exp"]:
            self._rescale()
        shift = self.exp - snap["exp"]
        incoming: dict[int, float] = {}
        for k, v in sorted(snap["buckets"].items(), key=lambda kv: int(kv[0])):
            j = int(k) >> shift
            incoming[j] = incoming.get(j, 0.0) + v
        for j, v in incoming.items():
            self.buckets[j] = self.buckets.get(j, 0.0) + v


class TimelineRecorder(Recorder):
    """Per-phase, per-resource-kind timeline series.

    Virtual-time facts, replayed for cached points.
    """

    name = "timeline"
    replay_cached = True

    def __init__(self, enabled: bool = True) -> None:
        super().__init__(enabled)
        self._phases: dict[str, dict[str, TimelineSeries]] = {}

    # -- recording -----------------------------------------------------------

    def series(self, kind: str) -> TimelineSeries:
        """Create-or-get the series for ``kind`` in the current phase.

        Fetched once per fabric construction; reservations reach the
        returned series in batches through :meth:`TimelineSeries.fold`.
        """
        phase = self._phases.get(self._phase_name)
        if phase is None:
            phase = self._phases[self._phase_name] = {}
        s = phase.get(kind)
        if s is None:
            s = phase[kind] = TimelineSeries()
        return s

    # -- views ---------------------------------------------------------------

    def phases(self) -> list[str]:
        return sorted(self._phases)

    def kinds(self, phase: str = DEFAULT_PHASE) -> list[str]:
        return sorted(self._phases.get(phase, ()))

    def get(self, phase: str, kind: str) -> TimelineSeries | None:
        return self._phases.get(phase, {}).get(kind)

    def snapshot(self) -> dict:
        """JSON-able state: ``{"phases": {name: {kind: series_dict}}}``."""
        return {
            "phases": {
                name: {kind: s.to_dict() for kind, s in sorted(kinds.items())}
                for name, kinds in sorted(self._phases.items())
            }
        }

    def merge(self, snap: dict) -> None:
        """Fold one :meth:`snapshot` in (fixed fan-in order -> identical)."""
        if not self.enabled:
            return
        for name, kinds in snap.get("phases", {}).items():
            phase = self._phases.get(name)
            if phase is None:
                phase = self._phases[name] = {}
            for kind, sdict in kinds.items():
                s = phase.get(kind)
                if s is None:
                    s = phase[kind] = TimelineSeries()
                s.merge(sdict)


# -- straggler / imbalance profiles -------------------------------------------


def straggler_profile(tracer: "Tracer", nprocs: int) -> dict:
    """Per-collective exit-time skew and per-rank straggler counts.

    Messages are grouped by ``tag // COLL_TAGSPAN`` — each collective
    call owns one tag window, so on collective benchmarks every group is
    one call (point-to-point traffic with small user tags all lands in
    group 0, which is what a pure pt2pt program should report anyway).
    A rank's *exit time* for a group is the last instant it touched the
    network (sent or received); the skew ``max - mean`` over ranks is
    the imbalance the paper's Barrier/Alltoall discussions turn on.
    """
    groups: dict[int, dict[int, float]] = {}
    for m in tracer.messages:
        g = groups.get(m.tag // COLL_TAGSPAN)
        if g is None:
            g = groups[m.tag // COLL_TAGSPAN] = {}
        if m.t_inject > g.get(m.src, 0.0):
            g[m.src] = m.t_inject
        if m.t_deliver > g.get(m.dst, 0.0):
            g[m.dst] = m.t_deliver

    collectives: list[dict] = []
    slowest_count = [0] * nprocs
    lag_sum = [0.0] * nprocs
    lag_n = [0] * nprocs
    for seq in sorted(groups):
        exits = groups[seq]
        if not exits:
            continue
        mean = sum(exits[r] for r in sorted(exits)) / len(exits)
        slowest = max(sorted(exits), key=lambda r: (exits[r], r))
        collectives.append({
            "seq": seq,
            "ranks": len(exits),
            "t_exit_max": exits[slowest],
            "t_exit_mean": mean,
            "skew": exits[slowest] - mean,
            "slowest_rank": slowest,
        })
        if slowest < nprocs:
            slowest_count[slowest] += 1
        for r, t in exits.items():
            if r < nprocs:
                lag_sum[r] += t - mean
                lag_n[r] += 1

    ranks = {
        str(r): {
            "slowest": slowest_count[r],
            "mean_lag_s": lag_sum[r] / lag_n[r] if lag_n[r] else 0.0,
        }
        for r in range(nprocs)
    }
    max_skew = max((c["skew"] for c in collectives), default=0.0)
    mean_skew = (sum(c["skew"] for c in collectives) / len(collectives)
                 if collectives else 0.0)
    return {
        "collectives": collectives,
        "ranks": ranks,
        "max_skew_s": max_skew,
        "mean_skew_s": mean_skew,
    }
