"""Zero-dependency metrics registry: counters, gauges, histograms.

Metric names are hierarchical dotted strings (``engine.events``,
``net.egress.queue_wait``, ``cache.hits``).  Three instrument kinds:

* :class:`Counter` — monotonically increasing total (int or float).
* :class:`Gauge` — a last-written value with a ``set_max`` convenience
  for high-water marks; gauges merge by ``max``.
* :class:`Histogram` — fixed log2 buckets keyed by the base-2 exponent
  of the observation (``2**(e-1) < v <= 2**e``), plus count/sum/min/max.
  Log2 buckets make virtual-time distributions (nanoseconds to seconds)
  and byte sizes equally representable without configuration.

Cost model: instrumented code fetches its instruments **once** (at
engine/fabric construction, or when a run ends for the transport's
traffic tally) via ``repro.obs.context.current("metrics")``.  When no registry is
installed — the default everywhere outside the harness — the shared
disabled registry hands out no-op instruments, so the steady
state cost is at most one attribute access per already-infrequent call
site, and hot loops can skip instrumentation entirely by checking
``registry.enabled`` once.  The network's bandwidth resources go one
step further: a reservation only appends a tuple to its kind's log, and
:func:`fold_reservations` folds the log into the instruments in batches.

The registry is the ``"metrics"`` recorder of the observation protocol
(:mod:`repro.obs.recorder`).  Snapshots (:meth:`MetricsRegistry.snapshot`)
are plain JSON-able dicts with deterministically sorted keys;
:meth:`MetricsRegistry.merge` combines worker-process snapshots into a
parent registry.  All merge operations are commutative, so serial and
parallel sweeps produce identical merged metrics.
"""

from __future__ import annotations

import math

from .recorder import Recorder


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def inc(self, n: float = 1) -> None:
        self.value += n


class Gauge:
    """A last-written value; ``set_max`` keeps high-water marks."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def set(self, v: float) -> None:
        self.value = v

    def set_max(self, v: float) -> None:
        if v > self.value:
            self.value = v


#: Observations below 2**_MIN_EXP collapse into the lowest bucket.
_MIN_EXP = -64
#: Observations above 2**_MAX_EXP collapse into the highest bucket.
_MAX_EXP = 64


def log2_bucket(value: float) -> int:
    """Bucket exponent ``e`` such that ``2**(e-1) < value <= 2**e``.

    Zero and negative observations land in the dedicated ``_MIN_EXP``
    bucket; extremes are clipped so the bucket keyspace stays bounded.
    """
    if value <= 0:
        return _MIN_EXP
    e = math.frexp(value)[1]  # value = m * 2**e with 0.5 <= m < 1
    if value == math.ldexp(0.5, e):  # exact power of two: 2**(e-1)
        e -= 1
    return min(max(e, _MIN_EXP), _MAX_EXP)


class Histogram:
    """Fixed log2-bucket histogram with count/sum/min/max."""

    __slots__ = ("name", "buckets", "count", "sum", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.buckets: dict[int, int] = {}
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        b = log2_bucket(value)
        self.buckets[b] = self.buckets.get(b, 0) + 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": None if self.count == 0 else self.min,
            "max": None if self.count == 0 else self.max,
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }


class _NullCounter:
    __slots__ = ()

    def inc(self, n: float = 1) -> None:
        pass


class _NullGauge:
    __slots__ = ()

    def set(self, v: float) -> None:
        pass

    def set_max(self, v: float) -> None:
        pass


class _NullHistogram:
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


_NULL_COUNTER = _NullCounter()
_NULL_GAUGE = _NullGauge()
_NULL_HISTOGRAM = _NullHistogram()


class MetricsRegistry(Recorder):
    """Create-or-get instrument store with hierarchical dotted names.

    Host-side counts of work this process executed, so a cached point's
    snapshot is not replayed (``replay_cached`` is false).
    """

    name = "metrics"

    def __init__(self, enabled: bool = True) -> None:
        super().__init__(enabled)
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- instrument accessors ------------------------------------------------

    def counter(self, name: str) -> Counter | _NullCounter:
        if not self.enabled:
            return _NULL_COUNTER
        c = self._counters.get(name)
        if c is None:
            c = self._counters[name] = Counter(name)
        return c

    def gauge(self, name: str) -> Gauge | _NullGauge:
        if not self.enabled:
            return _NULL_GAUGE
        g = self._gauges.get(name)
        if g is None:
            g = self._gauges[name] = Gauge(name)
        return g

    def histogram(self, name: str) -> Histogram | _NullHistogram:
        if not self.enabled:
            return _NULL_HISTOGRAM
        h = self._histograms.get(name)
        if h is None:
            h = self._histograms[name] = Histogram(name)
        return h

    # -- views ---------------------------------------------------------------

    def value(self, name: str, default: float = 0) -> float:
        """Current value of a counter or gauge by name."""
        if name in self._counters:
            return self._counters[name].value
        if name in self._gauges:
            return self._gauges[name].value
        return default

    def snapshot(self) -> dict:
        """JSON-able state: ``{"counters": .., "gauges": .., "histograms": ..}``."""
        return {
            "counters": {n: c.value
                         for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {n: h.to_dict()
                           for n, h in sorted(self._histograms.items())},
        }

    def flat(self) -> dict[str, float]:
        """Counters and gauges as one sorted ``name -> value`` map."""
        out = {n: c.value for n, c in self._counters.items()}
        out.update((n, g.value) for n, g in self._gauges.items())
        return dict(sorted(out.items()))

    # -- merging -------------------------------------------------------------

    def merge(self, snap: dict) -> None:
        """Fold one :meth:`snapshot` into this registry.

        Counters and histogram buckets add; gauges keep the max (they
        are used for high-water marks).  Commutative, so merge order
        does not affect the result.
        """
        if not self.enabled:
            return
        for name, v in snap.get("counters", {}).items():
            self.counter(name).inc(v)
        for name, v in snap.get("gauges", {}).items():
            self.gauge(name).set_max(v)
        for name, d in snap.get("histograms", {}).items():
            h = self.histogram(name)
            h.count += d["count"]
            h.sum += d["sum"]
            if d["min"] is not None and d["min"] < h.min:
                h.min = d["min"]
            if d["max"] is not None and d["max"] > h.max:
                h.max = d["max"]
            for k, n in d["buckets"].items():
                k = int(k)
                h.buckets[k] = h.buckets.get(k, 0) + n


def fold_reservations(log: list, queue_wait: Histogram, nbytes: Counter,
                      busy_s: Counter) -> None:
    """Fold a reservation log into one resource kind's instruments.

    ``log`` holds ``(start, end, earliest, nbytes)`` tuples in the order
    the reservations were made.  Each instrument sees the operations the
    per-reservation calls ``queue_wait.observe(start - earliest)``,
    ``nbytes.inc(nbytes)`` and ``busy_s.inc(end - start)`` would make,
    in the same order: explicit sequential ``+=`` (never ``sum()``,
    whose float result is compensated on Python 3.12), so snapshots stay
    bit-identical and an all-int byte counter stays ``int``.  The bucket
    is :func:`log2_bucket` written out: ``value == 2**(e-1)`` exactly
    when ``frexp``'s mantissa is 0.5.
    """
    buckets = queue_wait.buckets
    get = buckets.get
    frexp = math.frexp
    total = queue_wait.sum
    lo = queue_wait.min
    hi = queue_wait.max
    served = nbytes.value
    busy = busy_s.value
    for start, end, earliest, n in log:
        wait = start - earliest
        if wait <= 0:
            b = _MIN_EXP
        else:
            m, b = frexp(wait)
            if m == 0.5:
                b -= 1
            if b < _MIN_EXP:
                b = _MIN_EXP
            elif b > _MAX_EXP:
                b = _MAX_EXP
        buckets[b] = get(b, 0) + 1
        total += wait
        if wait < lo:
            lo = wait
        if wait > hi:
            hi = wait
        served += n
        busy += end - start
    queue_wait.count += len(log)
    queue_wait.sum = total
    queue_wait.min = lo
    queue_wait.max = hi
    nbytes.value = served
    busy_s.value = busy
