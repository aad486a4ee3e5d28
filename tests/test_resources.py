"""Unit tests for bandwidth resources and joint reservation."""

import math
from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigError
from repro.network.resources import (LOG_CAP, BandwidthResource,
                                     ResourceMetrics, Route, reserve_route)


def reserve_joint(resources, nbytes, earliest):
    """Joint reservation with no latency and no stream cap:
    ``(first_start, completion)``."""
    start, end, _arrival = reserve_route(
        Route(0.0, tuple(resources), math.inf), nbytes, earliest)
    return start, end


def test_service_time():
    r = BandwidthResource("r", 100.0)
    assert r.service_time(50.0) == pytest.approx(0.5)


def test_infinite_bandwidth_is_free():
    r = BandwidthResource("r", math.inf)
    start, end = r.reserve(1e9, 1.0)
    assert (start, end) == (1.0, 1.0)


def test_fifo_serialisation():
    r = BandwidthResource("r", 10.0)
    s1, e1 = r.reserve(10.0, 0.0)
    s2, e2 = r.reserve(10.0, 0.0)
    assert (s1, e1) == (0.0, 1.0)
    assert (s2, e2) == (1.0, 2.0)


def test_reserve_after_idle_gap():
    r = BandwidthResource("r", 10.0)
    r.reserve(10.0, 0.0)   # busy until 1.0
    s, e = r.reserve(10.0, 5.0)
    assert (s, e) == (5.0, 6.0)


def test_utilisation_accounting():
    r = BandwidthResource("r", 10.0)
    r.reserve(10.0, 0.0)
    r.reserve(20.0, 0.0)
    assert r.busy_time == pytest.approx(3.0)
    assert r.bytes_served == pytest.approx(30.0)


def test_reset_clears_state():
    r = BandwidthResource("r", 10.0)
    r.reserve(10.0, 0.0)
    r.reset()
    assert r.next_free == 0.0
    assert r.busy_time == 0.0
    assert r.bytes_served == 0.0


def test_nonpositive_bandwidth_rejected():
    with pytest.raises(ConfigError):
        BandwidthResource("bad", 0.0)
    with pytest.raises(ConfigError):
        BandwidthResource("bad", -1.0)


def test_reserve_joint_completion_is_slowest():
    fast = BandwidthResource("fast", 100.0)
    slow = BandwidthResource("slow", 10.0)
    start, end = reserve_joint([fast, slow], 10.0, 0.0)
    assert start == 0.0
    assert end == pytest.approx(1.0)


def test_reserve_joint_independent_queues():
    """A busy resource must not idle the others (no convoy)."""
    a = BandwidthResource("a", 10.0)
    b = BandwidthResource("b", 10.0)
    a.reserve(100.0, 0.0)  # a busy until 10
    start, end = reserve_joint([a, b], 10.0, 0.0)
    # b served 0..1 even though a only frees at 10
    assert b.next_free == pytest.approx(1.0)
    assert end == pytest.approx(11.0)
    # aggregate throughput on b unaffected by a's queue
    assert b.busy_time == pytest.approx(1.0)


def test_reserve_joint_aggregate_fair_share():
    """n messages through one resource take n * service total."""
    r = BandwidthResource("r", 10.0)
    ends = [reserve_joint([r], 10.0, 0.0)[1] for _ in range(5)]
    assert ends[-1] == pytest.approx(5.0)


# -- the reservation loop against the per-server reference ---------------------

def reference_reserve(r, nbytes, earliest):
    """``BandwidthResource.reserve`` as a method of its own, one server
    per call: the arithmetic the joint loop must reproduce bit for bit."""
    start = r.next_free
    if start < earliest:
        start = earliest
    end = start + nbytes / r.bandwidth
    r.next_free = end
    r.busy_time += end - start
    r.bytes_served += nbytes
    m = r.metrics
    if m is not None:
        log = m.log
        log.append((start, end, earliest, nbytes))
        if len(log) >= LOG_CAP:
            m.flush()
    return start, end


def reference_route(route, nbytes, t_ready):
    """A route reserved server by server, then capped and delayed."""
    latency, resources, stream_bw = route
    first_start = None
    end = t_ready
    for r in resources:
        s, e = reference_reserve(r, nbytes, t_ready)
        if first_start is None:
            first_start = s
        if e > end:
            end = e
    capped = first_start + nbytes / stream_bw
    if capped > end:
        end = capped
    return first_start, end, end + latency


@dataclass(frozen=True)
class TapedMetrics(ResourceMetrics):
    """A kind's log that keeps a copy of every batch it flushes."""

    tape: list = field(default_factory=list, compare=False)

    def flush(self) -> None:
        self.tape.append(list(self.log))
        super().flush()


bandwidths = st.sampled_from([1e8, 3e8, 7.5e8, 2e9, 6.4e9, math.inf])

#: (bandwidth, kind) per server; kind None is an unobserved server.
server_specs = st.lists(
    st.tuples(bandwidths, st.sampled_from([None, 0, 1])),
    min_size=5, max_size=8)

#: Route shapes over server indices, modulo the pool size: shm (one
#: server), inter-node (egress, core, ingress), and inter-node with
#: both NIC buses.
route_specs = st.lists(
    st.tuples(
        st.one_of(st.tuples(st.integers(0, 7)),
                  st.tuples(st.integers(0, 7), st.integers(0, 7),
                            st.integers(0, 7)),
                  st.tuples(st.integers(0, 7), st.integers(0, 7),
                            st.integers(0, 7), st.integers(0, 7),
                            st.integers(0, 7))),
        st.floats(0.0, 1e-5),
        st.sampled_from([5e8, 2e9, math.inf])),
    min_size=1, max_size=4)

transfers = st.lists(
    st.tuples(st.integers(0, 3),
              st.one_of(st.integers(0, 1 << 20), st.floats(0.0, 1e7)),
              st.floats(0.0, 1e-3)),
    min_size=1, max_size=60)


def build(specs, routes, prefill):
    """A server pool with per-kind logs, ``prefill`` entries already
    pending in each, and route records over it."""
    kinds = [TapedMetrics(None, None, None) for _ in range(2)]
    for m in kinds:
        m.log.extend([(0.0, 0.0, 0.0, 0)] * prefill)
    pool = [BandwidthResource(f"s{i}", bw, None if k is None else kinds[k])
            for i, (bw, k) in enumerate(specs)]
    records = []
    for idx, latency, stream_bw in routes:
        servers = tuple(pool[i % len(pool)] for i in idx)
        # One transfer never queues twice on one server.
        servers = tuple(dict.fromkeys(servers))
        records.append(Route(latency, servers, stream_bw))
    return pool, kinds, records


def bits(values):
    return [float(v).hex() for v in values]


@settings(max_examples=80, deadline=None)
@given(specs=server_specs, routes=route_specs, batch=transfers,
       prefill=st.sampled_from([0, LOG_CAP - 40, LOG_CAP - 1]))
def test_reservation_loop_matches_per_server_reference(specs, routes, batch,
                                                       prefill):
    """``reserve_route``'s one loop gives bit-identical ``(start, end,
    arrival)``, per-server ``next_free``/``busy_time``/``bytes_served``
    and metrics log entries (flushed batches included, across
    ``LOG_CAP``) to reserving each server on its own: shm, inter-node and
    NIC-bus routes, ``inf`` bandwidths and stream caps."""
    pool, kinds, records = build(specs, routes, prefill)
    ref_pool, ref_kinds, ref_records = build(specs, routes, prefill)
    for which, nbytes, t_ready in batch:
        i = which % len(records)
        got = reserve_route(records[i], nbytes, t_ready)
        want = reference_route(ref_records[i], nbytes, t_ready)
        assert bits(got) == bits(want)
    for r, ref in zip(pool, ref_pool):
        assert (bits((r.next_free, r.busy_time, r.bytes_served))
                == bits((ref.next_free, ref.busy_time, ref.bytes_served)))
    for m, ref in zip(kinds, ref_kinds):
        assert m.tape == ref.tape
        assert m.log == ref.log


def test_reserve_is_the_loop_over_one_server():
    """``BandwidthResource.reserve`` equals the reference for one
    server, log included."""
    kinds = [TapedMetrics(None, None, None) for _ in range(2)]
    r = BandwidthResource("r", 3e8, kinds[0])
    ref = BandwidthResource("r", 3e8, kinds[1])
    for k in range(LOG_CAP + 5):
        nbytes, earliest = (k * 37) % 4096, k * 1.3e-6
        assert bits(r.reserve(nbytes, earliest)) == bits(
            reference_reserve(ref, nbytes, earliest))
    assert kinds[0].tape == kinds[1].tape and len(kinds[0].tape) == 1
    assert kinds[0].log == kinds[1].log
