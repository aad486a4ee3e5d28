"""Unit tests for the fabric model (message timing + contention)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ConfigError
from repro.network import CrossbarSwitch, Fabric, FabricParams, FatTree
from repro.network.resources import reserve_route


def make_params(**kw) -> FabricParams:
    defaults = dict(
        link_bw=1e9,
        nic_bw=1e9,
        base_latency=2e-6,
        per_hop_latency=1e-7,
        send_overhead=2e-7,
        recv_overhead=2e-7,
        eager_threshold=8192,
        bw_efficiency=1.0,
        shm_bw=4e9,
        shm_flow_bw=2e9,
        shm_latency=5e-7,
        memcpy_bw=4e9,
    )
    defaults.update(kw)
    return FabricParams(**defaults)


def make_fabric(n_nodes=4, **kw) -> Fabric:
    return Fabric(CrossbarSwitch(n_nodes), make_params(**kw))


def test_intra_node_uses_shm_flow():
    f = make_fabric()
    t = f.message_timing(0, 0, 2e9, 0.0)
    # 2 GB at 2 GB/s per-flow cap (node aggregate 4 GB/s not binding)
    assert t.inject_end == pytest.approx(1.0)
    assert t.arrival == pytest.approx(1.0 + 5e-7)


def test_intra_node_aggregate_binds_concurrent_flows():
    f = make_fabric()
    # two concurrent 2 GB flows through a 4 GB/s node: each serialised on
    # the aggregate for 0.5 s, flow cap 1 s from own start
    t1 = f.message_timing(0, 0, 2e9, 0.0)
    t2 = f.message_timing(0, 0, 2e9, 0.0)
    assert t1.inject_start == 0.0
    assert t2.inject_start == pytest.approx(0.5)
    assert t2.inject_end == pytest.approx(1.5)


def test_inter_node_bandwidth_and_latency():
    f = make_fabric()
    t = f.message_timing(0, 1, 1e9, 0.0)
    assert t.inject_end == pytest.approx(1.0)      # 1 GB at 1 GB/s
    # crossbar: 1 hop
    assert t.arrival == pytest.approx(1.0 + 2e-6 + 1e-7)


def test_egress_serialises_two_sends():
    f = make_fabric()
    t1 = f.message_timing(0, 1, 1e9, 0.0)
    t2 = f.message_timing(0, 2, 1e9, 0.0)
    assert t2.inject_end == pytest.approx(2.0)


def test_ingress_serialises_two_receives():
    f = make_fabric()
    t1 = f.message_timing(1, 0, 1e9, 0.0)
    t2 = f.message_timing(2, 0, 1e9, 0.0)
    assert max(t1.arrival, t2.arrival) == pytest.approx(2.0 + 2.1e-6)


def test_full_duplex_send_and_recv_overlap():
    f = make_fabric()  # duplex_factor defaults to 2
    out = f.message_timing(0, 1, 1e9, 0.0)
    inc = f.message_timing(1, 0, 1e9, 0.0)
    assert out.inject_end == pytest.approx(1.0)
    assert inc.inject_end == pytest.approx(1.0)


def test_half_duplex_bus_serialises_directions():
    f = make_fabric(duplex_factor=1.0)
    out = f.message_timing(0, 1, 1e9, 0.0)
    inc = f.message_timing(1, 0, 1e9, 0.0)
    # the shared bus at node 0 (and 1) carries 2 GB at 1 GB/s
    assert max(out.inject_end, inc.inject_end) == pytest.approx(2.0)


def test_single_stream_capped_at_link_rate():
    f = make_fabric(nic_bw=4e9)  # fat NIC, thin link
    t = f.message_timing(0, 1, 1e9, 0.0)
    assert t.inject_end == pytest.approx(1.0)  # still 1 GB/s link


def test_control_timing_skips_bandwidth_queues():
    f = make_fabric()
    f.message_timing(0, 1, 1e9, 0.0)          # deep bulk queue
    c = f.control_timing(0, 1, 0.0)
    assert c.arrival == pytest.approx(2.1e-6)  # latency only


def test_eager_threshold():
    f = make_fabric(eager_threshold=100)
    assert f.is_eager(100)
    assert not f.is_eager(101)


def test_memcpy_time():
    f = make_fabric()
    assert f.memcpy_time(4e9) == pytest.approx(1.0)


def test_latency_intra_vs_inter():
    f = make_fabric()
    assert f.latency(0, 0) == pytest.approx(5e-7)
    assert f.latency(0, 1) == pytest.approx(2.1e-6)


def test_reset_clears_contention():
    f = make_fabric()
    f.message_timing(0, 1, 1e9, 0.0)
    f.reset()
    t = f.message_timing(0, 1, 1e9, 0.0)
    assert t.inject_start == 0.0


def test_param_validation():
    with pytest.raises(ConfigError):
        make_params(link_bw=0)
    with pytest.raises(ConfigError):
        make_params(base_latency=-1e-6)
    with pytest.raises(ConfigError):
        make_params(bw_efficiency=1.5)
    with pytest.raises(ConfigError):
        make_params(duplex_factor=0.5)
    with pytest.raises(ConfigError):
        make_params(duplex_factor=2.5)
    with pytest.raises(ConfigError):
        make_params(eager_threshold=-1)
    with pytest.raises(ConfigError):
        make_params(shm_flow_bw=-2.0)


def test_bw_efficiency_derates_link():
    f = make_fabric(bw_efficiency=0.5)
    t = f.message_timing(0, 1, 1e9, 0.0)
    assert t.inject_end == pytest.approx(2.0)


def reference_timing(f: Fabric, src: int, dst: int, nbytes: float,
                     t_ready: float) -> tuple[float, float, float]:
    """The fabric's timing rule written out from its parts: the shm
    server with the per-flow cap within a node; egress, core, ingress
    (and both NIC buses) each reserved on its own FIFO, from the first
    one's start to the latest end, with the burst cap, between nodes."""
    p = f.params
    if src == dst:
        start, end = f.shm_resource(src).reserve(nbytes, t_ready)
        end = max(end, start + nbytes / p.shm_flow_bw)
        return start, end, end + p.shm_latency
    resources = [f.egress_resource(src),
                 f.core_resource(f.topology.path_level(src, dst)),
                 f.ingress_resource(dst)]
    if f._bus is not None:
        resources += [f._bus[src], f._bus[dst]]
    spans = [r.reserve(nbytes, t_ready) for r in resources]
    start = spans[0][0]
    end = max([t_ready] + [e for _s, e in spans])
    end = max(end, start + nbytes / (p.link_bw * p.bw_efficiency))
    return start, end, end + p.latency(f.topology.hops(src, dst))


transfers = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7),
              st.integers(0, 1 << 20), st.floats(0.0, 1e-3)),
    min_size=1, max_size=40)


@settings(max_examples=60, deadline=None)
@given(batch=transfers, duplex=st.sampled_from([2.0, 1.5, 1.0]),
       eff=st.sampled_from([1.0, 0.8]))
def test_route_helper_matches_message_timing_bit_for_bit(batch, duplex, eff):
    """The eager path's helper (``reserve_route`` over a route record) and
    ``message_timing`` give bit-identical ``(start, end, arrival)`` from
    the same fabric state, and both equal the rule built from the parts:
    shm routes, inter-node routes over two core levels, and NIC-bus
    routes (``duplex_factor < 2``)."""
    def build():
        return Fabric(FatTree(8, group_sizes=(4, 2)),
                      make_params(duplex_factor=duplex, bw_efficiency=eff,
                                  nic_bw=5e8))

    eager, timed, ref = build(), build(), build()
    assert (eager._bus is None) == (duplex == 2.0)
    for src, dst, nbytes, t_ready in batch:
        a = reserve_route(eager.route(src, dst), nbytes, t_ready)
        mt = timed.message_timing(src, dst, nbytes, t_ready)
        b = (mt.inject_start, mt.inject_end, mt.arrival)
        assert a == b == reference_timing(ref, src, dst, nbytes, t_ready)
