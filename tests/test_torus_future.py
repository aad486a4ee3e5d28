"""3-D torus topology and the future-work machine projections."""

import pytest

from repro.core.errors import ConfigError
from repro.hpcc import RingConfig, run_ring, run_stream
from repro.imb import run_benchmark
from repro.machine.future import FUTURE_BY_NAME, FUTURE_MACHINES
from repro.network import Torus3D, balanced_dims


# -- torus topology ----------------------------------------------------------

def test_balanced_dims_cover_count():
    for n in (1, 7, 8, 27, 60, 64, 100, 512):
        dims = balanced_dims(n)
        assert dims[0] * dims[1] * dims[2] >= n


def test_torus_hops_wraparound():
    t = Torus3D(64, dims=(4, 4, 4))
    # node 0 = (0,0,0); node 3 = (3,0,0): ring distance 1 (wrap)
    assert t.hops(0, 3) == 1
    assert t.hops(0, 1) == 1
    assert t.hops(0, 2) == 2
    # (0,0,0) -> (2,2,2): 2+2+2
    node = 2 + 2 * 4 + 2 * 16
    assert t.hops(0, node) == 6


def test_torus_self_and_levels():
    t = Torus3D(27, dims=(3, 3, 3))
    assert t.hops(5, 5) == 0
    assert t.path_level(0, 13) == 1
    with pytest.raises(ConfigError):
        t.level_capacity_links(2)


def test_torus_diameter():
    t = Torus3D(64, dims=(4, 4, 4))
    assert t.diameter() == 6  # 2+2+2


def test_torus_analytic_hops_match_bruteforce():
    for n, dims in ((27, (3, 3, 3)), (24, (2, 3, 4)), (64, None)):
        t = Torus3D(n, dims=dims)
        assert t.average_hops_analytic() == pytest.approx(t.average_hops())


def test_torus_partial_fill_is_exact():
    """Partial fills sum exact integer hop totals: the very float the
    O(n^2) pair scan gives, not an approximation of it."""
    shapes = [(n, None) for n in range(2, 100)]
    shapes += [(n, dims) for n in range(2, 40)
               for dims in ((4, 4, -(-n // 16)), (n + 1, 1, 1))]
    checked = 0
    for n, dims in shapes:
        t = Torus3D(n, dims=dims)
        if t.dims[0] * t.dims[1] * t.dims[2] != n:
            assert t.average_hops_analytic() == t.average_hops(), t.dims
            checked += 1
    assert checked > 100


def test_torus_bad_dims():
    with pytest.raises(ConfigError):
        Torus3D(100, dims=(2, 2, 2))
    with pytest.raises(ConfigError):
        Torus3D(8, dims=(2, 2, 0))


def test_torus_bisection_scales_with_cross_section():
    small = Torus3D(64, dims=(4, 4, 4))
    long = Torus3D(64, dims=(2, 2, 16))
    # the long thin torus has a smaller cross-section to cut
    assert long.bisection_links() < small.bisection_links()


# -- future machines ----------------------------------------------------------

def test_five_future_systems_present():
    assert set(FUTURE_BY_NAME) == {
        "bluegene_p", "cray_xt4", "cray_x1e", "power5", "gige",
    }


@pytest.mark.parametrize("m", FUTURE_MACHINES, ids=lambda m: m.name)
def test_future_machines_run_imb(m):
    p = min(16, m.max_cpus)
    res = run_benchmark(m, "Allreduce", p, 65536)
    assert res.time_us > 0


@pytest.mark.parametrize("m", FUTURE_MACHINES, ids=lambda m: m.name)
def test_future_machines_marked_as_projections(m):
    assert "projection" in m.label or "projection" in m.notes


def test_x1e_extends_the_x1():
    from repro.machine import get_machine

    x1 = get_machine("x1_msp")
    x1e = FUTURE_BY_NAME["cray_x1e"]
    assert x1e.processor.peak_gflops > x1.processor.peak_gflops
    assert x1e.processor.is_vector


def test_gige_cluster_is_the_slow_network_baseline():
    """The GigE projection trails every 2005 testbed network."""
    from repro.machine import get_machine

    gige = run_ring(FUTURE_BY_NAME["gige"], 16, RingConfig(n_rings=3))
    myrinet = run_ring(get_machine("opteron"), 16, RingConfig(n_rings=3))
    assert gige.bandwidth_gbs < myrinet.bandwidth_gbs
    assert gige.latency_us > myrinet.latency_us


def test_bgp_alltoall_on_torus_runs():
    res = run_benchmark(FUTURE_BY_NAME["bluegene_p"], "Alltoall", 32, 65536)
    assert res.time_us > 0


def test_xt4_outpaces_opteron_cluster():
    """The sequel question: does SeaStar fix the Myrinet cluster's
    communication balance?  (It should — that is why Cray built it.)"""
    from repro.machine import get_machine

    xt4 = run_ring(FUTURE_BY_NAME["cray_xt4"], 64, RingConfig(n_rings=3))
    opteron = run_ring(get_machine("opteron"), 64, RingConfig(n_rings=3))
    assert xt4.bandwidth_gbs > 2 * opteron.bandwidth_gbs


def test_power5_fat_nodes_help_stream():
    res = run_stream(FUTURE_BY_NAME["power5"], 16)
    assert res.copy_gbs == pytest.approx(5.0 * 0.9, rel=0.02)
