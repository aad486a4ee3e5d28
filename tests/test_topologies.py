"""Unit tests for the interconnect topologies."""

import pytest

from repro.core.errors import ConfigError
from repro.network import CrossbarSwitch, FatTree, Hypercube, MultistageCrossbar


# -- fat tree ----------------------------------------------------------------

def test_fattree_same_leaf_hops():
    t = FatTree(16, group_sizes=(4, 4))
    assert t.hops(0, 1) == 1          # same leaf switch
    assert t.hops(0, 4) == 3          # up-over-down across leaves
    assert t.path_level(0, 1) == 1
    assert t.path_level(0, 4) == 2


def test_fattree_self_path():
    t = FatTree(8, group_sizes=(4, 2))
    assert t.hops(3, 3) == 0
    assert t.path_level(3, 3) == 0


def test_fattree_three_tiers():
    t = FatTree(64, group_sizes=(4, 4, 4))
    assert t.path_level(0, 3) == 1
    assert t.path_level(0, 15) == 2
    assert t.path_level(0, 63) == 3
    assert t.hops(0, 63) == 5


def test_fattree_capacity_nonblocking():
    t = FatTree(16, group_sizes=(4, 4))
    assert t.level_capacity_links(1) == 32.0     # 2 * n
    assert t.level_capacity_links(2) == 32.0


def test_fattree_capacity_with_blocking():
    t = FatTree(16, group_sizes=(4, 4), level_blocking=(1.0, 4.0))
    assert t.level_capacity_links(1) == 32.0
    assert t.level_capacity_links(2) == 8.0      # 2 * n / 4


def test_fattree_blocking_compounds():
    t = FatTree(64, group_sizes=(4, 4, 4), level_blocking=(2.0, 2.0, 2.0))
    assert t.level_capacity_links(1) == 64.0
    assert t.level_capacity_links(2) == 32.0
    assert t.level_capacity_links(3) == 16.0


def test_fattree_overfull_rejected():
    with pytest.raises(ConfigError):
        FatTree(17, group_sizes=(4, 4))


def test_fattree_validation_errors():
    with pytest.raises(ConfigError):
        FatTree(4, group_sizes=())
    with pytest.raises(ConfigError):
        FatTree(4, group_sizes=(0, 4))
    with pytest.raises(ConfigError):
        FatTree(4, group_sizes=(2, 2), level_blocking=(1.0,))
    with pytest.raises(ConfigError):
        FatTree(4, group_sizes=(2, 2), level_blocking=(0.5, 1.0))


def test_fattree_analytic_avg_hops_matches_exact():
    for n in (5, 16, 23, 32):
        t = FatTree(n, group_sizes=(4, 4, 2))
        assert t.average_hops_analytic() == pytest.approx(t.average_hops())


# -- hypercube ---------------------------------------------------------------

def test_hypercube_hamming_hops():
    t = Hypercube(8)
    assert t.hops(0, 1) == 1
    assert t.hops(0, 7) == 3
    assert t.hops(5, 6) == 2
    assert t.hops(4, 4) == 0


def test_hypercube_dim_inference():
    assert Hypercube(8).dim == 3
    assert Hypercube(9).dim == 4
    assert Hypercube(2).dim == 1


def test_hypercube_explicit_dim_too_small():
    with pytest.raises(ConfigError):
        Hypercube(8, dim=2)


def test_hypercube_single_core_level():
    t = Hypercube(8)
    assert t.n_levels == 1
    assert t.path_level(0, 5) == 1
    with pytest.raises(ConfigError):
        t.level_capacity_links(2)


def test_hypercube_bisection():
    t = Hypercube(16)
    assert t.bisection_links() == 8.0  # n/2


def test_hypercube_analytic_avg_hops():
    for n in (4, 8, 16):
        t = Hypercube(n)
        assert t.average_hops_analytic() == pytest.approx(t.average_hops())


def test_hypercube_partial_cube_is_exact():
    """Full and partial cubes sum exact per-bit totals: the very float the
    O(n^2) pair scan gives."""
    for n in range(2, 140):
        t = Hypercube(n)
        assert t.average_hops_analytic() == t.average_hops(), n


def test_hypercube_diameter():
    assert Hypercube(16).diameter() == 4


# -- crossbars ----------------------------------------------------------------

def test_crossbar_one_hop():
    t = CrossbarSwitch(8)
    assert t.hops(0, 7) == 1
    assert t.hops(2, 2) == 0
    assert t.average_hops_analytic() == 1.0


def test_crossbar_port_limit():
    with pytest.raises(ConfigError):
        CrossbarSwitch(9, ports=8)


def test_multistage_constant_hops():
    t = MultistageCrossbar(72, ports=128, stage_hops=2)
    assert t.hops(0, 71) == 2
    assert t.average_hops_analytic() == 2.0
    assert t.level_capacity_links(1) == 144.0


def test_multistage_port_limit():
    with pytest.raises(ConfigError):
        MultistageCrossbar(129, ports=128)


def test_multistage_analytic_matches_exact():
    t = MultistageCrossbar(16, ports=128, stage_hops=2)
    assert t.average_hops_analytic() == pytest.approx(t.average_hops())


# -- shared behaviour ----------------------------------------------------------

@pytest.mark.parametrize("topo", [
    FatTree(16, group_sizes=(4, 4)),
    Hypercube(16),
    CrossbarSwitch(16),
    MultistageCrossbar(16),
])
def test_out_of_range_pairs_rejected(topo):
    with pytest.raises(ConfigError):
        topo.hops(0, 16)
    with pytest.raises(ConfigError):
        topo.hops(-1, 3)


def test_topology_needs_a_node():
    with pytest.raises(ConfigError):
        CrossbarSwitch(0)
