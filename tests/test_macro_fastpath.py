"""The macro fast-path: gating, pricing, cache isolation, scale studies.

The analytic fast-path (:mod:`repro.imb.fastpath`) may replace a
message-level IMB collective simulation only when ``macro_above`` is set
(``--macro-above N`` / ``REPRO_MACRO_ABOVE``) AND the rank count is
strictly above it.  Unset — the default — every point is simulated
exactly.  Above the threshold the fast-path must return exactly what the
pricers compute, in microseconds of host time rather than minutes, and
its results must never share a cache entry, a coalescer claim or a
ledger ``run_key`` with exact-mode results.
"""

from __future__ import annotations

import math

import pytest

from repro import get_machine
from repro.config import ReproConfig
from repro.exec import ResultCache, SimPoint, SweepExecutor
from repro.imb import fastpath
from repro.imb.framework import BENCHMARKS, get_benchmark
from repro.obs import run_key
from repro.service.coalesce import PointCoalescer

COLLECTIVES = ["Barrier", "Bcast", "Reduce", "Allreduce", "Reduce_scatter",
               "Allgather", "Allgatherv", "Alltoall"]


@pytest.fixture(autouse=True)
def _exact_by_default():
    previous = fastpath.set_macro_above(None)
    yield
    fastpath.set_macro_above(previous)


# -- gating --------------------------------------------------------------------

def test_fastpath_fires_strictly_above_macro_above():
    fastpath.set_macro_above(2048)
    assert not fastpath.fastpath_active(2048)       # strictly above only
    assert fastpath.fastpath_active(2049)
    fastpath.set_macro_above(None)
    assert not any(fastpath.fastpath_active(p) for p in (0, 1, 2049, 1 << 30))


def test_default_threshold_covers_paper_range(monkeypatch):
    """Every configuration the paper measured must simulate exactly."""
    from repro.machine import MACHINES

    monkeypatch.delenv(fastpath.MACRO_ABOVE_ENV, raising=False)
    largest = max(m.max_cpus for m in MACHINES.values())
    assert ReproConfig.from_env_and_args(jobs=1).macro_above is None
    assert not fastpath.fastpath_active(largest)
    fastpath.set_macro_above(2048)                  # the scale-study setting
    assert not fastpath.fastpath_active(largest)


def test_paper_range_results_identical_under_macro_above():
    m = get_machine("xeon")

    def measure(n):
        fastpath.set_macro_above(n)
        r = get_benchmark("Allreduce").run(m, 16)
        return r.time_us, r.bandwidth_mbs

    # 16 ranks is not above 16 or 2048: simulated exactly either way
    assert measure(None) == measure(2048) == measure(16)


def test_result_tag_names_the_threshold():
    assert fastpath.result_tag() is None
    fastpath.set_macro_above(2048)
    assert fastpath.result_tag() == "macro-fastpath>2048"


# -- pricing -------------------------------------------------------------------

def test_every_collective_has_a_pricer():
    for name in COLLECTIVES:
        assert name in fastpath.PRICERS


def test_transfer_benchmarks_have_no_pricer():
    m = get_machine("xeon")
    for name in BENCHMARKS:
        if name not in fastpath.PRICERS:
            assert fastpath.price(name, m, 4096, 1024) is None


@pytest.mark.parametrize("name", COLLECTIVES)
@pytest.mark.parametrize("p", [4096, 65536, 65537])
def test_prices_are_finite_positive_and_scale(name, p):
    m = get_machine("xeon").scaled(1 << 17)
    t = fastpath.price(name, m, p, 1024 * 1024)
    assert t is not None and math.isfinite(t) and t > 0
    if name != "Barrier":
        bigger = fastpath.price(name, m, p, 2 * 1024 * 1024)
        assert bigger > t


def test_run_above_threshold_returns_priced_time():
    """Above the threshold, IMBBenchmark.run must short-circuit to the
    pricer — same value, no cluster construction at 8192 ranks."""
    fastpath.set_macro_above(1024)
    m = get_machine("xeon").scaled(8192)
    for name in COLLECTIVES:
        r = get_benchmark(name).run(m, 8192)
        want = fastpath.price(name, m, 8192, 1024 * 1024)
        assert r.time_us == pytest.approx(want * 1e6)
        assert r.check() == []


def test_lowered_threshold_prices_close_to_simulation():
    """With the threshold lowered into simulable range, the fast-path
    must stay within the same tolerance band the macro agreement suite
    licenses for the closed forms."""
    m = get_machine("xeon")
    exact = get_benchmark("Allreduce").run(m, 32).time_us
    fastpath.set_macro_above(16)
    fast = get_benchmark("Allreduce").run(m, 32).time_us
    assert fast == pytest.approx(exact, rel=0.6)


# -- cache isolation -----------------------------------------------------------

def test_fastpath_results_never_alias_exact_cache_entries():
    cache = ResultCache("unused-dir", fingerprint="fixed")
    pt = SimPoint.make("imb", "xeon", 4096, benchmark="Allreduce")
    exact = cache._path(pt)
    fastpath.set_macro_above(2048)
    fast = cache._path(pt)
    assert fast != exact
    # and the threshold is part of the salt
    fastpath.set_macro_above(512)
    assert cache._path(pt) not in (exact, fast)


def test_fastpath_runs_never_share_coalescer_claims():
    """An exact sweep and a fast-path sweep of the same point are
    different work: neither may wait on the other's claim."""

    class RecordingCoalescer(PointCoalescer):
        def claim(self, key):
            keys.append(key)
            return super().claim(key)

    keys = []
    executor = SweepExecutor(jobs=1, cache=None,
                             coalescer=RecordingCoalescer())
    pt = SimPoint.make("imb", "xeon", 2, benchmark="Allreduce",
                       msg_bytes=1024)
    executor.run_points([pt])
    fastpath.set_macro_above(2048)
    executor.run_points([pt])
    exact_key, fast_key = keys
    assert exact_key == pt.key()
    assert fast_key == f"{pt.key()}\nmacro-fastpath>2048"


@pytest.mark.parametrize("backend", ["subprocess"])
def test_workers_inherit_macro_above(backend):
    """The threshold reaches worker processes through their context."""
    pts = [SimPoint.make("imb", "xeon", p, benchmark="Allreduce",
                         msg_bytes=1024) for p in (32, 64)]
    exact = SweepExecutor(jobs=1, cache=None).run_points(pts)
    fastpath.set_macro_above(16)
    inline = SweepExecutor(jobs=1, cache=None).run_points(pts)
    with SweepExecutor(jobs=2, cache=None, backend=backend) as ex:
        assert ex.run_points(pts) == inline != exact


def test_fastpath_runs_are_different_ledger_work():
    exact = run_key(["fig12"], 32)
    fastpath.set_macro_above(2048)
    fast = run_key(["fig12"], 32)
    fastpath.set_macro_above(512)
    assert len({exact, fast, run_key(["fig12"], 32)}) == 3


# -- scale-study machine scaling ----------------------------------------------

def test_scaled_machine_widens_topology():
    m = get_machine("xeon")                  # fat tree, 1296-node capacity
    big = m.scaled(1 << 20)
    assert big.max_cpus == 1 << 20
    assert big.n_nodes(1 << 20) == (1 << 20) // m.node.cpus
    assert big.node == m.node                # per-node physics untouched
    assert big.network.link_gbs == m.network.link_gbs
    sx8 = get_machine("sx8").scaled(4096)    # multistage: ports double
    assert sx8.network.ports >= sx8.n_nodes(4096)


def test_scaled_within_capacity_keeps_network():
    m = get_machine("xeon")                  # 2592-CPU network capacity
    big = m.scaled(2048)
    assert big.network == m.network
    assert big.max_cpus == 2048
