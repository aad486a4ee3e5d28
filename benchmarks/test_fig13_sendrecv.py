"""Figure 13: IMB Sendrecv bandwidth at 1 MB vs CPU count.

Paper shape: NEC SX-8 clearly best, SGI Altix BX2 second; Xeon and
Opteron in the same tier; every system peaks at 2 processors (shared
memory) and flattens beyond ~16; anchors: 47.4 GB/s for an SX-8 pair,
7.6 GB/s for an X1 SSP pair.
"""

import pytest

from repro.api import run_figure
from benchmarks.conftest import BENCH_MAX_CPUS, series_map


@pytest.fixture(scope="module")
def fig():
    return run_figure("fig13", max_cpus=BENCH_MAX_CPUS)


def test_fig13_sendrecv_shapes(benchmark, fig):
    benchmark.pedantic(lambda: run_figure("fig13", max_cpus=8),
                       rounds=1, iterations=1)
    data = series_map(fig)

    def at(machine, p):
        xs, ys = data[machine]
        return ys[xs.index(float(p))]

    # anchors at 2 processors (both intra-node)
    assert at("sx8", 2) / 1024 == pytest.approx(47.4, rel=0.15)
    assert at("x1_ssp", 2) / 1024 == pytest.approx(7.6, rel=0.15)

    # 2-CPU shared memory is every system's best point
    for machine, (xs, ys) in data.items():
        assert ys[0] >= 0.99 * max(ys), machine

    # steady-state ordering: NEC > Altix > {Xeon ~ Opteron}
    p = 16
    assert at("sx8", p) > at("altix_nl4", p)
    assert at("altix_nl4", p) > max(at("xeon", p), at("opteron", p))
    assert 0.2 < at("xeon", p) / at("opteron", p) < 5.0

    # beyond 16 CPUs the curves are flat ("becomes almost constant")
    for machine in ("xeon", "opteron", "altix_nl4"):
        xs, ys = data[machine]
        tail = [y for x, y in zip(xs, ys) if x >= 16]
        if len(tail) >= 2:
            assert max(tail) < 2.0 * min(tail), machine
