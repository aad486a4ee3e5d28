"""Figure 7: IMB Allreduce at 1 MB vs CPU count.

Paper shape: both vector systems clearly win, NEC SX-8 ahead of the
Cray X1; the Cray Opteron Cluster (Myrinet) is worst; all platforms'
times grow with CPU count; more than an order of magnitude separates the
fastest and slowest platforms.
"""

import pytest

from repro.api import run_figure
from benchmarks.conftest import BENCH_MAX_CPUS, series_map


@pytest.fixture(scope="module")
def fig():
    return run_figure("fig07", max_cpus=BENCH_MAX_CPUS)


def test_fig07_allreduce_shapes(benchmark, fig):
    benchmark.pedantic(lambda: run_figure("fig07", max_cpus=8),
                       rounds=1, iterations=1)
    data = series_map(fig)

    def at(machine, p):
        xs, ys = data[machine]
        return ys[xs.index(float(p))]

    p = 8  # common to every platform including the 12-MSP X1
    scalars = [at(m, p) for m in ("altix_nl4", "xeon", "opteron")]
    # vector systems are clearly the winners
    assert at("sx8", p) < min(scalars)
    assert at("x1_msp", p) < min(scalars)
    # NEC superior to the X1 in both modes
    assert at("sx8", p) < at("x1_msp", p)
    assert at("sx8", p) < at("x1_ssp", p)
    # worst: the Opteron/Myrinet cluster
    assert max(scalars) == at("opteron", p)
    # "more than one order of magnitude" fastest to slowest
    assert at("opteron", p) > 10 * at("sx8", p)

    # all machines grow with CPU count
    for machine, (xs, ys) in data.items():
        assert ys[-1] > ys[0], machine
