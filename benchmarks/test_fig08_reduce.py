"""Figure 8: IMB Reduce at 1 MB vs CPU count.

Paper shape: two clear-cut clusters by architecture — the vector systems
(NEC SX-8, Cray X1) an order of magnitude better than the cache-based
scalar systems; NEC better than X1; Altix and Xeon close to each other
and both ahead of the Opteron cluster.
"""

import pytest

from repro.api import run_figure
from benchmarks.conftest import BENCH_MAX_CPUS, series_map


@pytest.fixture(scope="module")
def fig():
    return run_figure("fig08", max_cpus=BENCH_MAX_CPUS)


def test_fig08_reduce_shapes(benchmark, fig):
    benchmark.pedantic(lambda: run_figure("fig08", max_cpus=8),
                       rounds=1, iterations=1)
    data = series_map(fig)

    def at(machine, p):
        xs, ys = data[machine]
        return ys[xs.index(float(p))]

    p = 8
    # vector/scalar clustering, order of magnitude for the SX-8
    fastest_scalar = min(at(m, p) for m in ("altix_nl4", "xeon", "opteron"))
    assert fastest_scalar > 10 * at("sx8", p)
    assert fastest_scalar > 2.5 * at("x1_msp", p)
    # NEC better than X1
    assert at("sx8", p) < at("x1_msp", p)
    # Altix and Xeon in the same tier (within ~3x), both ahead of Opteron
    altix, xeon, opteron = (at(m, p) for m in
                            ("altix_nl4", "xeon", "opteron"))
    assert 1 / 3 < altix / xeon < 3
    assert opteron > max(altix, xeon)
