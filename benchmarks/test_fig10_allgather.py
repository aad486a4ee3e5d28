"""Figure 10: IMB Allgather at 1 MB vs CPU count.

Paper shape: NEC SX-8 much better than everything; Cray X1 (both modes)
slightly better than the scalar systems; NEC an order of magnitude ahead
of the X1; Altix and Xeon almost the same, ahead of the Opteron cluster.
"""

import pytest

from repro.api import run_figure
from benchmarks.conftest import BENCH_MAX_CPUS, series_map


@pytest.fixture(scope="module")
def fig():
    return run_figure("fig10", max_cpus=BENCH_MAX_CPUS)


def test_fig10_allgather_shapes(benchmark, fig):
    benchmark.pedantic(lambda: run_figure("fig10", max_cpus=8),
                       rounds=1, iterations=1)
    data = series_map(fig)

    def at(machine, p):
        xs, ys = data[machine]
        return ys[xs.index(float(p))]

    p = 8
    # NEC dominates: order of magnitude over the X1
    assert at("x1_msp", p) > 5 * at("sx8", p)
    # X1 better than the scalar systems
    scalars = [at(m, p) for m in ("altix_nl4", "xeon", "opteron")]
    assert at("x1_msp", p) < min(scalars)
    # Altix ~ Xeon tier; Opteron behind
    altix, xeon, opteron = scalars
    assert 1 / 4 < altix / xeon < 4
    assert opteron > max(altix, xeon)
