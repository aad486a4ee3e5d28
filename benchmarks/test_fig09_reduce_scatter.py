"""Figure 9: IMB Reduce_scatter at 1 MB vs CPU count.

Paper shape: like Reduce, but the X1's advantage over the scalar systems
is much smaller; the NEC SX-8 slows at large CPU counts yet stays best;
the scalar systems are an order of magnitude behind the SX-8.
"""

import pytest

from repro.api import run_figure
from benchmarks.conftest import BENCH_MAX_CPUS, series_map


@pytest.fixture(scope="module")
def figs():
    return (run_figure("fig08", max_cpus=BENCH_MAX_CPUS),
            run_figure("fig09", max_cpus=BENCH_MAX_CPUS))


def test_fig09_reduce_scatter_shapes(benchmark, figs):
    f8, f9 = figs
    benchmark.pedantic(lambda: run_figure("fig09", max_cpus=8),
                       rounds=1, iterations=1)
    d8, d9 = series_map(f8), series_map(f9)

    def at(d, machine, p):
        xs, ys = d[machine]
        return ys[xs.index(float(p))]

    p = 8
    # SX-8 best; scalars an order of magnitude slower
    assert at(d9, "sx8", p) < at(d9, "x1_msp", p)
    for m in ("altix_nl4", "xeon", "opteron"):
        assert at(d9, m, p) > 8 * at(d9, "sx8", p), m

    # "the performance advantage of Cray X1 compared to the scalar
    # systems is significantly worse": the X1's lead is a small multiple
    # while the SX-8 keeps an order of magnitude
    x1_lead = (min(at(d9, m, p) for m in ("altix_nl4", "xeon"))
               / at(d9, "x1_msp", p))
    sx8_lead = (min(at(d9, m, p) for m in ("altix_nl4", "xeon"))
                / at(d9, "sx8", p))
    assert x1_lead < 0.5 * sx8_lead

    # SX-8 time grows toward its largest counts but stays in front
    xs, ys = d9["sx8"]
    assert ys[-1] > ys[0]
    top = min(BENCH_MAX_CPUS, 64)
    assert at(d9, "sx8", top) < at(d9, "xeon", top)
