"""Figure 12: IMB Alltoall at 1 MB vs CPU count — the paper's network
stress test and the clearest machine separation:

    NEC SX-8 (IXS) > Cray X1 > SGI Altix BX2 (NUMALINK4)
        > Dell Xeon (InfiniBand) > Cray Opteron (Myrinet),

with the Altix ahead of the X1 up to 8 processors (8 CPUs share a
C-brick), and the Xeon and Opteron nearly identical up to 8 processors
before Myrinet falls behind.
"""

import pytest

from repro.api import run_figure
from benchmarks.conftest import BENCH_MAX_CPUS, series_map


@pytest.fixture(scope="module")
def fig():
    return run_figure("fig12", max_cpus=BENCH_MAX_CPUS)


def test_fig12_alltoall_shapes(benchmark, fig):
    benchmark.pedantic(lambda: run_figure("fig12", max_cpus=8),
                       rounds=1, iterations=1)
    data = series_map(fig)

    def at(machine, p):
        xs, ys = data[machine]
        return ys[xs.index(float(p))]

    # headline ordering at the largest size every platform can field
    p = 8
    assert (at("sx8", p) < at("x1_msp", p) < at("altix_nl4", p)
            < at("xeon", p) < at("opteron", p))

    # (Deviation noted in EXPERIMENTS.md: the paper has the Altix ahead
    # of the X1 below 8 CPUs; this model's X1 flat shared memory keeps it
    # ahead at those sizes.)

    # Xeon ~ Opteron up to 8 CPUs, then InfiniBand pulls ahead
    for q in (2, 4, 8):
        assert at("xeon", q) == pytest.approx(at("opteron", q), rel=1.0), q
    top = min(BENCH_MAX_CPUS, 64)
    assert at("xeon", top) < 0.7 * at("opteron", top)

    # growth is superlinear in CPU count (total volume ~ P^2)
    xs, ys = data["xeon"]
    assert ys[-1] / ys[0] > (xs[-1] / xs[0])
