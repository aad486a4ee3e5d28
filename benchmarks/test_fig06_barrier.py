"""Figure 6: IMB Barrier time vs CPU count.

Paper shape: every platform's barrier time grows with CPU count; for
fewer than 16 processors the SGI Altix BX2 is the fastest; the Cray X1
in MSP mode grows only slowly; the NEC SX-8 has the best time at the
largest CPU counts it can field next to the commodity clusters.
"""

import pytest

from repro.api import run_figure
from benchmarks.conftest import BENCH_MAX_CPUS, series_map


@pytest.fixture(scope="module")
def fig():
    return run_figure("fig06", max_cpus=BENCH_MAX_CPUS)


def test_fig06_barrier_shapes(benchmark, fig):
    benchmark.pedantic(lambda: run_figure("fig06", max_cpus=8),
                       rounds=1, iterations=1)
    data = series_map(fig)

    # monotone growth with CPU count on every machine
    for machine, (xs, ys) in data.items():
        assert ys[-1] > ys[0], machine

    def at(machine, p):
        xs, ys = data[machine]
        usable = [i for i, x in enumerate(xs) if x <= p]
        return ys[usable[-1]]  # nearest measured count <= p

    # Altix fastest below 16 CPUs
    for p in (2, 4, 8):
        rivals = [at(m, p) for m in ("sx8", "xeon", "opteron")]
        assert at("altix_nl4", p) < min(rivals), p

    # X1 MSP mode grows notably more slowly than the commodity clusters
    def growth(machine):
        xs, ys = data[machine]
        return ys[-1] / ys[0]

    assert growth("x1_msp") < 0.5 * min(growth("xeon"), growth("opteron"))

    # at the largest common count the SX-8 has the best time of the
    # non-Altix systems ("NEC SX-8 has the best barrier time" at scale)
    top = min(BENCH_MAX_CPUS, 64)
    rivals = [at(m, top) for m in ("xeon", "opteron", "x1_ssp")]
    assert at("sx8", top) < min(rivals)
