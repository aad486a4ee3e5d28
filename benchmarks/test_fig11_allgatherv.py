"""Figure 11: IMB Allgatherv at 1 MB vs CPU count.

Paper shape: "the performance results are similar to the results of the
(symmetric) Allgather"; the vector variant's bookkeeping adds no real
cost; NEC is almost an order of magnitude better than the X1; the SX-8
curve changes regime between 8 and 16 CPUs (single node -> multi node).
"""

import pytest

from repro.api import run_figure
from benchmarks.conftest import BENCH_MAX_CPUS, series_map


@pytest.fixture(scope="module")
def figs():
    return (run_figure("fig10", max_cpus=BENCH_MAX_CPUS),
            run_figure("fig11", max_cpus=BENCH_MAX_CPUS))


def test_fig11_allgatherv_shapes(benchmark, figs):
    f10, f11 = figs
    benchmark.pedantic(lambda: run_figure("fig11", max_cpus=8),
                       rounds=1, iterations=1)
    d10, d11 = series_map(f10), series_map(f11)

    # Allgatherv tracks Allgather point-for-point on every machine
    for machine in d11:
        xs10, ys10 = d10[machine]
        xs11, ys11 = d11[machine]
        assert xs10 == xs11
        for a, v in zip(ys10, ys11):
            assert v == pytest.approx(a, rel=0.15), machine

    def at(machine, p):
        xs, ys = d11[machine]
        return ys[xs.index(float(p))]

    # NEC ~ order of magnitude better than the X1
    assert at("x1_msp", 8) > 5 * at("sx8", 8)

    # SX-8 regime change when leaving the single 8-CPU node: the per-CPU
    # growth from 8->16 far exceeds the in-node growth from 4->8
    g_in = at("sx8", 8) / at("sx8", 4)
    g_out = at("sx8", 16) / at("sx8", 8)
    assert g_out > 1.5 * g_in
