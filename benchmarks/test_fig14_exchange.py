"""Figure 14: IMB Exchange bandwidth at 1 MB vs CPU count.

Paper shape reproduced: NEC SX-8 wins; the Opteron cluster is lowest
(its PCI-X bus is half-duplex, and Exchange is the most bidirectional
pattern); the Xeon curve is almost flat from small to large CPU counts.

Known deviation (EXPERIMENTS.md): the paper places the Xeon cluster
*second*, ahead of the Altix and X1; this model keeps the Altix/X1 ahead
of the Xeon — the IB-specific effect behind the paper's measurement is
not captured by the fabric parameters.
"""

import pytest

from repro.api import run_figure
from benchmarks.conftest import BENCH_MAX_CPUS, series_map


@pytest.fixture(scope="module")
def figs():
    return (run_figure("fig13", max_cpus=BENCH_MAX_CPUS),
            run_figure("fig14", max_cpus=BENCH_MAX_CPUS))


def test_fig14_exchange_shapes(benchmark, figs):
    f13, f14 = figs
    benchmark.pedantic(lambda: run_figure("fig14", max_cpus=8),
                       rounds=1, iterations=1)
    d13, d14 = series_map(f13), series_map(f14)

    def at(d, machine, p):
        xs, ys = d[machine]
        return ys[xs.index(float(p))]

    p = 16
    # NEC the winner; Opteron the loser
    others = [at(d14, m, p) for m in ("altix_nl4", "xeon", "opteron")]
    assert at(d14, "sx8", p) > max(others)
    assert min(others) == at(d14, "opteron", p)

    # the Xeon curve is almost constant across its whole range
    xs, ys = d14["xeon"]
    assert max(ys[1:]) < 2.5 * min(ys[1:])

    # the half-duplex Myrinet NIC loses *relative* ground going from
    # Sendrecv to the fully bidirectional Exchange, vs full-duplex IB
    xeon_ratio = at(d14, "xeon", p) / at(d13, "xeon", p)
    opt_ratio = at(d14, "opteron", p) / at(d13, "opteron", p)
    assert xeon_ratio > opt_ratio
