"""Figures 3-4: accumulated EP-STREAM Copy vs HPL, absolute and Byte/Flop.

Anchors (paper section 4.1.1): SX-8 consistently above 2.67 Byte/Flop,
Altix above 0.36, Opteron between 0.84 and 1.07; ratios improve slightly
with CPU count because HPL efficiency decreases.
"""

import pytest

from repro.api import run_figure
from repro.scenarios import run_items
from benchmarks.conftest import HPCC_MAX_CPUS


@pytest.fixture(scope="module")
def figures():
    # Both views of one STREAM sweep: its points run once.
    return tuple(run_items(["fig03", "fig04"], max_cpus=HPCC_MAX_CPUS))


def test_fig03_accumulated_stream(benchmark, figures):
    f3, _ = figures
    benchmark.pedantic(lambda: run_figure("fig03", max_cpus=16),
                       rounds=1, iterations=1)
    # linear growth: doubling CPUs doubles accumulated bandwidth
    for s in f3.series:
        assert s.y[1] == pytest.approx(2 * s.y[0], rel=0.05)
    # absolute: SX-8's memory subsystem dwarfs everything (vector DDR-SDRAM
    # banks vs commodity buses)
    sx8 = f3.by_machine("sx8")
    xeon = f3.by_machine("xeon")
    assert sx8.y[0] / 4 > 10 * xeon.y[0] / 4


def test_fig04_byte_per_flop_anchors(benchmark, figures):
    _, f4 = figures
    benchmark.pedantic(lambda: run_figure("fig04", max_cpus=16),
                       rounds=1, iterations=1)

    sx8 = f4.by_machine("sx8").y
    assert all(v > 2.67 for v in sx8)          # paper: "consistently above"

    altix = f4.by_machine("altix_nl4").y
    assert all(v > 0.34 for v in altix)        # paper: "above 0.36"

    opteron = f4.by_machine("opteron").y
    assert all(0.8 < v < 1.25 for v in opteron)  # paper: 0.84..1.07

    # the Xeon cluster has the weakest memory balance of the five
    xeon = f4.by_machine("xeon").y
    assert max(xeon) < min(opteron)

    # vector/scalar separation is roughly an order of magnitude
    assert min(sx8) > 5 * max(altix)
