"""Figure 5 + Table 3: the HPL-normalised comparison of all benchmarks.

Shape checks against the paper's Table 3 and §4.1.2 commentary:
the Opteron leads EP-DGEMM/HPL (low HPL efficiency), the SX-8 leads the
memory/network-heavy global ratios (PTRANS, FFTE, STREAM), the Altix
leads ring latency, and each column's normalised winner scores 1.0.
"""

import pytest

from repro.analysis.ratios import best_machine
from repro.api import run_table
from repro.scenarios import get_scenario
from benchmarks.conftest import BENCH_MAX_CPUS

# Fig 5 needs the flagship configurations to be meaningful; cap only if
# the user explicitly restricts very hard.
CAP = None if BENCH_MAX_CPUS >= 64 else BENCH_MAX_CPUS


@pytest.fixture(scope="module")
def kiviat():
    return get_scenario("fig05").run_with_data(CAP)


def test_fig05_normalised_columns(benchmark, kiviat):
    fig, data = kiviat
    benchmark.pedantic(lambda: run_table("table3", max_cpus=CAP),
                       rounds=1, iterations=1)

    # every column's best system is exactly 1.0 after normalisation
    for col in data.columns:
        vals = [row[col] for row in data.normalised.values()
                if row[col] is not None]
        assert max(vals) == pytest.approx(1.0)
        assert all(0 < v <= 1.0 + 1e-12 for v in vals)

    # column winners, as the paper narrates them
    assert best_machine(data, "G-HPL") == "sx8"
    assert best_machine(data, "G-EP DGEMM/G-HPL") == "opteron"
    assert best_machine(data, "G-StreamCopy/G-HPL") == "sx8"
    assert best_machine(data, "G-Ptrans/G-HPL") == "sx8"
    assert best_machine(data, "G-FFTE/G-HPL") == "sx8"
    # ring latency: an Altix configuration leads (paper: NUMALINK)
    assert best_machine(data, "1/RandRingLatency").startswith("altix")


def test_table3_maxima_vs_paper(benchmark, kiviat):
    _, data = kiviat
    benchmark.pedantic(lambda: data, rounds=1, iterations=1)
    m = data.maxima
    paper = {
        "G-HPL": 8.729,
        "G-EP DGEMM/G-HPL": 1.925,
        "G-FFTE/G-HPL": 0.020,
        "G-Ptrans/G-HPL": 0.039,
        "G-StreamCopy/G-HPL": 2.893,
        "RandRingBW/PP-HPL": 0.094,
        "1/RandRingLatency": 0.197,
        "G-RandomAccess/G-HPL": 4.9e-5,
    }
    # shape reproduction: every maximum within ~2x of the paper's value
    for col, target in paper.items():
        assert target / 2.1 < m[col] < target * 2.1, (col, m[col], target)
    # two tight anchors: G-HPL and the SX-8 stream balance
    assert m["G-HPL"] == pytest.approx(8.729, rel=0.02)
    assert m["G-StreamCopy/G-HPL"] == pytest.approx(2.893, rel=0.1)


def test_fig05_vector_machines_weak_at_randomaccess(benchmark, kiviat):
    _, data = kiviat
    benchmark.pedantic(lambda: data, rounds=1, iterations=1)
    ra = {m: row["G-RandomAccess/G-HPL"]
          for m, row in data.normalised.items()
          if row["G-RandomAccess/G-HPL"] is not None}
    # the SX-8 sits at the bottom of the RandomAccess column (paper 4.1.2)
    assert ra["sx8"] == min(ra.values())
