"""Tables 1 and 2: static configuration tables (exact content checks)."""

from repro.api import run_table
from repro.harness import render_table


def test_table1_architecture_parameters(benchmark):
    t = benchmark.pedantic(run_table, args=("table1",), rounds=1,
                           iterations=1)
    rows = dict(t.rows)
    # Exact values from the paper's Table 1.
    assert rows == {
        "Clock (GHz)": 1.6,
        "C-Bricks": 64,
        "IX-Bricks": 4,
        "Routers": 128,
        "Meta Routers": 48,
        "CPUs": 512,
        "L3-cache (MB)": 9,
        "Memory (Tb)": 1,
        "R-bricks": 48,
    }


def test_table2_system_characteristics(benchmark):
    t = benchmark.pedantic(run_table, args=("table2",), rounds=1,
                           iterations=1)
    by_name = {r[0]: r for r in t.rows}
    # (type, cpus/node, clock, peak/node, network, topology)
    expectations = {
        "SGI Altix BX2 (NUMALINK4)":
            ("Scalar", 2, 1.6, 12.8, "NUMALINK4", "Fat-tree"),
        "Cray X1 (MSP)":
            ("Vector", 4, 0.8, 51.2, "Cray X1 network", "4D-hypercube"),
        "Cray Opteron Cluster":
            ("Scalar", 2, 2.0, 8.0, "Myrinet (PCI-X)", "Flat-tree"),
        "Dell Xeon Cluster":
            ("Scalar", 2, 3.6, 14.4, "InfiniBand", "Flat-tree"),
        "NEC SX-8":
            ("Vector", 8, 2.0, 128.0, "IXS", "Multi-stage Crossbar"),
    }
    for name, (typ, cpn, clock, peak, net, topo) in expectations.items():
        row = by_name[name]
        assert row[1] == typ and row[2] == cpn
        assert row[3] == clock and row[4] == peak
        assert row[5] == net and row[6] == topo
    assert "NEC SX-8" in render_table(t)
