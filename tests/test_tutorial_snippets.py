"""The tutorial's code snippets must actually work as written."""

import dataclasses

import numpy as np
import pytest

from repro import Cluster, SUM, get_machine
from repro.analysis import fit_report, format_report, utilization_report
from repro.hpcc import run_hpcc
from repro.imb import run_benchmark
from repro.machine.faults import slow_node
from repro.obs import write_chrome_trace


def dot_product(comm, n):
    rng = comm.cluster.rng(comm.rank)
    a, b = rng.random(n), rng.random(n)
    yield from comm.compute(flops=2 * n, nbytes=16 * n, kernel="stream_add")
    partial = np.array([float(a @ b)])
    total = yield from comm.allreduce(partial, op=SUM)
    return float(total[0])


def test_section1_run_program():
    cluster = Cluster(get_machine("sx8"), nprocs=32)
    result = cluster.run(dot_product, 10_000)
    assert result.elapsed_us > 0
    # all ranks agree on the reduced value
    assert len(set(result.results)) == 1


def test_section2_measure():
    r = run_benchmark(get_machine("altix_nl4"), "Alltoall", 8, 1 << 16)
    assert r.time_us > 0
    suite = run_hpcc(get_machine("opteron"), 8)
    assert suite.ring_bw_b_per_kflop > 0


def test_section3_trace(tmp_path):
    cluster = Cluster(get_machine("xeon"), 8, trace=True)
    cluster.run(dot_product, 10_000)
    text = format_report(utilization_report(cluster))
    assert "messages:" in text
    path = write_chrome_trace(cluster, tmp_path / "run.json")
    assert path.exists()


def test_section4_custom_machine():
    opteron = get_machine("opteron")
    ib = dataclasses.replace(get_machine("xeon").network, name="IB (what-if)")
    hybrid = dataclasses.replace(opteron, name="opteron_ib", network=ib)
    assert "inter-node" in fit_report(hybrid)


def test_section5_fault_injection():
    opteron = get_machine("opteron")

    def barrier_bench(comm):
        yield from comm.barrier()
        t0 = comm.now
        yield from comm.allreduce(nbytes=1 << 20)
        return comm.now - t0

    clean = max(Cluster(opteron, 16).run(barrier_bench).results)
    hurt = max(Cluster(opteron, 16).run(
        barrier_bench,
        fabric_setup=lambda f: slow_node(f, node=7, factor=8.0)).results)
    assert hurt > clean


def test_section7_read_a_run_report(tmp_path):
    from repro.harness import read_report_doc
    from repro.harness.runner import main as runner_main

    report = tmp_path / "run.html"
    rc = runner_main(["--figure", "6", "--max-cpus", "4", "--no-cache",
                      "--report", str(report),
                      "--bench-json", str(tmp_path / "bench.json"),
                      "--no-ledger"])
    assert rc == 0
    doc = read_report_doc(report)
    # the access pattern the tutorial shows
    for machine, run in doc["observed"]["fig06"].items():
        assert run["critical_path"]["dominant"], machine
