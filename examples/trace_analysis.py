#!/usr/bin/env python
"""Post-mortem performance analysis of a simulated run.

Runs a 1 MB alltoall on the Dell Xeon cluster with tracing on, prints
the utilisation report (NIC busy fractions, communication matrix,
intra-node share) and exports a Chrome-trace JSON you can open in
chrome://tracing or Perfetto.

Also demonstrates the LogGP fitting loop: measure the simulator the way
you would a real machine and recover the catalog's 841 MB/s InfiniBand
anchor from the outside.

Run:  python examples/trace_analysis.py
"""

from pathlib import Path

import numpy as np

from repro import Cluster, get_machine
from repro.analysis import fit_report, format_report, utilization_report
from repro.obs import write_chrome_trace

MB = 1024 * 1024


def workload(comm):
    """A small app phase: compute, exchange, reduce."""
    yield from comm.compute(flops=5e7, nbytes=1e7, kernel="dgemm")
    yield from comm.alltoall(nbytes=MB // 4)
    yield from comm.allreduce(nbytes=8 * 1024)


def main() -> None:
    machine = get_machine("xeon")
    cluster = Cluster(machine, 16, trace=True)
    cluster.run(workload)

    report = utilization_report(cluster)
    print(f"Workload on {machine.label}, 16 CPUs\n")
    print(format_report(report))

    hot = np.unravel_index(np.argmax(report.comm_matrix),
                           report.comm_matrix.shape)
    print(f"hottest pair:       rank {hot[0]} -> rank {hot[1]} "
          f"({report.comm_matrix[hot] / 1e6:.2f} MB)")

    out_dir = Path("traces")   # gitignored: generated artifacts stay out of git
    out_dir.mkdir(exist_ok=True)
    path = write_chrome_trace(cluster, out_dir / "trace_xeon_alltoall.json")
    print(f"\nChrome trace written to {path} "
          "(open in chrome://tracing or ui.perfetto.dev)")

    print("\n" + fit_report(machine))


if __name__ == "__main__":
    main()
