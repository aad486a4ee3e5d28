"""Extended experiments beyond the paper's figures.

Implements the measurement campaigns the paper announces as future work
(§5.2):

* :func:`message_size_sweep` — one IMB benchmark as a function of
  message size, 1 B to 2 MB (the paper only plots 1 MB);
* :func:`size_sweep_figure` — the sweep across all five systems, in the
  same :class:`~repro.harness.results.FigureResult` form the regular
  harness uses (so rendering/CSV export work unchanged);
* :func:`onesided_comparison` — IMB-EXT Unidir_Put/Unidir_Get next to
  the two-sided PingPong, per machine;
* :func:`sequel_study` — the announced five extra architectures
  (Blue Gene/P, Cray XT4, Cray X1E, POWER5+, GigE cluster; projections,
  see :mod:`repro.machine.future`) on the paper's headline metrics.
"""

from __future__ import annotations

from collections.abc import Sequence

from ..hpcc import RingConfig, run_ring
from ..hpcc.hpl import hpl_model_time
from ..imb.framework import imb_message_sizes
from ..imb.suite import run_benchmark
from ..machine import MachineSpec, get_machine
from ..machine.future import FUTURE_MACHINES
from ..scenarios.builtin import IMB_MACHINES
from .results import FigureResult, FigureSeries

#: Future-work sweep upper bound: "from 1 byte to 2 MB" (§5.2).
SWEEP_MAX_BYTES = 2 * 1024 * 1024


def sweep_sizes(max_bytes: int = SWEEP_MAX_BYTES) -> list[int]:
    """1, 2, 4, ... 2 MiB (IMB schedule without the zero-size probe)."""
    return [s for s in imb_message_sizes(max_bytes) if s > 0]


def message_size_sweep(
    machine: MachineSpec,
    benchmark: str,
    nprocs: int,
    sizes: Sequence[int] | None = None,
) -> list[tuple[int, float, float | None]]:
    """Run one benchmark over a size ladder.

    Returns ``[(msg_bytes, time_us, bandwidth_mbs | None), ...]``.
    """
    sizes = list(sizes) if sizes is not None else sweep_sizes()
    out = []
    for nbytes in sizes:
        res = run_benchmark(machine, benchmark, nprocs, nbytes)
        out.append((nbytes, res.time_us, res.bandwidth_mbs))
    return out


def size_sweep_figure(
    benchmark: str,
    nprocs: int = 16,
    machines: tuple[str, ...] = IMB_MACHINES,
    sizes: Sequence[int] | None = None,
    field: str = "time_us",
) -> FigureResult:
    """The future-work plot: benchmark vs message size, all machines."""
    series = []
    for name in machines:
        m = get_machine(name)
        if nprocs > m.max_cpus:
            continue
        pts = message_size_sweep(m, benchmark, nprocs, sizes)
        idx = 1 if field == "time_us" else 2
        xs = tuple(float(p[0]) for p in pts)
        ys = tuple(float(p[idx]) for p in pts if p[idx] is not None)
        series.append(FigureSeries(machine=name, label=m.label,
                                   x=xs[:len(ys)], y=ys))
    return FigureResult(
        fig_id=f"sweep_{benchmark.lower()}",
        title=f"IMB {benchmark} vs message size at {nprocs} CPUs "
              "(paper future work)",
        xlabel="message size (bytes)",
        ylabel="time (us/call)" if field == "time_us" else "bandwidth (MB/s)",
        series=tuple(series),
    )


def onesided_comparison(nprocs: int = 4,
                        msg_bytes: int = 1024 * 1024) -> dict[str, dict]:
    """GET/PUT vs two-sided transfer times per machine (§5.2 plan)."""
    out = {}
    for name in ("sx8", "altix_nl4", "xeon", "opteron"):
        m = get_machine(name)
        out[name] = {
            "PingPong": run_benchmark(m, "PingPong", nprocs, msg_bytes).time_us,
            "Unidir_Put": run_benchmark(m, "Unidir_Put", nprocs,
                                        msg_bytes).time_us,
            "Unidir_Get": run_benchmark(m, "Unidir_Get", nprocs,
                                        msg_bytes).time_us,
        }
    return out


def sequel_study(nprocs: int = 64) -> list[dict]:
    """The five announced extra systems on the paper's balance metrics."""
    rows = []
    for m in FUTURE_MACHINES:
        p = min(nprocs, m.max_cpus)
        hpl = hpl_model_time(m, p)
        ring = run_ring(m, p, RingConfig(n_rings=3))
        rows.append({
            "machine": m.name,
            "label": m.label,
            "cpus": p,
            "hpl_gflops": hpl.gflops,
            "hpl_efficiency": hpl.efficiency,
            "ring_bw_gbs": ring.bandwidth_gbs,
            "ring_latency_us": ring.latency_us,
            # per-CPU ring bytes/s over per-CPU HPL kflop/s
            "b_per_kflop": (ring.bandwidth_gbs * 1e9)
            / (hpl.gflops / p * 1e6),
        })
    return rows
