"""Representative traced runs: Chrome traces + critical-path summaries.

The sweep executor computes figure points in worker processes without
tracing (tracing every point would swamp the sweep).  When the harness
runs with ``--metrics`` / ``--trace-dir``, this module re-runs one
*representative* scenario per (figure, machine) with tracing enabled:

* IMB figures (6-15) replay their own benchmark program;
* the HPCC balance figures (1-5) and tables replay the random-ring
  bandwidth pattern, the paper's own probe of network balance.

Each traced run yields an :class:`ObservedRun` — the
:class:`~repro.obs.critical_path.CriticalPathReport` naming the dominant
resource, a per-rank straggler profile, and the traced traffic totals —
and (with ``--trace-dir``) a Chrome ``traceEvents`` JSON viewable in
Perfetto.  When commviz/timeline recorders are installed (``--report``),
the traced replay runs under the ``"<fig>:<machine>"`` phase, so the
dashboard can show each figure's traffic matrix and utilisation
timeline next to its verdict.  The replays are diagnostics, not part of
the sweep: they run with energy accounting scoped off, so asking for a
report never changes the run's energy-to-solution.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..hpcc.ring import RingConfig, ring_program
from ..imb.framework import PAPER_MSG_BYTES, get_benchmark
from ..imb import suite as _imb_suite  # noqa: F401 - benchmark registration
from ..machine import get_machine
from ..mpi.cluster import Cluster
from ..obs.context import current, using
from ..obs.critical_path import CriticalPathReport, critical_path_report
from ..obs.energy import EnergyRecorder
from ..obs.exporters import write_chrome_trace
from ..obs.timeline import straggler_profile
from ..scenarios.builtin import HPCC_SWEEP_MACHINES, IMB_FIGURES, IMB_MACHINES

#: Rank count for representative traced runs — large enough to exercise
#: inter-node contention on every catalogued machine, small enough that
#: tracing P runs per figure stays a sub-second add-on.
OBSERVE_RANKS = 16


@dataclass(frozen=True)
class ObservedRun:
    """One traced representative run, fully digested."""

    report: CriticalPathReport
    straggler: dict       # see repro.obs.timeline.straggler_profile
    traffic: dict         # message_count / total_bytes / inter_node_bytes

    def to_dict(self) -> dict:
        return {
            "critical_path": self.report.to_dict(),
            "straggler": self.straggler,
            "traffic": self.traffic,
        }


def _observe_cluster(fig_id: str, machine_name: str,
                     max_cpus: int | None) -> Cluster:
    """Run the figure's representative program traced; return the cluster.

    The run executes under the ``"<fig>:<machine>"`` commviz/timeline
    phase when those recorders are installed, so its traffic and busy
    intervals land in a phase the dashboard can name; its joules are
    not charged to the ambient energy recorder.
    """
    machine = get_machine(machine_name)
    cap = machine.max_cpus if max_cpus is None else min(max_cpus,
                                                       machine.max_cpus)
    nprocs = max(2, min(OBSERVE_RANKS, cap))
    tag = f"{fig_id}:{machine_name}"
    with current("comm").phase(tag), current("timeline").phase(tag), \
            using(EnergyRecorder(enabled=False)):
        if fig_id in IMB_FIGURES:
            bench_name, _fld, _ylabel = IMB_FIGURES[fig_id]
            bench = get_benchmark(bench_name)
            nprocs = max(nprocs, bench.min_procs)
            msg_bytes = 0 if bench_name == "Barrier" else PAPER_MSG_BYTES
            cluster = Cluster(machine, nprocs, trace=True)
            cluster.run(bench.program, msg_bytes, 1)
        else:
            cluster = Cluster(machine, nprocs, trace=True)
            cluster.run(ring_program, RingConfig(n_rings=1))
    return cluster


def _machines_for(fig_id: str) -> tuple[str, ...]:
    return IMB_MACHINES if fig_id in IMB_FIGURES else HPCC_SWEEP_MACHINES


def observe_figure(
    fig_id: str,
    max_cpus: int | None = None,
    trace_dir: str | Path | None = None,
) -> dict[str, ObservedRun]:
    """Per-machine observed runs (and traces) for one figure."""
    runs: dict[str, ObservedRun] = {}
    for name in _machines_for(fig_id):
        cluster = _observe_cluster(fig_id, name, max_cpus)
        tracer = cluster.tracer
        runs[name] = ObservedRun(
            report=critical_path_report(cluster),
            straggler=straggler_profile(tracer, cluster.nprocs),
            traffic={
                "message_count": tracer.message_count,
                "total_bytes": tracer.total_bytes,
                "inter_node_bytes": tracer.inter_node_bytes,
            },
        )
        if trace_dir is not None:
            out = Path(trace_dir)
            out.mkdir(parents=True, exist_ok=True)
            write_chrome_trace(cluster, out / f"{fig_id}_{name}.json")
    return runs


def observe_figures(
    fig_ids: list[str],
    max_cpus: int | None = None,
    trace_dir: str | Path | None = None,
) -> dict[str, dict[str, ObservedRun]]:
    """``{fig_id: {machine: observed_run}}`` for every requested figure."""
    return {
        fig_id: observe_figure(fig_id, max_cpus=max_cpus,
                               trace_dir=trace_dir)
        for fig_id in fig_ids
    }
