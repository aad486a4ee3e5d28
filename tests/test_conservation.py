"""Conservation across recorders: two observers of one quantity agree.

Every bandwidth reservation feeds both the ``net.<kind>.*`` metrics and
the kind's timeline series.  Over every point of an observed IMB figure
and every resource kind, the busy seconds, bytes and reservation counts
the two report must be exactly equal -- not approximately: both sum the
same values in the same order.

Every message a run sends lands once in the transport's traffic tally,
which feeds both the commviz matrix and the ``mpi.*`` counters; the
tracer is an independent observer of the same messages, so each
matrix cell and both locality totals must equal what it counted.
"""

from __future__ import annotations

import pytest

from repro.exec import compute_point
from repro.harness.observe import _observe_cluster
from repro.obs import CommRecorder, MetricsRegistry, TimelineRecorder, using
from repro.scenarios import get_scenario
from repro.scenarios.builtin import IMB_MACHINES


def _observe(point):
    with using(MetricsRegistry(), TimelineRecorder()):
        return compute_point(point)


@pytest.mark.parametrize("figure", ["fig12", "fig14"])
def test_metrics_and_timeline_conserve_busy_bytes_and_count(figure):
    checked = 0
    for point in get_scenario(figure).plan(max_cpus=32):
        rec = _observe(point)
        counters = rec.obs["metrics"]["counters"]
        waits = rec.obs["metrics"]["histograms"]
        (phase,) = rec.obs["timeline"]["phases"].values()
        kinds = {name.split(".")[1] for name in counters
                 if name.startswith("net.")}
        assert kinds == set(phase), point
        for kind, series in phase.items():
            where = (point.key(), kind)
            assert counters[f"net.{kind}.busy_s"] == series["busy_s"], where
            assert counters[f"net.{kind}.bytes"] == series["bytes"], where
            assert (waits[f"net.{kind}.queue_wait"]["count"]
                    == series["count"]), where
            checked += 1
    assert checked >= 4 * 29  # at least egress/ingress/core/shm per point


@pytest.mark.parametrize("figure", ["fig12", "fig14"])
def test_commviz_and_mpi_counters_match_the_tracer(figure):
    for machine in IMB_MACHINES:
        registry, comm = MetricsRegistry(), CommRecorder()
        with using(registry, comm):
            cluster = _observe_cluster(figure, machine, 16)
        pm = comm.matrix(f"{figure}:{machine}")
        traced = {}
        totals = {"intra": [0, 0], "inter": [0, 0]}
        for m in cluster.tracer.messages:
            cell = traced.setdefault((m.src, m.dst), [0, 0])
            cell[0] += 1
            cell[1] += m.nbytes
            total = totals["intra" if m.intra_node else "inter"]
            total[0] += 1
            total[1] += m.nbytes
        assert traced, machine
        assert pm.cells == traced, machine
        flat = registry.flat()
        for side, (msgs, nbytes) in totals.items():
            assert flat[f"mpi.messages.{side}"] == msgs, (machine, side)
            assert flat[f"mpi.bytes.{side}"] == nbytes, (machine, side)
            assert getattr(pm, f"{side}_msgs") == msgs, (machine, side)
            assert getattr(pm, f"{side}_bytes") == nbytes, (machine, side)
