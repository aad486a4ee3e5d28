"""Conservation across recorders: two observers of one quantity agree.

Every bandwidth reservation feeds both the ``net.<kind>.*`` metrics and
the kind's timeline series.  Over every point of an observed IMB figure
and every resource kind, the busy seconds, bytes and reservation counts
the two report must be exactly equal -- not approximately: both sum the
same values in the same order.
"""

from __future__ import annotations

import pytest

from repro.exec import compute_point
from repro.obs import MetricsRegistry, TimelineRecorder, using
from repro.scenarios import get_scenario


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
