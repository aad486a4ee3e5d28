"""Observation bytes pinned across code changes.

The serial/parallel/cached identity batteries compare runs of the *same*
tree with each other; they cannot notice a change that shifts what the
recorders report.  This test compares the recorders-on snapshots of three
simulation points -- metrics (minus the host-wall ``exec.point_wall_s``),
timeline, commviz and energy -- byte for byte against a golden committed
under ``tests/data/``:

* ``hpcc`` fig05 flagship on opteron at 8 ranks: tiny eager messages;
* ``imb`` fig12 Alltoall on xeon at 32 ranks: 1 MiB rendezvous traffic on
  full-duplex InfiniBand;
* ``imb`` fig14 Exchange on opteron at 16 ranks: ``duplex_factor`` 1.0,
  so the ``nicbus`` resource kind is reserved and observed.

Regenerate (only from a tree whose observations are known to be right)::

    PYTHONPATH=src python tests/test_observation_golden.py
"""

from __future__ import annotations

import contextlib
import json
from pathlib import Path

import pytest

from repro.exec import SimPoint, compute_point
from repro.obs import (
    CommRecorder,
    EnergyRecorder,
    MetricsRegistry,
    TimelineRecorder,
    using_commviz,
    using_energy,
    using_metrics,
    using_timeline,
)

GOLDEN = Path(__file__).resolve().parent / "data" / "observation_golden.json"

#: ``(label, point)``: one eager, one rendezvous and one nicbus point.
POINTS = (
    ("fig05-hpcc-opteron-p8", SimPoint.make("hpcc", "opteron", 8)),
    ("fig12-alltoall-xeon-p32",
     SimPoint.make("imb", "xeon", 32, benchmark="Alltoall",
                   msg_bytes=1 << 20)),
    ("fig14-exchange-opteron-p16",
     SimPoint.make("imb", "opteron", 16, benchmark="Exchange",
                   msg_bytes=1 << 20)),
)


def observe(point: SimPoint) -> dict:
    """Recorders-on snapshots of one point, host-wall data removed."""
    with contextlib.ExitStack() as stack:
        stack.enter_context(using_metrics(MetricsRegistry()))
        stack.enter_context(using_commviz(CommRecorder()))
        stack.enter_context(using_timeline(TimelineRecorder()))
        stack.enter_context(using_energy(EnergyRecorder()))
        rec = compute_point(point)
    metrics = dict(rec.metrics)
    metrics["histograms"] = {k: v for k, v in metrics["histograms"].items()
                             if k != "exec.point_wall_s"}
    return {"metrics": metrics, "timeline": rec.timeline, "comm": rec.comm,
            "energy": rec.energy}


def dump(doc: object) -> str:
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("label,point", POINTS, ids=[p[0] for p in POINTS])
def test_observation_bytes_match_golden(label, point):
    want = _golden()[label]
    got = observe(point)
    assert dump(got) == dump(want)


def test_golden_exercises_every_resource_kind():
    kinds = set()
    for doc in _golden().values():
        for phase in doc["timeline"]["phases"].values():
            kinds.update(phase)
    assert {"egress", "ingress", "core", "shm", "nicbus"} <= kinds


if __name__ == "__main__":
    GOLDEN.write_text(dump({label: observe(pt) for label, pt in POINTS}))
