"""Memory contract of the engine: runs make no reference cycles.

:meth:`repro.core.engine.Engine.run` pauses CPython's cyclic garbage
collector while it dispatches.  That is free only while reference
counting alone frees everything a simulation builds, so every test in
the first half runs a simulation with the collector off and asserts
that a collection afterwards finds nothing.  A change that adds a
reference cycle per message fails here instead of growing the heap
inside a long run.  The second half checks that the collector's state
comes back on every exit from ``run``, across threads too.
"""

from __future__ import annotations

import contextlib
import gc
import threading
from collections import Counter

import numpy as np
import pytest

from repro.core import engine as engine_mod
from repro.core.engine import Engine
from repro.core.errors import DeadlockError, SimulationError
from repro.exec.worker import compute_point
from repro.imb.suite import run_benchmark
from repro.machine import get_machine
from repro.mpi.cluster import Cluster
from repro.mpi.onesided import win_create
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
from repro.scenarios import get_scenario, scenario_ids

CAP = 8


@contextlib.contextmanager
def recorders(on: bool):
    """The four per-point recorders, fresh and enabled, or none."""
    if not on:
        yield
        return
    with using_metrics(MetricsRegistry(enabled=True)), \
            using_commviz(CommRecorder(enabled=True)), \
            using_timeline(TimelineRecorder(enabled=True)), \
            using_energy(EnergyRecorder(enabled=True)):
        yield


def cycles_left_by(run) -> Counter:
    """Types of the objects a collection finds after ``run()``.

    ``run`` is called once first with the collector on, so that lazy
    imports and lookup caches are filled before the measured call.
    """
    run()
    gc.collect()
    gc.garbage.clear()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run()
        gc.collect()
        return Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()


def one_point_per_scenario():
    """The largest point at ``CAP`` ranks of every registered scenario."""
    points: dict = {}
    for sid in scenario_ids():
        plan = get_scenario(sid).plan(CAP)
        if plan:
            point = max(plan, key=lambda p: (p.nprocs, p.machine))
            points.setdefault(point, sid)
    return [pytest.param(point, id=sid) for point, sid in points.items()]


POINTS = one_point_per_scenario()


def test_points_cover_every_kind_the_registry_plans():
    kinds = {p.values[0].kind for p in POINTS}
    planned = {pt.kind for sid in scenario_ids()
               for pt in get_scenario(sid).plan(CAP)}
    assert kinds == planned
    assert {"ring_hpl", "stream_hpl", "hpcc", "imb", "app"} <= kinds
    benchmarks = {p.values[0].param("benchmark") for p in POINTS}
    assert len(benchmarks - {None}) == 10
    assert any(p.values[0].param("fault") for p in POINTS)


@pytest.mark.parametrize("observed", [False, True], ids=["off", "on"])
@pytest.mark.parametrize("point", POINTS)
def test_point_makes_no_reference_cycles(point, observed):
    events = []

    def run():
        with recorders(observed):
            events.append(compute_point(point).events)

    assert cycles_left_by(run) == Counter()
    assert events[-1] > 0


def test_traced_run_makes_no_reference_cycles():
    machine = get_machine("xeon")

    def prog(comm):
        total = yield from comm.allreduce(float(comm.rank))
        yield from comm.alltoall(list(range(comm.size)), 1024)
        return total

    def run():
        cluster = Cluster(machine, CAP, trace=True)
        assert cluster.run(prog).results == [28.0] * CAP
        assert cluster.tracer.messages

    assert cycles_left_by(run) == Counter()


def test_one_sided_run_makes_no_reference_cycles():
    machine = get_machine("opteron")

    def prog(comm):
        win = yield from win_create(comm, CAP)
        win.put((comm.rank + 1) % comm.size, np.array([float(comm.rank)]),
                offset=comm.rank)
        yield from win.fence()
        data = yield win.get((comm.rank + 1) % comm.size, 1,
                             offset=comm.rank)
        yield from win.fence()
        return float(data[0])

    def run():
        out = Cluster(machine, CAP).run(prog)
        assert out.results == [float(r) for r in range(CAP)]

    assert cycles_left_by(run) == Counter()


# -- the collector pause ---------------------------------------------------


@pytest.fixture
def collector():
    """Restore the collector's state whatever a test leaves behind."""
    was = gc.isenabled()
    try:
        yield
    finally:
        (gc.enable if was else gc.disable)()
        assert engine_mod._runs_in_progress == 0


def _sleeper(eng, seen):
    def prog():
        seen.append(gc.isenabled())
        yield 1.0
        seen.append(gc.isenabled())
        yield 1.0
    eng.spawn(prog())


def _normal(eng, seen):
    _sleeper(eng, seen)
    assert eng.run() == 2.0


def _until(eng, seen):
    _sleeper(eng, seen)
    assert eng.run(until=1.5) == 1.5


def _deadlock(eng, seen):
    def prog():
        seen.append(gc.isenabled())
        yield eng.event("never")
    eng.spawn(prog())
    with pytest.raises(DeadlockError):
        eng.run()


def _callback_raises(eng, seen):
    def boom():
        seen.append(gc.isenabled())
        raise ValueError("boom")
    eng.schedule(1.0, boom)
    with pytest.raises(ValueError, match="boom"):
        eng.run()


def _process_raises(eng, seen):
    def prog():
        seen.append(gc.isenabled())
        yield 1.0
        raise ValueError("boom")
    eng.spawn(prog())
    with pytest.raises(ValueError, match="boom"):
        eng.run()


def _reentrant(eng, seen):
    def prog():
        with pytest.raises(SimulationError, match="reentrant"):
            eng.run()
        seen.append(gc.isenabled())
        yield 1.0
        seen.append(gc.isenabled())
    eng.spawn(prog())
    eng.run()


EXITS = [_normal, _until, _deadlock, _callback_raises, _process_raises,
         _reentrant]


@pytest.mark.parametrize("exit_path", EXITS,
                         ids=[f.__name__.strip("_") for f in EXITS])
@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
def test_run_restores_the_collector(collector, exit_path, enabled):
    (gc.enable if enabled else gc.disable)()
    seen: list[bool] = []
    exit_path(Engine(), seen)
    assert seen and not any(seen), "the collector ran during dispatch"
    assert gc.isenabled() is enabled
    assert engine_mod._runs_in_progress == 0


def test_rejected_until_leaves_the_collector_alone(collector):
    gc.enable()
    eng = Engine()
    eng.schedule(2.0, lambda: None)
    eng.run(until=1.0)
    with pytest.raises(SimulationError):
        eng.run(until=0.5)
    assert gc.isenabled()
    assert engine_mod._runs_in_progress == 0


def test_nested_engines_restore_when_the_outer_ends(collector):
    gc.enable()
    seen: list[bool] = []
    inner = Engine()
    _sleeper(inner, seen)
    outer = Engine()

    def run_inner():
        inner.run()
        seen.append(gc.isenabled())

    outer.schedule(1.0, run_inner)
    outer.run()
    assert seen == [False, False, False]
    assert gc.isenabled()


def test_overlapping_runs_in_threads_restore_after_the_last(collector):
    # A starts, B starts, A ends, B ends: the collector stays paused
    # until B ends, then comes back as A found it.
    gc.enable()
    a_running, b_running, a_done = (threading.Event() for _ in range(3))
    seen: dict[str, bool] = {}

    def run_a():
        eng = Engine()
        eng.schedule(1.0, lambda: (a_running.set(), b_running.wait(10)))
        eng.run()
        seen["after a"] = gc.isenabled()
        a_done.set()

    def run_b():
        a_running.wait(10)
        eng = Engine()
        eng.schedule(1.0, lambda: (b_running.set(), a_done.wait(10)))
        eng.run()

    threads = [threading.Thread(target=f) for f in (run_a, run_b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30)
    assert a_done.is_set() and b_running.is_set()
    assert seen == {"after a": False}
    assert gc.isenabled()


def test_clusters_in_two_threads_match_serial_runs(collector):
    gc.enable()
    jobs = [("xeon", "Alltoall", 16), ("altix_nl4", "Barrier", 32)]

    def measure(job):
        machine, bench, p = job
        return run_benchmark(get_machine(machine), bench, p, msg_bytes=1024)

    serial = [measure(job) for job in jobs]
    start = threading.Barrier(len(jobs))
    threaded: dict[int, object] = {}

    def worker(i):
        start.wait(10)
        for _ in range(3):
            threaded[i] = measure(jobs[i])

    threads = [threading.Thread(target=worker, args=(i,))
               for i in range(len(jobs))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60)
    assert [threaded[i] for i in range(len(jobs))] == serial
    assert gc.isenabled()
