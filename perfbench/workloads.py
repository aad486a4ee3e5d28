"""The benchmark's workloads: what each pass runs and how it is checked.

Three workloads split the simulator the way the paper splits machines
into HPCC kernels and IMB collectives:

* ``hpcc_flagship`` -- the fig05/table3 flagship ``hpcc`` points on all
  five machines at a small rank cap, serial, no cache, recorders off.
  RandomAccess's tiny eager messages load the engine, scheduler, pt2pt
  and comm layers; executor, cache and recorders stay idle, so this is
  the control for any change to those.
* ``imb_fleet_observed`` -- IMB figures 6-15 through ``run_item`` on the
  two-worker ``subprocess`` fleet, a fresh cache per pass (every point is
  a cache write) and the metrics, commviz, timeline and energy recorders
  on.  The only workload where fleet IPC, cache writes and recorders
  carry real load.
* ``imb_full_scale`` -- a few of the paper's largest-rank IMB points,
  serial, no cache.  Per-event cost grows with rank count, so a
  scheduler or data-structure change that helps small runs can hurt
  here.

The seed only permutes the order in which figures or points are
submitted; every value is compared exactly against a reference, keyed by
``scenario/machine/p<ranks>`` so the order does not matter.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import heapq
import json
import math
import random
import shutil
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import repro.api as api
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
from repro.scenarios import get_scenario
from repro.scenarios.builtin import clear_scenario_caches

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN_DIR = ROOT / "results"
HPCC_REFERENCE = BENCH_DIR / "reference_hpcc.json"

#: :func:`calibration_s` on the host this benchmark was tuned on (2 vCPU,
#: CPython 3.11).  Times are reported in reference seconds: measured
#: seconds scaled by this over the calibration measured next to them.
CALIBRATION_REFERENCE_S = 0.030

#: Two cheap points that start every fleet worker before timing begins.
WARM_UP_POINTS = (("stream_hpl", "xeon", 4), ("stream_hpl", "xeon", 8))


@dataclass(frozen=True)
class Workload:
    """One set of inputs the benchmark runs, pass after pass.

    Either ``figures`` (run through ``run_item`` at ``cap``) or
    ``points``: ``(scenario id, (machine, ranks) or None for every point
    of the scenario's plan at ``cap``)``, each run as one SimPoint.
    """

    name: str
    executor: dict
    cached: bool = False
    observed: bool = False
    cap: int | None = None
    figures: tuple[str, ...] = ()
    points: tuple[tuple[str, tuple[str, int] | None], ...] = ()
    #: "golden" compares with results/figNN.json; "recorded" with the
    #: values this benchmark recorded from the parent tree.
    reference: str = "golden"


INLINE = {"jobs": 1, "backend": "inline"}

WORKLOADS = {
    "hpcc_flagship": Workload(
        "hpcc_flagship", INLINE, cap=8, points=(("fig05", None),),
        reference="recorded"),
    "imb_fleet_observed": Workload(
        "imb_fleet_observed", {"jobs": 2, "backend": "subprocess"},
        cached=True, observed=True, cap=32,
        figures=tuple(f"fig{i:02d}" for i in range(6, 16))),
    # The paper's largest rank counts that each run in about a second;
    # the 14-19 s points (Alltoall xeon 512, Bcast altix_nl4 512) would
    # leave one pass per run and no median.
    "imb_full_scale": Workload(
        "imb_full_scale", INLINE, points=(
            ("fig06", ("altix_nl4", 2024)),
            ("fig07", ("sx8", 576)),
            ("fig08", ("xeon", 512)),
            ("fig12", ("opteron", 126)),
        )),
}


def canonical(value):
    """A result dataclass as plain JSON data (floats round-trip exactly)."""
    return json.loads(json.dumps(dataclasses.asdict(value)))


def point_key(scenario_id: str, machine: str, nprocs) -> str:
    return f"{scenario_id}/{machine}/p{int(nprocs)}"


def plan_points(workload: Workload) -> list[tuple[str, object]]:
    """``(scenario id, SimPoint)`` for every point of a points workload."""
    out = []
    for scenario_id, pick in workload.points:
        plan = get_scenario(scenario_id).plan(workload.cap)
        chosen = [pt for pt in plan
                  if pick is None or (pt.machine, pt.nprocs) == pick]
        if not chosen:
            raise ValueError(f"{scenario_id} has no point {pick} "
                             f"at cap {workload.cap}")
        out.extend((scenario_id, pt) for pt in chosen)
    return out


def _golden(scenario_id: str) -> dict[str, float]:
    doc = json.loads((GOLDEN_DIR / f"{scenario_id}.json").read_text())
    return {point_key(scenario_id, s["machine"], x): y
            for s in doc["series"] for x, y in zip(s["x"], s["y"])}


def expected_values(workload: Workload) -> dict[str, object]:
    """Reference value of every point one pass of ``workload`` yields."""
    if workload.reference == "recorded":
        recorded = json.loads(HPCC_REFERENCE.read_text())
        return {point_key(sid, pt.machine, pt.nprocs):
                recorded[point_key(sid, pt.machine, pt.nprocs)]
                for sid, pt in plan_points(workload)}
    if workload.figures:
        keys = [(fig, pt) for fig in workload.figures
                for pt in get_scenario(fig).plan(workload.cap)]
    else:
        keys = plan_points(workload)
    goldens: dict[str, dict[str, float]] = {}
    out = {}
    for sid, pt in keys:
        if sid not in goldens:
            goldens[sid] = _golden(sid)
        out[point_key(sid, pt.machine, pt.nprocs)] = \
            goldens[sid][point_key(sid, pt.machine, pt.nprocs)]
    return out


def calibration_s() -> float:
    """Seconds this host takes for a fixed pure-Python heap and dict loop.

    Shared hosts run the same code up to twice as slowly for tens of
    seconds at a time.  Timing this loop next to every item gives the
    host's speed at that moment, so that item times can be expressed in
    reference seconds.  The collector is off so that the program's heap
    cannot change the loop's cost.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        heap: list[tuple[float, int]] = []
        sums: dict[int, int] = {}
        for i in range(20000):
            heapq.heappush(heap, ((i * 7919) % 10007 * 0.5, i))
            sums[i & 1023] = sums.get(i & 1023, 0) + i
        while heap:
            heapq.heappop(heap)
        return perf_counter() - t0
    finally:
        if collecting:
            gc.enable()


@contextlib.contextmanager
def recorders(on: bool):
    """The metrics, commviz, timeline and energy recorders, on or off.

    Fresh instances every pass, so nothing accumulates across passes.
    Yields the metrics registry (None when off).
    """
    if not on:
        yield None
        return
    registry = MetricsRegistry(enabled=True)
    with using_metrics(registry), \
            using_commviz(CommRecorder(enabled=True)), \
            using_timeline(TimelineRecorder(enabled=True)), \
            using_energy(EnergyRecorder(enabled=True)):
        yield registry


class CallTimer:
    """Wraps a callable; accumulates its call count and wall seconds."""

    def __init__(self, fn) -> None:
        self.fn = fn
        self.calls = 0
        self.seconds = 0.0

    def __call__(self, *args, **kwargs):
        t0 = perf_counter()
        try:
            return self.fn(*args, **kwargs)
        finally:
            self.seconds += perf_counter() - t0
            self.calls += 1


@dataclass
class PassResult:
    wall_s: float
    #: ``run_item`` / ``run_points`` wall of each figure or point, by id.
    item_walls: dict[str, float]
    registry: MetricsRegistry | None
    #: None when the pass ran without a cache.
    put_timer: CallTimer | None
    cache_bytes: int
    #: Base64 size of the pickled records: what the fleet sends per
    #: point, since a cache entry is the same record pickled the same way.
    record_b64_bytes: int
    #: Host-speed calibration next to each item, by id (see
    #: :func:`calibration_s`): the mean of the runs just before and after
    #: it.  Empty unless the pass was asked to calibrate.
    item_calibration: dict[str, float]


class Runner:
    """Owns one workload's executor, reference values and failure tally."""

    def __init__(self, workload: Workload, scratch: Path, seed: int,
                 expected: dict | None = None) -> None:
        self.workload = workload
        self.scratch = scratch
        self.rng = random.Random(seed)
        self.items = (list(workload.figures) if workload.figures
                      else plan_points(workload))
        self.expected = (expected_values(workload) if expected is None
                         else expected)
        self.fingerprint = (api.ResultCache(scratch).fingerprint
                            if workload.cached else None)
        self.executor = api.SweepExecutor(**workload.executor)
        self.attempted = 0
        self.failed = 0
        self._passes = 0
        warm = [api.SimPoint.make(*p) for p in WARM_UP_POINTS]
        with recorders(workload.observed):
            self.executor.run_points(warm)

    def close(self) -> None:
        self.executor.close()

    @property
    def points_per_pass(self) -> int:
        return len(self.expected)

    def run_pass(self, executor=None, observe: bool | None = None,
                 profile=None, calibrate: bool = False) -> PassResult:
        """One pass over every item in a seeded order, then its check.

        ``observe`` turns the recorders on (default: as the workload);
        ``profile`` is an optional ``cProfile.Profile`` enabled only
        around the timed region; ``calibrate`` times
        :func:`calibration_s` before every item and after the last.
        """
        executor = executor or self.executor
        if observe is None:
            observe = self.workload.observed
        order = list(self.items)
        self.rng.shuffle(order)
        self._passes += 1
        cache_dir = self.scratch / f"cache-{self._passes}"
        put_timer = None
        if self.workload.cached:
            cache = api.ResultCache(cache_dir, fingerprint=self.fingerprint)
            put_timer = cache.put = CallTimer(cache.put)
            executor.cache = cache
        clear_scenario_caches()
        observed: dict[str, object] = {}
        item_walls = {}
        calibration = []
        with recorders(observe) as registry, api.using_executor(executor):
            if profile is not None:
                profile.enable()
            t0 = perf_counter()
            for item in order:
                if calibrate:
                    calibration.append(calibration_s())
                t_item = perf_counter()
                try:
                    observed.update(self._run_item(item, executor))
                except Exception:
                    # Counted below as a failure of every point the item
                    # should have produced.
                    traceback.print_exc(file=sys.stderr)
                item_walls[self._item_id(item)] = perf_counter() - t_item
            if calibrate:
                calibration.append(calibration_s())
            wall = perf_counter() - t0
            if profile is not None:
                profile.disable()
        self._check(observed)
        sizes = [f.stat().st_size for f in cache_dir.rglob("*.pkl")]
        shutil.rmtree(cache_dir, ignore_errors=True)
        item_calibration = {
            item_id: (before + after) / 2 for item_id, before, after
            in zip(item_walls, calibration, calibration[1:])}
        return PassResult(wall, item_walls, registry, put_timer, sum(sizes),
                          sum(4 * math.ceil(n / 3) for n in sizes),
                          item_calibration)

    @staticmethod
    def _item_id(item) -> str:
        if isinstance(item, str):
            return item
        scenario_id, pt = item
        return point_key(scenario_id, pt.machine, pt.nprocs)

    def _run_item(self, item, executor) -> dict[str, object]:
        if isinstance(item, str):
            fig = api.run_item(item, max_cpus=self.workload.cap)
            return {point_key(item, s.machine, x): y
                    for s in fig.series for x, y in zip(s.x, s.y)}
        scenario_id, pt = item
        value = executor.run_points([pt])[0]
        if self.workload.reference == "recorded":
            value = canonical(value)
        else:
            value = getattr(value, get_scenario(scenario_id).field)
        return {point_key(scenario_id, pt.machine, pt.nprocs): value}

    def _check(self, observed: dict[str, object]) -> None:
        missing = object()
        self.attempted += len(self.expected)
        self.failed += sum(observed.get(key, missing) != want
                           for key, want in self.expected.items())
