"""Point computation: the function that runs inside worker processes.

:func:`compute_point` maps a :class:`~repro.exec.points.SimPoint` to its
result.  It is a pure function of the point plus the source tree, run
inline or in a fleet worker (:mod:`repro.exec.fleet`), and it only
imports model layers (machine / hpcc / imb) — never the harness — to
keep the import graph acyclic.

Each computation is timed and annotated with the number of simulation
events the engine executed, so the executor can report events/sec without
re-running anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

from ..core.engine import EVENT_STATS
from ..obs.context import RECORDERS, current, using
from ..hpcc import RingConfig, hpl_model_time, run_hpcc, run_ring, run_stream
from ..hpcc.suite import scaled_config
from ..imb.framework import PAPER_MSG_BYTES
from ..imb.suite import run_benchmark
from ..machine import get_machine
from .points import SimPoint


@dataclass(frozen=True)
class PointRecord:
    """A computed point: the value plus execution metadata.

    ``wall_s`` and ``events`` describe the original computation; they are
    stored in the cache with the value so cached runs can still report a
    meaningful perf trajectory.  ``obs`` maps the name of every
    per-point recorder that was enabled at computation time (see
    :data:`repro.obs.context.RECORDERS`) to its snapshot of this point;
    the executor merges them into the ambient recorders in input order —
    fresh points only for the metrics registry, every point for the
    ``replay_cached`` recorders (a cache hit replays the same traffic,
    occupancy and joules the original simulation produced).
    """

    value: Any
    wall_s: float
    events: int
    obs: dict[str, dict] = field(default_factory=dict)


def point_machine(point: SimPoint):
    """Resolve a point's machine, including user-defined projections.

    Scenario files may declare machines that exist only in their TOML
    (``machine_base``/``machine_cpus``/``machine_label`` params): the
    projection recipe rides on the point itself, so any worker process
    can rebuild the machine and the params salt the cache key — two
    different projections never share cache entries.
    """
    base = point.param("machine_base")
    if base is None:
        return get_machine(point.machine)
    from dataclasses import replace

    m = get_machine(base).scaled(int(point.param("machine_cpus")),
                                 name=point.machine)
    label = point.param("machine_label")
    if label is not None:
        m = replace(m, label=str(label))
    return m


def _fault_setup(point: SimPoint):
    """Build the ``fabric_setup`` hook for a fault-injection point.

    Returns None for healthy points so they keep the exact legacy
    code path (including the IMB macro fast-path, which a degraded
    fabric must bypass).
    """
    kind = point.param("fault")
    if kind is None:
        return None
    from ..machine import faults

    if kind == "slow_node":
        node = int(point.param("fault_node", 0))
        factor = float(point.param("fault_factor"))
        return lambda fabric: faults.slow_node(fabric, node=node,
                                               factor=factor)
    if kind == "degrade_core":
        level = int(point.param("fault_level", 0))
        factor = float(point.param("fault_factor"))
        return lambda fabric: faults.degrade_core(fabric, level=level,
                                                  factor=factor)
    if kind == "add_latency":
        extra_s = float(point.param("fault_extra_us")) * 1e-6
        return lambda fabric: faults.add_latency(fabric, extra_s)
    raise ValueError(f"unknown fault kind {kind!r}")


def _ring_hpl(point: SimPoint) -> tuple[float, float]:
    """(HPL TFlop/s, accumulated random-ring GB/s) at one rank count."""
    m = point_machine(point)
    p = point.nprocs
    hpl = hpl_model_time(m, p).tflops
    ring = run_ring(m, p, RingConfig(n_rings=point.param("n_rings", 4)))
    return (hpl, ring.accumulated_gbs)


def _stream_hpl(point: SimPoint) -> tuple[float, float]:
    """(HPL TFlop/s, accumulated EP-STREAM Copy GB/s) at one rank count."""
    m = point_machine(point)
    p = point.nprocs
    hpl = hpl_model_time(m, p).tflops
    stream = run_stream(m, min(p, 8))  # embarrassingly parallel
    return (hpl, stream.copy_gbs * p)


def _hpcc(point: SimPoint):
    """Full HPCC suite at one configuration -> HPCCResult."""
    m = point_machine(point)
    return run_hpcc(m, point.nprocs, scaled_config(point.nprocs))


def _imb(point: SimPoint):
    """One IMB benchmark measurement -> IMBResult."""
    m = point_machine(point)
    return run_benchmark(
        m,
        point.param("benchmark"),
        point.nprocs,
        msg_bytes=point.param("msg_bytes", PAPER_MSG_BYTES),
        fabric_setup=_fault_setup(point),
    )


def _app(point: SimPoint):
    """One mini-app run (repro.apps) -> CG/Spectral/AMR result."""
    from ..apps import run_amr, run_cg, run_spectral

    runners = {"cg": run_cg, "spectral": run_spectral, "amr": run_amr}
    app = point.param("app")
    try:
        fn = runners[app]
    except KeyError:
        raise ValueError(f"unknown app {app!r} "
                         f"(known: {', '.join(runners)})") from None
    return fn(point_machine(point), point.nprocs)


def _hpcc_verify(point: SimPoint):
    """HPCC numeric verification battery -> VerificationReport."""
    from ..hpcc.verification import run_verification

    return run_verification(point_machine(point), nprocs=point.nprocs)


_COMPUTE = {
    "ring_hpl": _ring_hpl,
    "stream_hpl": _stream_hpl,
    "hpcc": _hpcc,
    "imb": _imb,
    "app": _app,
    "hpcc_verify": _hpcc_verify,
}


def point_phase(point: SimPoint) -> str:
    """Phase of one point's per-point recorders.

    ``imb`` points carry the benchmark name (``imb:xeon:Alltoall``) so
    every IMB figure reads back as its own traffic pattern; everything
    else is ``kind:machine``.
    """
    bench = point.param("benchmark")
    base = f"{point.kind}:{point.machine}"
    return f"{base}:{bench}" if bench else base


def compute_point(point: SimPoint) -> PointRecord:
    """Compute one simulation point; safe to call in any process.

    Every enabled ambient recorder gets a fresh child for the point,
    routed to :func:`point_phase`, and the children's snapshots travel
    back in the record — per-point isolation is what makes the parallel
    fan-in merge equal to a serial run, and lets cached points carry
    their original observations.
    """
    try:
        fn = _COMPUTE[point.kind]
    except KeyError:
        raise ValueError(f"unknown simulation point kind {point.kind!r}") from None
    phase = point_phase(point)
    children = [rec.child(phase) for rec in map(current, RECORDERS)
                if rec.enabled]
    # Telemetry traces the *host-side* act of computing — the span rides
    # on the ambient recorder (or, in a fleet worker, travels back in
    # the protocol reply), never on the record: records are pickled into
    # the content-addressed cache and per-run trace ids there would
    # break traced==untraced byte-identity.
    tel = current("telemetry")
    tspan = tel.begin("point.compute", "point",
                      point=point.key(), kind=point.kind,
                      machine=point.machine, nprocs=point.nprocs) \
        if tel.enabled else None
    ev0 = EVENT_STATS["processed"]
    t0 = perf_counter()
    try:
        with using(*children):
            value = fn(point)
    except BaseException:
        tel.end(tspan, status="error")
        raise
    wall = perf_counter() - t0
    tel.end(tspan)
    return PointRecord(value=value, wall_s=wall,
                       events=EVENT_STATS["processed"] - ev0,
                       obs={c.name: c.snapshot() for c in children})
