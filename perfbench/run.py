"""Benchmark of the repro simulator, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload hpcc_flagship --seed 1 --seconds 25
    python3 perfbench/run.py --workload imb_fleet_observed --trace 1
    python3 perfbench/run.py --workload all      # every workload, untraced
    python3 perfbench/run.py --record            # rewrite reference + signature

Untraced (``--trace 0``) runs passes of the workload for ``--seconds``
and reports the end-to-end metrics; ``--trace 1`` runs a fixed set of
passes, one of them under ``cProfile``, and reports the per-layer
metrics.  Every point value is checked exactly in both modes.  The last
line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).

The program is driven only through ``repro.api``, the ambient recorders
of ``repro.obs`` and the scenario registry; nothing under ``src/``
is changed or written, apart from Python's bytecode cache.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SIGNATURE = BENCH_DIR / "signature.json"
#: Per-run scratch space (cache directories); removed when the run ends.
SCRATCH_ROOT = ROOT / ".perfbench_run"

WORKLOAD_NAMES = ("hpcc_flagship", "imb_fleet_observed", "imb_full_scale")

#: Timed set-up probes per run (after one untimed probe that warms the
#: bytecode cache); set-up is reported as their median.
SETUP_PROBES = 7
MIN_PASSES = 3

END_TO_END_UNITS = {
    "wall_s": "s",
    "points_per_s": "1/s",
    "sim_msgs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "engine.events": "count",
    "engine.events_per_msg": "ratio",
    "engine.self_s": "s",
    "sched.pushes": "count",
    "sched.batches": "count",
    "sched.events_per_batch": "ratio",
    "sched.self_s": "s",
    "pt2pt.messages": "count",
    "pt2pt.bytes": "B",
    "pt2pt.self_s": "s",
    "comm.self_s": "s",
    "collectives.self_s": "s",
    "resources.reservations": "count",
    "resources.self_s": "s",
    "netmodel.timings": "count",
    "netmodel.self_s": "s",
    "hpcc.self_s": "s",
    "imb.self_s": "s",
    "obs.self_s": "s",
    "other.self_s": "s",
    "obs.on_off_ratio": "ratio",
    "point.wall_p50_ms": "ms",
    "point.wall_tail_ms": "ms",
    "exec.parallel_efficiency": "ratio",
    "exec.requeued": "count",
    "fleet.record_bytes": "B",
    "fleet.requests": "count",
    "fleet.crashes": "count",
    "cache.puts": "count",
    "cache.put_s": "s",
    "cache.bytes_written": "B",
    "scenarios.assemble_s": "s",
    "setup.import_s": "s",
    "setup.fingerprint_s": "s",
    "setup.fleet_spawn_s": "s",
    "trace.overhead_ratio": "ratio",
    "fail_ratio": "ratio",
    "signature.drift": "count",
}

#: Deterministic per-pass counts recorded in signature.json.
SIGNATURE_KEYS = ("points", "engine.events", "pt2pt.messages",
                  "sched.pushes")


def prepare_environment() -> None:
    """Point imports at this checkout's ``src`` and drop ambient config."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: {SRC / 'repro'} not found; run from "
                         "the root of a full checkout")
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, str(SRC))


def measure_setup(executor: dict, scratch: Path) -> dict[str, float]:
    """Median of each set-up phase over ``SETUP_PROBES`` fresh processes.

    ``total_s`` is in reference seconds, calibrated around each probe
    like the items of a pass; the single phases are as measured.
    """
    from workloads import CALIBRATION_REFERENCE_S, calibration_s

    samples = []
    calibration = calibration_s()
    for i in range(SETUP_PROBES + 1):
        before = calibration
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"),
             executor["backend"], str(executor["jobs"]), str(scratch)],
            cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"perfbench: set-up probe failed "
                             f"(exit {proc.returncode})")
        calibration = calibration_s()
        if i:
            sample = json.loads(proc.stdout.splitlines()[-1])
            sample["total_s"] *= (CALIBRATION_REFERENCE_S
                                  / ((before + calibration) / 2))
            samples.append(sample)
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live children."""
    def hwm_kb(status: str) -> int:
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
        return 0

    total = hwm_kb(Path("/proc/self/status").read_text())
    parent = f"\nPPid:\t{os.getpid()}\n"
    for path in Path("/proc").glob("[0-9]*/status"):
        try:
            status = path.read_text()
        except OSError:  # the process ended while we looked
            continue
        if parent in status:
            total += hwm_kb(status)
    return total / 1024.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def untraced_metrics(runner, setup: dict, seconds: float,
                     signature: dict) -> dict[str, float]:
    """End-to-end metrics from passes repeated for ``seconds``.

    ``wall_s`` sums, over the figures or points of a pass, each one's
    median wall in reference seconds (see ``CALIBRATION_REFERENCE_S``).
    """
    from workloads import CALIBRATION_REFERENCE_S

    passes = []
    t0 = perf_counter()
    while len(passes) < MIN_PASSES or perf_counter() - t0 < seconds:
        passes.append(runner.run_pass(calibrate=True))
    wall = CALIBRATION_REFERENCE_S * sum(
        statistics.median(p.item_walls[item] / p.item_calibration[item]
                          for p in passes)
        for item in passes[0].item_walls)
    calibration = statistics.median(
        c for p in passes for c in p.item_calibration.values())
    print(f"# {len(passes)} passes; measured wall per pass (s): "
          + " ".join(f"{p.wall_s:.4f}" for p in passes)
          + f"; median calibration_s: {calibration:.5f}")
    return {
        "wall_s": wall,
        "points_per_s": runner.points_per_pass / wall,
        "sim_msgs_per_s": signature.get("pt2pt.messages", 0) / wall,
        "setup_s": setup["total_s"],
        "peak_rss_mb": peak_rss_mb(),
    }


def layer_passes(runner):
    """The workload's points inline: recorders on, then under cProfile.

    The recorders-on pass counts events, messages and bytes in the
    metrics registry.  The profiled pass keeps the workload's own
    recorders, so where they are off its ``obs.self_s`` is their
    off-path cost.  Returns both passes, the folded profile and the
    signature counts.
    """
    from layers import fold_profile
    from workloads import INLINE, api

    inline = api.SweepExecutor(**INLINE)
    on = runner.run_pass(inline, observe=True)
    profile = cProfile.Profile()
    profiled = runner.run_pass(inline, profile=profile)
    folded = fold_profile(profile, SRC / "repro")
    counts = {
        "points": runner.points_per_pass,
        "engine.events": int(on.registry.value("engine.events")),
        "pt2pt.messages": int(on.registry.value("mpi.messages.intra")
                              + on.registry.value("mpi.messages.inter")),
        "sched.pushes": folded["sched.pushes"],
    }
    return on, profiled, folded, counts


def traced_metrics(runner, setup: dict, signature: dict) -> dict[str, float]:
    from layers import percentile, tail
    from workloads import INLINE, CallTimer, api

    ex = runner.executor
    # The workload's own pass, timed from outside: executor, fleet,
    # cache and scenario-assembly numbers (fleet workers are beyond the
    # reach of this process's profiler).
    stats0, health0 = ex.stats(), ex.backend_health() or {}
    log0 = len(ex.point_log)
    run_points = ex.run_points = CallTimer(ex.run_points)
    try:
        own = runner.run_pass()
    finally:
        del ex.run_points
    stats1, health1 = ex.stats(), ex.backend_health() or {}
    point_walls = [e["wall_s"] for e in ex.point_log[log0:]
                   if e["provenance"] == "computed"]
    tail_q, tail_s = tail(point_walls)
    print(f"# point.wall_tail_ms is p{tail_q:g} of {len(point_walls)} "
          "point walls")

    off = runner.run_pass(api.SweepExecutor(**INLINE), observe=False)
    on, profiled, folded, counts = layer_passes(runner)
    untraced = on if runner.workload.observed else off

    drift = [k for k in SIGNATURE_KEYS if counts[k] != signature.get(k)]
    for k in drift:
        print(f"# signature drift (information): {k} "
              f"{signature.get(k)} -> {counts[k]}")
    reg = on.registry
    put = own.put_timer
    metrics = {
        "engine.events": counts["engine.events"],
        "engine.events_per_msg": ratio(counts["engine.events"],
                                       counts["pt2pt.messages"]),
        "sched.events_per_batch": ratio(counts["engine.events"],
                                        folded["sched.batches"]),
        "pt2pt.messages": counts["pt2pt.messages"],
        "pt2pt.bytes": int(reg.value("mpi.bytes.intra")
                           + reg.value("mpi.bytes.inter")),
        **folded,
        "obs.on_off_ratio": ratio(on.wall_s, off.wall_s),
        "point.wall_p50_ms": 1e3 * percentile(sorted(point_walls), 50)[0],
        "point.wall_tail_ms": 1e3 * tail_s,
        "exec.parallel_efficiency": ratio(
            sum(point_walls),
            ex.jobs * (stats1["compute_wall_s"] - stats0["compute_wall_s"])),
        "exec.requeued": stats1["requeued"] - stats0["requeued"],
        "fleet.record_bytes": own.record_b64_bytes,
        "fleet.requests": (health1.get("requests", 0)
                           - health0.get("requests", 0)),
        "fleet.crashes": (health1.get("crashes", 0)
                          - health0.get("crashes", 0)),
        "cache.puts": put.calls if put else 0,
        "cache.put_s": put.seconds if put else 0.0,
        "cache.bytes_written": own.cache_bytes,
        "scenarios.assemble_s": (sum(own.item_walls.values())
                                 - run_points.seconds
                                 if runner.workload.figures else 0.0),
        "setup.import_s": setup["import_s"],
        "setup.fingerprint_s": setup["fingerprint_s"],
        "setup.fleet_spawn_s": setup["fleet_spawn_s"],
        "trace.overhead_ratio": ratio(profiled.wall_s, untraced.wall_s),
        "fail_ratio": ratio(runner.failed, runner.attempted),
        "signature.drift": len(drift),
    }
    return {k: metrics[k] for k in PER_LAYER_UNITS}


@contextlib.contextmanager
def scratch_dir():
    path = SCRATCH_ROOT / str(os.getpid())
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run still uses it
            SCRATCH_ROOT.rmdir()


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload, print its metrics, return the result object."""
    import workloads

    name = workload.name
    with scratch_dir() as scratch:
        setup = measure_setup(workload.executor, scratch)
        signature = json.loads(SIGNATURE.read_text()).get(name, {})
        runner = workloads.Runner(workload, scratch, seed)
        try:
            if trace:
                metrics = traced_metrics(runner, setup, signature)
            else:
                metrics = untraced_metrics(runner, setup, seconds, signature)
        finally:
            runner.close()
    units = {**END_TO_END_UNITS, **PER_LAYER_UNITS}
    printed = {"fail_ratio": ratio(runner.failed, runner.attempted),
               **metrics}
    for metric, value in printed.items():
        print(f"{name} {metric} {value:.6g} {units[metric]}")
    print(f"# {runner.failed} of {runner.attempted} point values failed "
          "their check")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in its own process; metrics prefixed by workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write("".join(proc.stdout.splitlines(True)[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: workload {name} failed "
                             f"(exit {proc.returncode})")
        result = json.loads(proc.stdout.splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{name}/{k}": v for k, v in result["metrics"].items()})
    return combined


def record() -> None:
    """Rewrite reference_hpcc.json and signature.json from this tree."""
    prepare_environment()
    import workloads

    api = workloads.api
    hpcc = workloads.WORKLOADS["hpcc_flagship"]
    inline = api.SweepExecutor(**workloads.INLINE)
    reference = {
        workloads.point_key(sid, pt.machine, pt.nprocs):
            workloads.canonical(inline.run_points([pt])[0])
        for sid, pt in workloads.plan_points(hpcc)}
    workloads.HPCC_REFERENCE.write_text(
        json.dumps(reference, indent=1, sort_keys=True) + "\n")
    signature = {}
    with scratch_dir() as scratch:
        for name in WORKLOAD_NAMES:
            runner = workloads.Runner(workloads.WORKLOADS[name], scratch, 0)
            try:
                signature[name] = layer_passes(runner)[3]
            finally:
                runner.close()
            if runner.failed:
                raise SystemExit(f"perfbench: {name} fails its check")
    SIGNATURE.write_text(json.dumps(signature, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite the hpcc reference values and the "
                             "workload signature from this tree, then exit")
    args = parser.parse_args(argv)
    if args.record:
        record()
        return 0
    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        prepare_environment()
        import workloads

        result = run_workload(workloads.WORKLOADS[args.workload], args.seed,
                              args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
