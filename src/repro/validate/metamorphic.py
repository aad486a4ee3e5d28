"""Metamorphic invariants: properties no calibration change may break.

The golden gate pins *values*; these checkers pin *structure* — claims
that hold at any sweep scale, so they stay enforceable even when a
capped run leaves Fig 5 / Table 3 uncovered:

* Fig 5 normalisation: every ratio-normalised column lies in (0, 1]
  with exactly one 1.0 (the machine that defines the column maximum).
* Balance sweeps: HPL rises with CPU count, accumulated EP-STREAM is
  monotone non-decreasing (it is ``per-CPU copy x P`` by construction),
  accumulated random-ring bandwidth stays positive.  Ring bandwidth is
  deliberately *not* required monotone — the Altix inter-box collapse
  (Fig 2) is a real feature of the data.
* Determinism: serial, ``jobs=N`` and cache-warm reruns of the same
  figure are byte-identical CSV — PR 1/2's guarantee promoted into an
  enforced oracle.
* HPCC numeric verification: the PASSED/FAILED battery
  (:mod:`repro.hpcc.verification`) passes on every machine model at
  small scale, fanned out through the executor as ``hpcc_verify``
  points.
"""

from __future__ import annotations

import tempfile

from ..analysis.ratios import kiviat_violations
from ..exec import ResultCache, SimPoint, SweepExecutor, get_executor, using_executor
from ..machine.catalog import ALL_MACHINES
from ..scenarios import run_items
from .report import InvariantResult


def check_kiviat(max_cpus: int | None = 16) -> InvariantResult:
    """Fig 5 columns are properly normalised at this scale."""
    (fig,) = run_items(["fig05"], max_cpus)
    columns = fig.extra["columns"]
    normalised = {s.machine: {columns[int(x)]: y for x, y in zip(s.x, s.y)}
                  for s in fig.series}
    bad = kiviat_violations(columns, normalised)
    return InvariantResult("kiviat_normalisation", not bad, "; ".join(bad))


def check_balance_monotone(max_cpus: int | None = 16) -> InvariantResult:
    """HPL monotone rising; accumulated STREAM monotone; ring positive."""
    rings, streams = run_items(["fig01", "fig03"], max_cpus)
    bad: list[str] = []
    for s in streams.series:
        # Fig 3 plots accumulated EP-STREAM Copy against HPL.
        hpls, accs = list(s.x), list(s.y)
        if any(b <= a for a, b in zip(hpls, hpls[1:])):
            bad.append(f"{s.machine}: HPL not strictly increasing {hpls}")
        if any(b < a for a, b in zip(accs, accs[1:])):
            bad.append(f"{s.machine}: accumulated STREAM decreases {accs}")
    for s in rings.series:
        if any(v <= 0 for v in s.y):
            bad.append(f"{s.machine}: non-positive accumulated ring bandwidth")
    return InvariantResult("balance_monotone", not bad, "; ".join(bad))


def check_determinism(fig_id: str = "fig06", max_cpus: int | None = 8,
                      jobs: int = 2) -> InvariantResult:
    """Serial == parallel == cache-warm rerun, byte for byte."""
    from ..harness.report import figure_to_csv
    from ..scenarios import get_scenario

    scenario = get_scenario(fig_id)
    with tempfile.TemporaryDirectory(prefix="repro_validate_") as tmp:
        with using_executor(SweepExecutor(jobs=1, cache=None)):
            serial = figure_to_csv(scenario.run(max_cpus=max_cpus))
        cache = ResultCache(tmp)
        with SweepExecutor(jobs=jobs, cache=cache) as ex, using_executor(ex):
            parallel = figure_to_csv(scenario.run(max_cpus=max_cpus))
        warm_ex = SweepExecutor(jobs=1, cache=ResultCache(tmp))
        with using_executor(warm_ex):
            cached = figure_to_csv(scenario.run(max_cpus=max_cpus))
        stats = warm_ex.stats()
    bad: list[str] = []
    if parallel != serial:
        bad.append(f"jobs={jobs} run differs from serial run")
    if cached != serial:
        bad.append("cache-warm rerun differs from serial run")
    if stats["cache_misses"]:
        bad.append(f"warm rerun recomputed {stats['cache_misses']} points")
    return InvariantResult(
        "determinism", not bad,
        "; ".join(bad) if bad else
        f"{fig_id}: serial/jobs={jobs}/cached byte-identical "
        f"({stats['cache_hits']} cached points)")


def check_hpcc_verification(nprocs: int = 4,
                            machines: tuple[str, ...] | None = None
                            ) -> InvariantResult:
    """HPCC's numeric PASSED/FAILED battery on every machine model."""
    names = machines or tuple(m.name for m in ALL_MACHINES)
    points = [SimPoint.make("hpcc_verify", n, nprocs) for n in names]
    reports = get_executor().run_points(points)
    bad = [
        f"{rep.machine}: " + ", ".join(
            f"{i.benchmark} residual {i.residual:.3e} > {i.threshold:g}"
            for i in rep.items if not i.passed)
        for rep in reports if not rep.all_passed
    ]
    return InvariantResult(
        "hpcc_verification", not bad,
        "; ".join(bad) if bad else
        f"{len(names)} machines x {len(reports[0].items)} benchmarks PASSED")


def run_invariants(max_cpus: int | None = 16, *,
                   jobs: int = 2) -> list[InvariantResult]:
    """The full metamorphic battery (small scale by default)."""
    return [
        check_kiviat(max_cpus=max_cpus),
        check_balance_monotone(max_cpus=max_cpus),
        check_determinism(max_cpus=min(max_cpus or 8, 8), jobs=jobs),
        check_hpcc_verification(),
    ]
