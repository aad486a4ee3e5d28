"""Standalone validation CLI: golden gate, invariants, config fuzzing.

Examples::

    python -m repro.validate --max-cpus 16 --jobs 4
    python -m repro.validate --figure 1 --figure 6 --table 1 --max-cpus 16
    python -m repro.validate --skip-golden --skip-invariants \\
        --fuzz 25 --fuzz-seed 42 --report fuzz.json

Exit codes: 0 all layers passed, 2 usage error, 3 regression (golden
mismatch, broken invariant, or fuzz failure).  A CI fuzz failure is
replayed locally with the same ``--fuzz N --fuzz-seed S`` pair — the
fuzzer is a pure function of the seed.
"""

from __future__ import annotations

import argparse
import sys

from ..config import ReproConfig
from ..core.errors import ConfigError
from ..exec import available_exec_backends, using_executor
from ..harness.figures import ALL_FIGURES
from ..harness.runner import (_BadId, _norm_fig, _norm_table, _resolve_ids,
                              _resolve_scenarios, check_output_paths)
from ..harness.tables import ALL_TABLES
from .gate import run_validation
from .report import EXIT_USAGE


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.validate",
        description="Validate the repository against its committed golden "
                    "results, metamorphic invariants, and a config fuzzer.",
    )
    ap.add_argument("--figure", action="append", default=[],
                    help="restrict the golden gate to this figure; repeatable")
    ap.add_argument("--table", action="append", default=[],
                    help="restrict the golden gate to this table; repeatable")
    ap.add_argument("--scenario", action="append", default=[],
                    metavar="NAME",
                    help="also check this registered scenario's declarative "
                         "references (asymmetric tolerances); repeatable")
    ap.add_argument("--all-scenarios", action="store_true",
                    help="check every registered scenario's references")
    ap.add_argument("--max-cpus", type=int, default=None,
                    help="cap CPU sweeps (items marked requires_full are "
                         "then reported uncovered, not compared)")
    ap.add_argument("--results", default="results",
                    help="golden results directory (default: %(default)s)")
    ap.add_argument("--manifest", default=None,
                    help="tolerance manifest path (default: "
                         "<results>/TOLERANCES.json)")
    ap.add_argument("--report", default=None, metavar="PATH",
                    help="write the machine-readable report JSON to PATH")
    ap.add_argument("--jobs", "-j", type=int, default=None,
                    help="worker processes for sweep points")
    ap.add_argument("--macro-above", default=None, metavar="N",
                    help="price IMB collectives analytically above N ranks "
                         "(default: REPRO_MACRO_ABOVE env var, else exact "
                         "everywhere)")
    ap.add_argument("--exec-backend", default=None, metavar="NAME",
                    help="executor backend for sweep points "
                         f"({', '.join(available_exec_backends())}; "
                         "default: REPRO_EXEC_BACKEND env var, else pool "
                         "for --jobs > 1)")
    ap.add_argument("--no-cache", action="store_true", default=None,
                    help="disable the on-disk result cache")
    ap.add_argument("--cache-dir", default=None,
                    help="result cache directory (default: REPRO_CACHE_DIR "
                         "env var, else .repro_cache)")
    ap.add_argument("--skip-golden", action="store_true",
                    help="skip the golden regression gate")
    ap.add_argument("--skip-invariants", action="store_true",
                    help="skip the metamorphic invariant battery")
    ap.add_argument("--fuzz", type=int, default=0, metavar="N",
                    help="fuzz N random machine configs (default: 0 = off)")
    ap.add_argument("--fuzz-seed", type=int, default=0, metavar="S",
                    help="fuzzer seed; same seed -> same configs and "
                         "verdicts (default: %(default)s)")
    ap.add_argument("--ledger", default=None, metavar="PATH",
                    help="check the newest run-ledger entry against its "
                         "trailing history (default: off)")
    ap.add_argument("--ledger-strict", action="store_true",
                    help="fail the gate on a ledger regression instead of "
                         "warning (use on dedicated benchmarking hosts)")
    args = ap.parse_args(argv)

    try:
        figures = _resolve_ids(args.figure, _norm_fig, ALL_FIGURES, "figure")
        tables = _resolve_ids(args.table, _norm_table, ALL_TABLES, "table")
        scenarios = _resolve_scenarios(args.scenario)
    except _BadId as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    if args.all_scenarios:
        from ..scenarios import scenario_ids

        scenarios = list(scenario_ids())
    err = check_output_paths(None, None, args.report)
    if err is not None:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    if (args.skip_golden and args.skip_invariants and args.fuzz <= 0
            and args.ledger is None):
        print("error: every validation layer is disabled "
              "(--skip-golden --skip-invariants, no --fuzz, no --ledger)",
              file=sys.stderr)
        return EXIT_USAGE

    try:
        config = ReproConfig.from_env_and_args(args)
        config.apply_macro_above()
        executor = config.make_executor()
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    explicit = bool(figures or tables)
    try:
        with using_executor(executor):
            report = run_validation(
                figures=figures if explicit else None,
                tables=tables if explicit else None,
                scenarios=scenarios or None,
                results_dir=args.results,
                manifest_path=args.manifest,
                max_cpus=args.max_cpus,
                golden=not args.skip_golden,
                invariants=not args.skip_invariants,
                fuzz_configs=args.fuzz,
                fuzz_seed=args.fuzz_seed,
                jobs=executor.jobs,
                report_path=args.report,
                ledger_path=args.ledger,
                ledger_strict=args.ledger_strict,
            )
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        executor.close()
    print(report.summary())
    if args.report:
        print(f"[validation report -> {args.report}]")
    return report.exit_code()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
