"""Scenario registry CLI.

Examples::

    python -m repro.scenarios list
    python -m repro.scenarios run fig12 app_cg --max-cpus 64 --out out/
    python -m repro.scenarios check --max-cpus 64
    python -m repro.scenarios emit-manifest
    python -m repro.scenarios check-manifest

Exit codes follow the harness conventions: 0 ok, 2 usage error (unknown
scenario id, malformed TOML, bad flags), 3 reference-check failure or
manifest drift.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..config import ReproConfig
from ..core.errors import ConfigError
from ..exec import using_executor
from .manifest_sync import check_manifest_sync, write_manifest
from .registry import all_scenarios, get_scenario, scenario_ids
from .runner import check_scenarios, run_items
from .spec import ScenarioError

#: Default manifest location: repo results/TOLERANCES.json.
DEFAULT_MANIFEST = (Path(__file__).resolve().parents[3]
                    / "results" / "TOLERANCES.json")


def _add_exec_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-cpus", type=int, default=None,
                   help="cap CPU sweeps (default: full scale)")
    ReproConfig.add_arguments(p)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="List, run, and check declarative scenarios.")
    sub = ap.add_subparsers(dest="cmd")

    p_list = sub.add_parser("list", help="list registered scenarios")
    p_list.add_argument("--tag", default=None,
                        help="only scenarios carrying this tag")

    p_run = sub.add_parser("run", help="regenerate scenarios by id")
    p_run.add_argument("ids", nargs="+", metavar="ID")
    p_run.add_argument("--out", default=None,
                       help="directory for CSV/TXT exports")
    _add_exec_flags(p_run)

    p_check = sub.add_parser(
        "check", help="run scenarios and judge their references")
    p_check.add_argument("ids", nargs="*", metavar="ID",
                         help="default: every registered scenario")
    _add_exec_flags(p_check)

    p_emit = sub.add_parser(
        "emit-manifest",
        help="regenerate results/TOLERANCES.json from the registry")
    p_emit.add_argument("--path", default=str(DEFAULT_MANIFEST))

    p_sync = sub.add_parser(
        "check-manifest",
        help="verify the committed manifest matches the registry")
    p_sync.add_argument("--path", default=str(DEFAULT_MANIFEST))

    args = ap.parse_args(argv)
    if args.cmd is None:
        ap.print_help()
        return 2
    try:
        return _dispatch(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    if args.cmd == "list":
        rows = [s for s in all_scenarios()
                if args.tag is None or args.tag in s.tags]
        for s in rows:
            src = "builtin" if s.source == "builtin" else Path(s.source).name
            tags = ",".join(s.tags) or "-"
            print(f"{s.scenario_id:24} {s.kind:6} {src:24} [{tags}] "
                  f"{s.title}")
        print(f"[{len(rows)} scenarios]")
        return 0

    if args.cmd == "emit-manifest":
        write_manifest(args.path)
        print(f"[tolerance manifest -> {args.path}]")
        return 0

    if args.cmd == "check-manifest":
        ok, msg = check_manifest_sync(args.path)
        print(msg if ok else f"error: {msg}", file=None if ok else sys.stderr)
        return 0 if ok else 3

    # run / check need an executor.
    try:
        config = ReproConfig.from_env_and_args(args)
        config.apply_macro_above()
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    executor = config.make_executor()

    if args.cmd == "run":
        scenarios = [get_scenario(i) for i in args.ids]  # fail before running
        try:
            with using_executor(executor):
                results = run_items(scenarios, max_cpus=args.max_cpus)
        finally:
            executor.close()
        for result in results:
            _render(result, args.out)
        return 0

    if args.cmd == "check":
        ids = args.ids or list(scenario_ids())
        scenarios = [get_scenario(i) for i in ids]
        try:
            with using_executor(executor):
                report = check_scenarios(scenarios, max_cpus=args.max_cpus)
        finally:
            executor.close()
        failed = 0
        for verdict in report.checks:
            mark = {"ok": "OK", "fail": "FAIL",
                    "uncovered": "UNCOVERED"}[verdict.status]
            print(f"{verdict.scenario_id:24} {mark:9} {verdict.detail}")
            for c in verdict.checks:
                if c["status"] == "fail":
                    print(f"    {c['machine']}.{c['metric']}: "
                          f"{c.get('detail', 'missing')}", file=sys.stderr)
            if not verdict.ok:
                failed += 1
        print(f"[{len(scenarios) - failed}/{len(scenarios)} scenarios ok]")
        return 3 if failed else 0

    raise AssertionError(f"unhandled command {args.cmd!r}")


def _render(result, out_dir: str | None) -> None:
    from ..harness.report import render_result, save_result

    print(render_result(result))
    if out_dir:
        save_result(result, out_dir)
    print()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
