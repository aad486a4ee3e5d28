"""Command-line harness: regenerate any table/figure of the paper.

Examples::

    python -m repro.harness --table 2
    python -m repro.harness --figure 12 --max-cpus 128
    python -m repro.harness --all --max-cpus 64 --out results/ --jobs 8
    python -m repro.harness --figure 12 --metrics m.json --trace-dir traces/
    python -m repro.harness --validate --max-cpus 64 --jobs 4
    python -m repro.harness --cache-clear

Sweeps are decomposed into independent simulation points and run through
:class:`repro.exec.SweepExecutor`: ``--jobs N`` (or ``REPRO_JOBS``) fans
points out over worker processes, and results are cached on disk under
``--cache-dir`` (default ``.repro_cache/``, keyed by a source-tree
fingerprint) so repeated runs skip already-computed points.  Output is
byte-identical regardless of job count or cache state.

Observability: ``--metrics out.json`` enables the metrics registry for
the run (engine/network/MPI/cache counters, merged deterministically
across worker processes, plus per-point cache provenance and per-machine
critical-path summaries); ``--trace-dir DIR`` additionally writes Chrome
``traceEvents`` files for representative traced runs — open them in
``chrome://tracing`` or https://ui.perfetto.dev; ``--report out.html``
renders communication matrices, utilisation timelines, span waterfalls,
ledger trends, and the critical-path verdicts into one self-contained
HTML file (see :mod:`repro.harness.dashboard`).

Every run that produces items also appends a line to the run ledger
(``BENCH_ledger.jsonl`` next to the bench stats file) — an append-only,
schema-versioned performance history keyed by git SHA and the source
fingerprint, with trailing-median regression flagging.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from time import perf_counter

from ..api import normalize_figure_id, normalize_table_id
from ..config import ReproConfig
from ..core.errors import ConfigError
from ..exec import ResultCache, source_fingerprint, using_executor
from ..obs import (
    AMBIENT,
    TRACE_SCHEMA_VERSION,
    RunLedger,
    TelemetryRecorder,
    assemble_traces,
    format_critical_path,
    git_dirty,
    git_sha,
    ledger_row,
    trace_summary,
    using,
    write_spans_chrome_trace,
)
from ..scenarios import item_charge, run_items
from ..scenarios.builtin import PAPER_FIGURE_IDS, PAPER_TABLE_IDS
from .dashboard import build_run_doc, write_report
from .observe import observe_figures
from .report import render_result, save_result

#: Bump when the BENCH_harness.json layout changes incompatibly.
#: v2: the ``harness`` block records the scheduler backend the run used
#: (and it joins the ledger ``run_key``).
#: v3: ``harness.exec_backend`` records the executor backend.
#: v4: optional top-level ``energy`` section (per-component joules and
#: totals, present only when the run had ``--energy`` on).
#: v5: optional top-level ``telemetry`` section (distributed-trace
#: summary, present only when the run had ``--telemetry`` on).
#: v6: ``harness.macro_above`` (``null`` when exact) replaces the
#: scheduler backend name — there is one scheduler left to record.
#: v7: ``items[i].spans`` is the item's telemetry span subtree: trace,
#: span and parent ids, ``pid`` and ``status`` come in; ``clock`` and
#: ``duration_s`` go.
#: v8: every item runs in one sweep, so each item is charged the points
#: it declares, its ``wall_s`` is its points' recorded simulation wall,
#: and its span holds only ``render``/``save``; the ``sweep`` stage
#: span holds the executor's batch, and ``totals`` count each distinct
#: point once.
BENCH_SCHEMA_VERSION = 8

class _BadId(Exception):
    """Raised for an unknown/invalid --figure/--table/--scenario id."""


def _scenario_hint(arg: str) -> str:
    """A pointer at the scenario registry when a bad id names a scenario."""
    from ..scenarios import has_scenario

    if has_scenario(str(arg)):
        return (f"; {arg!r} is a registered scenario — "
                f"use --scenario {arg}")
    return ""


def _resolve_ids(raw: list[str], norm, known, what: str) -> list[str]:
    """Normalise CLI ids, raising :class:`_BadId` with a clear message.

    Unknown ids are also resolved against the scenario registry so a
    scenario name passed to ``--figure`` points at ``--scenario``
    instead of dead-ending.
    """
    out = []
    for arg in raw:
        try:
            ident = norm(arg)
        except ValueError:
            raise _BadId(
                f"error: invalid {what} id {arg!r} "
                f"(expected one of: {', '.join(sorted(known))})"
                f"{_scenario_hint(arg)}"
            ) from None
        if ident not in known:
            raise _BadId(
                f"error: unknown {what} {arg!r} "
                f"(expected one of: {', '.join(sorted(known))})"
                f"{_scenario_hint(arg)}"
            )
        out.append(ident)
    return out


def _resolve_scenarios(raw: list[str]) -> list[str]:
    """Validate --scenario names against the registry (exit-2 contract)."""
    from ..scenarios import ScenarioError, get_scenario, scenario_ids

    out = []
    for arg in raw:
        try:
            get_scenario(str(arg))
        except ScenarioError:
            raise _BadId(
                f"error: unknown scenario {arg!r} "
                f"(registered: {', '.join(scenario_ids())})"
            ) from None
        out.append(str(arg))
    return out


def _creation_blocker(path: Path) -> Path | None:
    """First existing ancestor (or ``path`` itself) that is not a directory.

    ``mkdir(parents=True)`` would blow up on it mid-run; catching it up
    front turns an end-of-run traceback into a usage error.
    """
    for p in (path, *path.parents):
        if p.exists():
            return None if p.is_dir() else p
    return None


def check_output_paths(metrics: str | None, trace_dir: str | None,
                       *extra_files: str | None) -> str | None:
    """Validate output-path arguments before any simulation runs.

    Returns a usage-error message, or None when every path is writable.
    ``extra_files`` are additional file outputs (e.g. the validation
    report) checked under the same rules as ``--metrics``.
    """
    for label, raw in (("--metrics", metrics),
                       *(("output file", x) for x in extra_files)):
        if raw is None:
            continue
        p = Path(raw)
        if p.is_dir():
            return f"{label}: {p} is a directory, expected a file path"
        blocker = _creation_blocker(p.parent) if str(p.parent) else None
        if blocker is not None:
            return (f"{label}: cannot create {p.parent}/ "
                    f"({blocker} is not a directory)")
    if trace_dir is not None:
        d = Path(trace_dir)
        blocker = _creation_blocker(d)
        if blocker is not None:
            return (f"--trace-dir: cannot use {d} "
                    f"({blocker} is not a directory)")
    return None


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the paper's tables and figures on the "
                    "simulated machines.",
    )
    ap.add_argument("--figure", action="append", default=[],
                    help="figure number (1-16); repeatable")
    ap.add_argument("--table", action="append", default=[],
                    help="table number (1-4); repeatable")
    ap.add_argument("--all", action="store_true",
                    help="regenerate every table and figure")
    ap.add_argument("--scenario", action="append", default=[],
                    metavar="NAME",
                    help="run a registered scenario by name (builtin "
                         "paper items, scenarios/*.toml, or "
                         "REPRO_SCENARIO_PATH files); repeatable")
    ap.add_argument("--list-scenarios", action="store_true",
                    help="list every registered scenario and exit")
    ap.add_argument("--max-cpus", type=int, default=None,
                    help="cap CPU sweeps (default: the paper's full ranges)")
    ap.add_argument("--out", default=None,
                    help="directory for CSV/TXT exports")
    ap.add_argument("--plot", action="store_true",
                    help="also render figures as ASCII log-log charts")
    ReproConfig.add_arguments(ap)
    ap.add_argument("--cache-clear", action="store_true",
                    help="delete the result cache before running")
    ap.add_argument("--energy", action="store_true", default=None,
                    help="account energy-to-solution per component "
                         "(machine power models; adds an energy section "
                         "to the bench stats, ledger, and HTML report)")
    ap.add_argument("--telemetry", action="store_true", default=None,
                    help="trace the run (submit/dispatch/compute spans, "
                         "propagated across worker processes; adds a "
                         "telemetry section to the bench stats and a "
                         "trace id to the ledger row; REPRO_TELEMETRY "
                         "env var)")
    ap.add_argument("--bench-json", default=None,
                    help="write per-figure perf/cache stats to this path "
                         "(default: BENCH_harness.json for --all runs)")
    ap.add_argument("--metrics", default=None, metavar="PATH",
                    help="enable the metrics registry and write the "
                         "merged metrics/provenance/critical-path JSON "
                         "to PATH")
    ap.add_argument("--trace-dir", default=None, metavar="DIR",
                    help="write Chrome traceEvents JSON for one traced "
                         "representative run per (figure, machine) plus "
                         "the harness span tree (view in Perfetto)")
    ap.add_argument("--report", default=None, metavar="PATH",
                    help="render a self-contained HTML run report (comm "
                         "matrices, utilisation timelines, span waterfall, "
                         "ledger trends, critical-path verdicts) to PATH")
    ap.add_argument("--ledger", default=None, metavar="PATH",
                    help="run-ledger JSONL path (default: "
                         "BENCH_ledger.jsonl next to the bench stats file)")
    ap.add_argument("--no-ledger", action="store_true",
                    help="skip appending this run to the run ledger")
    ap.add_argument("--validate", action="store_true",
                    help="regenerate the selected items (default: all) and "
                         "diff them against results/ under "
                         "results/TOLERANCES.json, plus the metamorphic "
                         "invariant battery; exit 3 on regression")
    ap.add_argument("--validate-report", default=None, metavar="PATH",
                    help="with --validate: write the machine-readable "
                         "per-cell report JSON to PATH")
    args = ap.parse_args(argv)

    if args.list_scenarios:
        from ..scenarios import all_scenarios

        for s in all_scenarios():
            src = ("builtin" if s.source == "builtin"
                   else Path(s.source).name)
            print(f"{s.scenario_id:24} {s.kind:6} {src:24} {s.title}")
        return 0

    try:
        figures = _resolve_ids(args.figure, normalize_figure_id,
                               PAPER_FIGURE_IDS, "figure")
        tables = _resolve_ids(args.table, normalize_table_id,
                              PAPER_TABLE_IDS, "table")
        scenarios = _resolve_scenarios(args.scenario)
    except _BadId as exc:
        print(exc, file=sys.stderr)
        return 2
    if args.all:
        figures = list(PAPER_FIGURE_IDS)
        tables = list(PAPER_TABLE_IDS)
    # Drop scenarios that are already running as figures/tables (the
    # builtin paper items are reachable under either flag).
    scenarios = [s for s in scenarios if s not in figures and s not in tables]

    err = check_output_paths(args.metrics, args.trace_dir,
                             args.validate_report, args.report,
                             args.bench_json, args.ledger)
    if err is not None:
        print(f"error: {err}", file=sys.stderr)
        return 2

    # One resolver for every knob: explicit flag > env var > default.
    try:
        config = ReproConfig.from_env_and_args(args)
        config.apply_macro_above()
    except (ConfigError, ValueError) as exc:  # e.g. non-integer REPRO_JOBS
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.cache_clear:
        ResultCache(config.cache_dir).clear()
        print(f"[cache cleared: {config.cache_dir}]")
        if not figures and not tables and not scenarios and not args.validate:
            return 0
    if (not figures and not tables and not scenarios and not args.all
            and not args.validate):
        ap.print_help()
        return 2

    cache = config.make_cache()
    executor = config.make_executor()

    if args.validate:
        # Deferred import: repro.validate.__main__ imports this module,
        # so the dependency must point this way only at call time.
        from ..validate.gate import run_validation

        # The ledger layer joins the gate whenever a ledger exists: an
        # explicit --ledger path, or the default one next to the bench
        # artifact.  Lenient unless REPRO_LEDGER_STRICT=1.
        ledger_path: Path | None = (Path(args.ledger) if args.ledger
                                    else _bench_path(args).with_name(
                                        "BENCH_ledger.jsonl"))
        if not ledger_path.exists():
            ledger_path = None
        strict = os.environ.get("REPRO_LEDGER_STRICT", "") == "1"
        explicit = bool(figures or tables)
        try:
            with using_executor(executor):
                report = run_validation(
                    figures=figures if explicit else None,
                    tables=tables if explicit else None,
                    scenarios=scenarios or None,
                    max_cpus=args.max_cpus,
                    jobs=executor.jobs,
                    report_path=args.validate_report,
                    ledger_path=ledger_path,
                    ledger_strict=strict,
                )
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        finally:
            executor.close()
        print(report.summary())
        if args.validate_report:
            print(f"[validation report -> {args.validate_report}]")
        return report.exit_code()
    want_obs = (args.metrics is not None or args.trace_dir is not None
                or args.report is not None)
    # The run's recorders by name: metrics, comm and timeline with any
    # observation output, energy with --energy, telemetry with
    # --telemetry.
    wanted = {"metrics": want_obs, "comm": want_obs, "timeline": want_obs,
              "energy": config.energy, "telemetry": config.telemetry}
    obs = {name: AMBIENT[name]() for name, on in wanted.items() if on}
    # The stage spans go on the run's telemetry recorder, so executor and
    # fleet spans nest under the sweep span; without --telemetry a
    # private recorder holds them and the ambient one stays disabled.
    stages = obs.get("telemetry") or TelemetryRecorder()
    # Every item, in BENCH order: tables, figures, scenarios.  They run
    # as one sweep, then each is rendered and saved in this order.
    items = ([(t, "table") for t in tables] + [(f, "figure") for f in figures]
             + [(sid, "scenario") for sid in scenarios])
    item_ids = [ident for ident, _cat in items]
    bench_items = []
    item_span_ids: list[str] = []
    cp_reports: dict[str, dict] = {}
    observed_doc: dict[str, dict] = {}
    t_run0 = perf_counter()

    try:
        with using(*obs.values()), using_executor(executor), \
                stages.span("harness.run", "harness",
                            items=len(items)) as run_span:
            with stages.span("sweep", "sweep"):
                t0 = perf_counter()
                results = run_items(item_ids, max_cpus=args.max_cpus)
                dt = perf_counter() - t0
            batch = {e["point"]: e for e in executor.point_log}
            print(f"[sweep: {len(batch)} points in {dt:.1f}s]\n")
            for (ident, cat), result in zip(items, results):
                charge = item_charge(ident, args.max_cpus, batch)
                with stages.span(ident, cat) as sp:
                    with stages.span("render", "report"):
                        print(render_result(result, plot=args.plot))
                        print(f"[{ident}: {charge['points']} points, "
                              f"{charge['wall_s']:.1f}s of point wall]\n")
                    if args.out:
                        with stages.span("save", "report"):
                            save_result(result, args.out)
                bench_items.append(charge)
                item_span_ids.append(sp.span_id)

            if want_obs and figures:
                # Representative traced runs: critical-path verdicts per
                # (figure, machine) and, with --trace-dir, Perfetto files.
                with stages.span("observe", "observe"):
                    reports = observe_figures(figures,
                                              max_cpus=args.max_cpus,
                                              trace_dir=args.trace_dir)
                for fig_id, per_machine in reports.items():
                    cp_reports[fig_id] = {
                        m: run.report.to_dict()
                        for m, run in per_machine.items()
                    }
                    observed_doc[fig_id] = {
                        m: run.to_dict() for m, run in per_machine.items()
                    }
                    print(f"[critical path — {fig_id}]")
                    for run in per_machine.values():
                        print(format_critical_path(run.report))
                    print()
    finally:
        executor.close()

    totals = executor.stats()
    wall_s = perf_counter() - t_run0
    print(f"[total {wall_s:.1f}s; {totals['points']} points, "
          f"{totals['cache_hits']} cache hits, "
          f"{totals['cache_misses']} misses, "
          f"{totals['events']} events]")

    run_spans = stages.drain()
    # The stage tree under the root: the sweep, one subtree per item,
    # and observe.
    (run_root,) = [r for r in assemble_traces(run_spans)[run_span.trace_id]
                   if r.span_id == run_span.span_id]
    stage_spans = [c.to_dict() for c in run_root.children]
    by_id = {d["span_id"]: d for d in stage_spans}
    for item, span_id in zip(bench_items, item_span_ids):
        item["spans"] = by_id[span_id]

    telemetry_doc = None
    if "telemetry" in obs:
        telemetry_doc = {"schema_version": TRACE_SCHEMA_VERSION,
                         **trace_summary(run_spans)}
        n_traces = len(telemetry_doc.get("traces", {}))
        print(f"[telemetry: {telemetry_doc['spans']} spans in "
              f"{n_traces} trace{'s' if n_traces != 1 else ''}]")

    if args.trace_dir is not None:
        trace_dir = Path(args.trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        write_spans_chrome_trace(run_spans, trace_dir / "harness_spans.json")
        print(f"[traces -> {trace_dir}]")

    if args.metrics is not None:
        registry = obs["metrics"]
        snap = registry.snapshot()
        metrics_doc = {
            "harness": {
                "max_cpus": args.max_cpus,
                "jobs": executor.jobs,
                "wall_s": round(wall_s, 6),
            },
            "metrics": registry.flat(),
            "histograms": snap["histograms"],
            "points": executor.point_log,
            "critical_path": cp_reports,
            "comm": obs["comm"].snapshot(),
            "timeline": obs["timeline"].snapshot(),
            "spans": stage_spans,
        }
        metrics_path = Path(args.metrics)
        if metrics_path.parent != Path(""):
            metrics_path.parent.mkdir(parents=True, exist_ok=True)
        metrics_path.write_text(json.dumps(metrics_doc, indent=1) + "\n")
        print(f"[metrics -> {metrics_path}]")

    energy_doc = None
    if "energy" in obs:
        energy_doc = {"totals": obs["energy"].totals(),
                      "phases": obs["energy"].snapshot()["phases"]}
        tot = energy_doc["totals"]
        print(f"[energy: {tot['total_j']:.1f} J total, "
              f"{tot['avg_power_w']:.1f} W avg, "
              f"EDP {tot['edp_js']:.3g} J*s]")

    harness_doc = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "git_sha": git_sha(),
        "dirty": git_dirty(),
        "fingerprint": source_fingerprint(),
        "max_cpus": args.max_cpus,
        "jobs": executor.jobs,
        "macro_above": config.macro_above,
        "exec_backend": config.exec_backend,
        "cache": None if cache is None else str(cache.root),
        "wall_s": round(wall_s, 6),
    }
    totals_doc = {**totals,
                  "compute_wall_s": round(totals["compute_wall_s"], 6)}

    bench_path = _bench_path(args)
    doc = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "harness": harness_doc,
        "totals": totals_doc,
        "items": bench_items,
    }
    if energy_doc is not None:
        doc["energy"] = energy_doc
    if telemetry_doc is not None:
        doc["telemetry"] = telemetry_doc
    bench_path.parent.mkdir(parents=True, exist_ok=True)
    bench_path.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"[bench stats -> {bench_path}]")

    ledger_info = None
    if not args.no_ledger:
        ledger_path = (Path(args.ledger) if args.ledger
                       else bench_path.with_name("BENCH_ledger.jsonl"))
        ledger = RunLedger(ledger_path)
        # Traced runs link their row to the run's trace; the full span
        # summary lives in the bench stats document.
        traces = (telemetry_doc or {}).get("traces")
        entry = ledger.append(ledger_row(
            item_ids, args.max_cpus, exec_backend=config.exec_backend,
            jobs=executor.jobs, recorders=obs, wall_s=wall_s,
            totals=totals,
            energy=energy_doc["totals"] if energy_doc is not None else None,
            trace_id=next(iter(traces)) if traces else None,
            trace_spans=telemetry_doc["spans"] if traces else None))
        verdict = ledger.check_regression(entry)
        ledger_info = {
            "path": str(ledger_path),
            "entries": len(ledger.entries()),
            "trend": ledger.trend(entry["run_key"], "wall_s", limit=30),
            "regression": verdict,
        }
        status = ("unchecked" if not verdict["checked"]
                  else "ok" if verdict["ok"] else "REGRESSION")
        print(f"[ledger -> {ledger_path} ({status}, "
              f"{ledger_info['entries']} entries)]")
        if verdict["checked"] and not verdict["ok"]:
            for r in verdict["regressions"]:
                print(f"  ledger regression: {r['field']} "
                      f"{r['ratio']:.2f}x trailing median "
                      f"({r['value']:.4g} vs {r['median']:.4g})",
                      file=sys.stderr)

    if args.report is not None:
        run_doc = build_run_doc(
            harness=harness_doc,
            totals=totals_doc,
            items=bench_items,
            comm=obs["comm"].snapshot(),
            timeline=obs["timeline"].snapshot(),
            observed=observed_doc,
            spans=stage_spans,
            ledger=ledger_info,
            energy=energy_doc,
            telemetry=telemetry_doc,
        )
        report_path = write_report(run_doc, args.report)
        print(f"[report -> {report_path}]")
    return 0


def _bench_path(args) -> Path:
    """Where to write BENCH_harness.json (always written)."""
    if args.bench_json:
        return Path(args.bench_json)
    if args.out:
        return Path(args.out) / "BENCH_harness.json"
    return Path("BENCH_harness.json")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
