"""Sweep-service CLI: serve, submit, status, result, metrics, gc.

Examples::

    # one terminal: start the service (2 concurrent jobs, worker fleet)
    python -m repro.service serve --workers 2 --jobs 4

    # another terminal: submit work and wait for it
    python -m repro.service submit fig06 --max-cpus 64 --wait
    python -m repro.service submit fig06 table2
    python -m repro.service status
    python -m repro.service status 20260809-101500-a1b2c3
    python -m repro.service result 20260809-101500-a1b2c3

    # CI / batch: submit first, then drain everything in one shot
    python -m repro.service submit fig12 --max-cpus 32
    python -m repro.service submit fig12 --max-cpus 32
    python -m repro.service serve --once --workers 2

    # observe a telemetry-enabled service (see docs/MODEL.md §15)
    python -m repro.service serve --telemetry --workers 2
    python -m repro.service metrics

    # prune stale cache generations and old finished jobs
    python -m repro.service gc --older-than-days 7

Clients and server meet in the spool directory (``--root``,
``REPRO_SERVICE_DIR``, default ``.repro_service/``); results land under
``<root>/artifacts/<job-id>/`` as the same CSV/TXT/JSON exports the
harness writes.  Exit codes: 0 ok, 1 a job failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

from ..api import normalize_item_id
from ..config import ReproConfig
from ..core.errors import ConfigError
from .queue import JOB_STATES, TERMINAL_STATES
from .spool import Spool, SpoolServer

EXIT_OK = 0
EXIT_JOB_FAILED = 1
EXIT_USAGE = 2

#: Status-document fields the plain ``status`` listing already renders
#: (or deliberately summarises); anything else in a document is a newer
#: server's addition and is printed verbatim as ``key=value``.
_STATUS_LISTED_FIELDS = frozenset({
    "schema_version", "id", "items", "max_cpus", "submitted_at",
    "started_at", "finished_at", "config", "state", "error", "job",
    "wall_s", "stats", "item_results", "artifacts", "trace_id", "trace",
})


def _lookup_status(spool: Spool, request_id: str) -> tuple[dict | None, str]:
    """Resolve one request id to (status doc, error message).

    Distinguishes a request the service simply has not picked up yet
    from an id nothing in the spool has ever seen.
    """
    doc = spool.read_status(request_id)
    if doc is not None:
        return doc, ""
    if (spool.jobs_dir / f"{request_id}.json").is_file():
        return None, (f"request {request_id} not yet picked up by a server "
                      f"(is one running against {spool.root}?)")
    return None, f"unknown request id {request_id!r} in {spool.root}"


def _add_config_flags(ap: argparse.ArgumentParser) -> None:
    ReproConfig.add_arguments(ap)
    ap.add_argument("--energy", action="store_true", default=None,
                    help="account energy-to-solution per job (machine "
                         "power models; adds energy fields to the "
                         "service ledger rows)")
    ap.add_argument("--telemetry", action="store_true", default=None,
                    help="trace jobs and record service metrics "
                         "(service_events.jsonl, metrics.prom, and "
                         "traces/ in the spool; REPRO_TELEMETRY env var)")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Simulation-as-a-service front end over the sweep "
                    "executor: async job queue, request coalescing, "
                    "multi-tenant result store.",
    )
    ap.add_argument("--root", default=None, metavar="DIR",
                    help="spool directory (default: REPRO_SERVICE_DIR env "
                         "var, else .repro_service)")
    sub = ap.add_subparsers(dest="command", required=True)

    serve = sub.add_parser("serve", help="run the service loop")
    serve.add_argument("--workers", type=int, default=2,
                       help="concurrent jobs (worker slots, default: "
                            "%(default)s)")
    serve.add_argument("--once", action="store_true",
                       help="drain pending requests, then exit")
    serve.add_argument("--poll-interval", type=float, default=0.2,
                       metavar="S", help="spool poll interval in seconds")
    serve.add_argument("--max-wall", type=float, default=None, metavar="S",
                       help="stop serving after S seconds")
    _add_config_flags(serve)

    submit = sub.add_parser("submit",
                            help="submit figures/tables/scenarios as a job")
    submit.add_argument("items", nargs="+", metavar="ITEM",
                        help="figure/table ids (fig06, 6, table2, ...) or "
                             "registered scenario names "
                             "(python -m repro.scenarios list)")
    submit.add_argument("--max-cpus", type=int, default=None,
                        help="cap CPU sweeps")
    submit.add_argument("--wait", action="store_true",
                        help="block until the job finishes; print status")
    submit.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="with --wait: give up after S seconds")

    status = sub.add_parser("status", help="show job status")
    status.add_argument("request_id", nargs="?", default=None,
                        help="one request id (default: list everything)")
    status.add_argument("--json", action="store_true", dest="as_json",
                        help="print raw JSON documents")

    result = sub.add_parser(
        "result", help="print one finished request's results "
                       "(exit 0 done, 1 failed/unfinished, 2 unknown id)")
    result.add_argument("request_id", help="the request id to fetch")
    result.add_argument("--json", action="store_true", dest="as_json",
                        help="print the raw JSON status document")

    metrics = sub.add_parser(
        "metrics", help="print the service's Prometheus text exposition "
                        "(requires a server running with --telemetry)")

    gc = sub.add_parser("gc", help="prune stale cache generations and "
                                   "old finished jobs")
    gc.add_argument("--older-than-days", type=float, default=7.0,
                    help="collect terminal jobs older than this "
                         "(default: %(default)s)")
    gc.add_argument("--cache-dir", default=None,
                    help="result cache to sweep (default: REPRO_CACHE_DIR "
                         "env var, else .repro_cache)")
    gc.add_argument("--no-cache-gc", action="store_true",
                    help="skip the result-store generation sweep")

    args = ap.parse_args(argv)
    spool = Spool(args.root)

    if args.command == "serve":
        try:
            config = ReproConfig.from_env_and_args(args)
            config.apply_macro_above()
        except (ConfigError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        server = SpoolServer(spool, config, workers=args.workers,
                             poll_s=args.poll_interval)
        tel = " telemetry=on" if config.telemetry else ""
        print(f"[repro.service: spool={spool.root} "
              f"workers={args.workers} jobs={config.jobs} "
              f"exec={config.exec_backend} macro_above={config.macro_above}"
              f"{tel}]")
        try:
            n = server.run(once=args.once, max_wall_s=args.max_wall)
        except KeyboardInterrupt:  # pragma: no cover - interactive
            print("[interrupted]", file=sys.stderr)
            return EXIT_OK
        failed = [d for d in spool.statuses() if d.get("state") == "failed"]
        print(f"[served {n} requests, {len(failed)} failed]")
        return EXIT_JOB_FAILED if failed else EXIT_OK

    if args.command == "submit":
        try:
            items = [normalize_item_id(i) for i in args.items]
        except ValueError as exc:
            print(f"error: bad item id: {exc}", file=sys.stderr)
            return EXIT_USAGE
        try:
            request_id = spool.submit(items, max_cpus=args.max_cpus)
        except OSError as exc:
            print(f"error: cannot write spool request: {exc}",
                  file=sys.stderr)
            return EXIT_USAGE
        print(request_id)
        if not args.wait:
            return EXIT_OK
        try:
            doc = spool.wait(request_id, timeout=args.timeout)
        except TimeoutError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_JOB_FAILED
        print(json.dumps(doc, indent=1, sort_keys=True))
        return EXIT_OK if doc.get("state") == "done" else EXIT_JOB_FAILED

    if args.command == "status":
        if args.request_id is not None:
            doc, msg = _lookup_status(spool, args.request_id)
            if doc is None:
                print(f"error: {msg}", file=sys.stderr)
                return EXIT_USAGE
            print(json.dumps(doc, indent=1, sort_keys=True))
            return (EXIT_OK if doc.get("state") != "failed"
                    else EXIT_JOB_FAILED)
        docs = spool.statuses()
        if args.as_json:
            print(json.dumps(docs, indent=1, sort_keys=True))
            return EXIT_OK
        if not docs:
            print(f"[no jobs in {spool.root}]")
            return EXIT_OK
        for doc in docs:
            items = ",".join(doc.get("items", []))
            wall = doc.get("wall_s")
            extra = f" wall={wall:.1f}s" if isinstance(wall, (int, float)) \
                else ""
            err = doc.get("error")
            extra += f" error={err}" if err else ""
            trace = doc.get("trace")
            if isinstance(trace, dict):
                extra += (f" trace={doc.get('trace_id')}"
                          f"({trace.get('spans')} spans)")
            # Forward compatibility: a newer server may stamp status
            # fields this listing does not know about — show them as
            # key=value instead of silently dropping them.
            for key in sorted(set(doc) - _STATUS_LISTED_FIELDS):
                extra += f" {key}={json.dumps(doc[key], sort_keys=True)}"
            print(f"{doc.get('id')}  {doc.get('state'):8s} "
                  f"[{items}]{extra}")
        # Queue-shape summary: per-state counts over every state the
        # queue knows, plus the still-unserved depth (same shape as
        # JobQueue.stats()["by_state"], works with telemetry off).
        by_state = {state: 0 for state in JOB_STATES}
        for doc in docs:
            state = doc.get("state")
            if state in by_state:
                by_state[state] += 1
        depth = sum(by_state[s] for s in JOB_STATES
                    if s not in TERMINAL_STATES)
        shape = " ".join(f"{state}={n}" for state, n in by_state.items())
        print(f"[{len(docs)} requests: {shape} | queue depth {depth}]")
        if spool.metrics_path.is_file():
            # A telemetry-enabled server keeps this fresh each tick.
            print(f"# -- service metrics ({spool.metrics_path}) --")
            print(spool.metrics_path.read_text(), end="")
        return EXIT_OK

    if args.command == "result":
        doc, msg = _lookup_status(spool, args.request_id)
        if doc is None:
            print(f"error: {msg}", file=sys.stderr)
            return EXIT_USAGE
        if doc.get("state") not in TERMINAL_STATES:
            print(f"request {args.request_id} still {doc.get('state')}",
                  file=sys.stderr)
            return EXIT_JOB_FAILED
        if args.as_json:
            print(json.dumps(doc, indent=1, sort_keys=True))
        else:
            for item in doc.get("item_results") or []:
                arts = ", ".join(item.get("artifacts") or []) or "-"
                print(f"{item.get('id')}  wall={item.get('wall_s')}s  "
                      f"points={item.get('points')}  {arts}")
            err = doc.get("error")
            if err:
                print(f"error: {err}", file=sys.stderr)
        return (EXIT_OK if doc.get("state") == "done"
                else EXIT_JOB_FAILED)

    if args.command == "metrics":
        if not spool.metrics_path.is_file():
            print(f"error: no {spool.metrics_path} — is a server running "
                  f"with --telemetry against {spool.root}?",
                  file=sys.stderr)
            return EXIT_USAGE
        print(spool.metrics_path.read_text(), end="")
        return EXIT_OK

    if args.command == "gc":
        report = spool.gc(older_than_s=args.older_than_days * 86400.0)
        aged = (f", aged out {'+'.join(report['files'])}"
                if report.get("files") else "")
        print(f"[spool gc: removed {len(report['removed'])} jobs, "
              f"kept {report['kept']}{aged}]")
        if not args.no_cache_gc:
            try:
                config = ReproConfig.from_env_and_args(
                    cache_dir=args.cache_dir)
            except (ConfigError, ValueError) as exc:
                print(f"error: {exc}", file=sys.stderr)
                return EXIT_USAGE
            cache = config.make_cache()
            if cache is not None:
                cache_report = cache.gc()
                print(f"[cache gc: removed "
                      f"{len(cache_report['removed'])} stale generations "
                      f"({cache_report['bytes']} bytes), kept "
                      f"{len(cache_report['kept'])}]")
        return EXIT_OK

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
