"""Tests for the sweep service: job queue, coalescing, spool CLI."""

from __future__ import annotations

import json
import threading

import pytest

from repro.api import run_figure
from repro.config import ReproConfig
from repro.exec import ResultCache, SweepExecutor, using_executor
from repro.harness.report import figure_to_csv, save_result
from repro.scenarios import get_scenario, run_items
from repro.service import JobQueue, PointCoalescer, Spool
from repro.service.__main__ import main as service_main

CAP = 8  # tiny sweeps keep this fast
FIG = "fig13"


def _config(tmp_path, **over):
    return ReproConfig.from_env_and_args(
        jobs=1, exec_backend="inline",
        cache_dir=str(tmp_path / "cache"), **over)


def _serial_points():
    """How many simulation points one FIG sweep costs, computed serially."""
    with SweepExecutor(jobs=1, cache=None, backend="inline") as ex, \
            using_executor(ex):
        run_figure(FIG, max_cpus=CAP)
        return ex.stats()["points"]


# ---------------------------------------------------------------------------
# PointCoalescer unit behaviour
# ---------------------------------------------------------------------------

def test_coalescer_single_flight():
    co = PointCoalescer()
    first = co.claim("k1")
    second = co.claim("k1")
    other = co.claim("k2")
    assert first.owner and other.owner and not second.owner
    assert co.inflight() == 2
    first.publish("the-record")
    assert second.wait(timeout=1) == "the-record"
    assert co.inflight() == 1
    other.publish("other")
    assert co.stats() == {"owned": 2, "joined": 1, "inflight": 0}


def test_coalescer_owner_failure_wakes_waiters_empty():
    co = PointCoalescer()
    owner = co.claim("k")
    waiter = co.claim("k")
    owner.fail(RuntimeError("boom"))
    assert waiter.wait(timeout=1) is None
    # The key is free again: the next claimant owns a fresh flight.
    assert co.claim("k").owner


def test_coalescer_waiters_block_until_publish():
    co = PointCoalescer()
    owner = co.claim("k")
    waiter = co.claim("k")
    got = []

    def wait():
        got.append(waiter.wait(timeout=5))

    t = threading.Thread(target=wait)
    t.start()
    owner.publish(42)
    t.join(timeout=5)
    assert got == [42]


# ---------------------------------------------------------------------------
# JobQueue lifecycle
# ---------------------------------------------------------------------------

def test_job_lifecycle_and_artifacts(tmp_path):
    with JobQueue(_config(tmp_path), workers=1,
                  artifacts_dir=tmp_path / "art",
                  ledger_path=tmp_path / "ledger.jsonl") as q:
        job_id = q.submit(["13"], max_cpus=CAP)
        doc = q.result(job_id, timeout=120)
    assert doc["state"] == "done"
    assert doc["items"] == [FIG]  # "13" was normalised at submit
    assert doc["error"] is None
    assert doc["stats"]["points"] > 0
    (item,) = doc["item_results"]
    assert item["id"] == FIG and item["points"] == doc["stats"]["points"]
    assert doc["artifacts"], "artifacts were saved"
    assert any(p.endswith(f"{FIG}.csv") for p in doc["artifacts"])
    rows = [json.loads(line)
            for line in (tmp_path / "ledger.jsonl").read_text().splitlines()]
    (row,) = rows
    assert row["service"] == job_id
    assert row["exec_backend"] == "inline"
    assert row["points"] == doc["stats"]["points"]


def test_submit_normalises_and_validates(tmp_path):
    with JobQueue(_config(tmp_path, no_cache=True), workers=1) as q:
        with pytest.raises(ValueError, match="at least one"):
            q.submit([])
        with pytest.raises(ValueError):
            q.submit(["not-an-id"])
        job = q.submit(figures=[13], tables=["2"], max_cpus=CAP)
        doc = q.result(job, timeout=120)
    assert sorted(doc["items"]) == [FIG, "table2"]
    assert doc["state"] == "done"


def test_unknown_job_id(tmp_path):
    with JobQueue(_config(tmp_path, no_cache=True), workers=1) as q:
        with pytest.raises(KeyError, match="unknown job id"):
            q.status("job-9999")


def test_job_failure_is_terminal_not_fatal(tmp_path):
    with JobQueue(_config(tmp_path, no_cache=True), workers=1) as q:
        bad = q.submit(["fig99"], max_cpus=CAP)  # parses, but unregistered
        good = q.submit(["13"], max_cpus=CAP)
        bad_doc = q.result(bad, timeout=120)
        good_doc = q.result(good, timeout=120)
    assert bad_doc["state"] == "failed"
    assert "unknown figure" in bad_doc["error"]
    assert good_doc["state"] == "done"  # the worker survived the failure


def test_unknown_id_fails_the_job_before_any_point_runs(tmp_path):
    with JobQueue(_config(tmp_path, no_cache=True), workers=1,
                  artifacts_dir=tmp_path / "art") as q:
        doc = q.result(q.submit([FIG, "fig99"], max_cpus=CAP), timeout=120)
    assert doc["state"] == "failed"
    assert "unknown figure 'fig99'" in doc["error"]
    assert doc["stats"]["points"] == 0
    assert doc["item_results"] == [] and doc["artifacts"] == []
    assert not (tmp_path / "art").exists()


def test_job_runs_each_distinct_point_once(tmp_path):
    """A job is one sweep: views of one measurement share its points,
    each item is still charged every point it declares, and the saved
    artifacts are those of ``run_items`` + ``save_result``."""
    requests = [["fig01", "fig02", "fig05", "table3"], ["6", "fig06"],
                ["fig01", "fig02"]]
    with JobQueue(_config(tmp_path, no_cache=True), workers=1,
                  artifacts_dir=tmp_path / "art") as q:
        docs = [q.result(q.submit(items, max_cpus=CAP), timeout=300)
                for items in requests]
    for doc in docs:
        assert doc["state"] == "done", doc["error"]
        plans = {i: [pt.key() for pt in get_scenario(i).plan(CAP)]
                 for i in doc["items"]}
        distinct = {k for keys in plans.values() for k in keys}
        stats = doc["stats"]
        assert stats["points"] == stats["cache_misses"] == len(distinct)
        assert [(r["id"], r["points"]) for r in doc["item_results"]] == \
            [(i, len(plans[i])) for i in doc["items"]]

        ref = tmp_path / "ref" / doc["id"]
        with SweepExecutor(jobs=1, cache=None, backend="inline") as ex, \
                using_executor(ex):
            for result in run_items(list(doc["items"]), CAP):
                save_result(result, ref)
        art = tmp_path / "art" / doc["id"]
        names = sorted(p.name for p in ref.iterdir())
        assert sorted(p.name for p in art.iterdir()) == names
        for name in names:
            assert (art / name).read_bytes() == (ref / name).read_bytes(), name
    # fig01/fig02 are two views of one 10-point ring sweep and
    # fig05/table3 of the 5 flagship runs.
    assert [d["stats"]["points"] for d in docs] == [15, 18, 10]
    assert docs[1]["items"] == ["fig06", "fig06"]


def test_stream_ends_at_terminal_event(tmp_path):
    with JobQueue(_config(tmp_path, no_cache=True), workers=1) as q:
        job = q.submit(["13"], max_cpus=CAP)
        kinds = [ev["type"] for ev in q.stream(job, timeout=120)]
    assert kinds[0] == "queued"
    assert kinds[-1] == "done"
    assert "item" in kinds


def test_submit_after_close_rejected(tmp_path):
    q = JobQueue(_config(tmp_path, no_cache=True), workers=1)
    q.close()
    with pytest.raises(RuntimeError, match="closed"):
        q.submit(["13"])


# ---------------------------------------------------------------------------
# Coalescing: concurrent identical jobs cost one computation
# ---------------------------------------------------------------------------

def test_concurrent_identical_jobs_share_one_computation(tmp_path):
    serial_points = _serial_points()
    with JobQueue(_config(tmp_path), workers=2,
                  artifacts_dir=tmp_path / "art") as q:
        a = q.submit([FIG], max_cpus=CAP)
        b = q.submit([FIG], max_cpus=CAP)
        doc_a = q.result(a, timeout=300)
        doc_b = q.result(b, timeout=300)
        stats = q.stats()
    assert doc_a["state"] == doc_b["state"] == "done"
    # Both jobs saw every point...
    assert stats["points"] == 2 * serial_points
    # ...but between the shared cache and in-flight coalescing, the
    # figure was simulated exactly once in total.
    assert stats["computed"] == serial_points
    assert stats["cache_hits"] + stats["coalesced"] == serial_points
    # And both tenants got byte-identical artifacts.
    csv_a = (tmp_path / "art" / a / f"{FIG}.csv").read_bytes()
    csv_b = (tmp_path / "art" / b / f"{FIG}.csv").read_bytes()
    assert csv_a == csv_b


def test_cache_warm_second_job_all_hits(tmp_path):
    cfg = _config(tmp_path)
    with JobQueue(cfg, workers=1) as q:
        q.result(q.submit([FIG], max_cpus=CAP), timeout=120)
    with JobQueue(cfg, workers=1) as q:  # fresh queue, same store
        doc = q.result(q.submit([FIG], max_cpus=CAP), timeout=120)
    assert doc["stats"]["cache_hits"] == doc["stats"]["points"]
    assert doc["stats"]["cache_misses"] == 0


def test_service_output_matches_direct_api(tmp_path):
    with using_executor(SweepExecutor(jobs=1, cache=None)):
        direct = figure_to_csv(run_figure(FIG, max_cpus=CAP))
    with JobQueue(_config(tmp_path), workers=1,
                  artifacts_dir=tmp_path / "art") as q:
        job = q.submit([FIG], max_cpus=CAP)
        q.result(job, timeout=120)
    served = (tmp_path / "art" / job / f"{FIG}.csv").read_text()
    assert served.replace("\r\n", "\n") == direct.replace("\r\n", "\n")


# ---------------------------------------------------------------------------
# Spool + CLI (python -m repro.service)
# ---------------------------------------------------------------------------

def test_spool_submit_serve_once_status(tmp_path, capsys):
    root = str(tmp_path / "svc")
    args = ["--root", root]
    assert service_main(args + ["submit", "13", "--max-cpus", str(CAP)]) == 0
    request_id = capsys.readouterr().out.strip()

    rc = service_main(args + ["serve", "--once", "--workers", "1",
                              "--jobs", "1", "--exec-backend", "inline",
                              "--cache-dir", str(tmp_path / "cache")])
    assert rc == 0
    assert "[served 1 requests, 0 failed]" in capsys.readouterr().out

    assert service_main(args + ["status", request_id]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["state"] == "done"
    assert doc["items"] == [FIG]
    assert doc["stats"]["points"] > 0
    assert doc["config"]["exec_backend"] == "inline"
    # Artifacts landed under the spool.
    job_dir = tmp_path / "svc" / "artifacts" / doc["job"]
    assert (job_dir / f"{FIG}.csv").is_file()
    # One ledger row for the job.
    ledger = (tmp_path / "svc" / "service_ledger.jsonl").read_text()
    assert len(ledger.splitlines()) == 1


def test_spool_status_listing_and_unknown(tmp_path, capsys):
    root = str(tmp_path / "svc")
    assert service_main(["--root", root, "status"]) == 0
    assert "no jobs" in capsys.readouterr().out
    rc = service_main(["--root", root, "status", "nope"])
    assert rc == 2
    assert "unknown request id" in capsys.readouterr().err


def test_spool_serve_reports_failed_jobs(tmp_path, capsys):
    root = str(tmp_path / "svc")
    assert service_main(["--root", root, "submit", "fig99"]) == 0
    rc = service_main(["--root", root, "serve", "--once", "--workers", "1",
                       "--jobs", "1", "--no-cache"])
    assert rc == 1
    assert "1 failed" in capsys.readouterr().out


def test_spool_serve_rejects_bad_backend(tmp_path, capsys):
    rc = service_main(["--root", str(tmp_path / "svc"), "serve", "--once",
                       "--exec-backend", "bogus"])
    assert rc == 2
    assert "unknown exec backend" in capsys.readouterr().err


def test_spool_gc_collects_terminal_jobs(tmp_path, capsys):
    root = str(tmp_path / "svc")
    cache_dir = str(tmp_path / "cache")
    assert service_main(["--root", root, "submit", "13",
                         "--max-cpus", str(CAP)]) == 0
    assert service_main(["--root", root, "serve", "--once", "--workers",
                         "1", "--jobs", "1",
                         "--cache-dir", cache_dir]) == 0
    capsys.readouterr()
    rc = service_main(["--root", root, "gc", "--older-than-days", "0",
                       "--cache-dir", cache_dir])
    assert rc == 0
    out = capsys.readouterr().out
    assert "removed 1 jobs" in out
    spool = Spool(root)
    assert spool.statuses() == []
    assert not list(spool.artifacts_dir.iterdir())
    # The live cache generation survives gc.
    assert ResultCache(cache_dir).generations()


def test_spool_wait_roundtrip(tmp_path):
    spool = Spool(tmp_path / "svc")
    rid = spool.submit([FIG], max_cpus=CAP)
    assert spool.read_status(rid) is None  # not picked up yet
    with pytest.raises(TimeoutError):
        spool.wait(rid, timeout=0.2, poll_s=0.05)
    assert service_main(["--root", str(tmp_path / "svc"), "serve", "--once",
                         "--workers", "1", "--jobs", "1",
                         "--no-cache"]) == 0
    doc = spool.wait(rid, timeout=5)
    assert doc["state"] == "done"


# ---------------------------------------------------------------------------
# Per-job energy accounting
# ---------------------------------------------------------------------------

def test_job_energy_present_only_when_enabled(tmp_path):
    with JobQueue(_config(tmp_path, no_cache=True), workers=1) as q:
        off = q.result(q.submit([FIG], max_cpus=CAP), timeout=60)
    assert off["state"] == "done"
    assert "energy" not in off  # energy-off jobs never null-pad the field

    with JobQueue(_config(tmp_path, no_cache=True, energy=True),
                  workers=1) as q:
        on = q.result(q.submit([FIG], max_cpus=CAP), timeout=60)
    assert on["state"] == "done"
    assert on["energy"]["runs"] > 0
    assert on["energy"]["total_j"] > 0
    assert on["energy"]["avg_power_w"] > 0


def test_concurrent_jobs_isolate_energy(tmp_path):
    """Two identical energy jobs draining in parallel worker threads must
    each account exactly one sweep — no cross-job joule bleed."""
    with JobQueue(_config(tmp_path, no_cache=True, energy=True),
                  workers=2) as q:
        ids = [q.submit([FIG], max_cpus=CAP) for _ in range(2)]
        docs = [q.result(i, timeout=120) for i in ids]
    assert all(d["state"] == "done" for d in docs)
    blobs = [json.dumps(d["energy"], sort_keys=True) for d in docs]
    assert blobs[0] == blobs[1]  # same work -> byte-identical joules


def test_service_ledger_rows_carry_energy_only_when_enabled(tmp_path):
    ledger = tmp_path / "svc_ledger.jsonl"
    with JobQueue(_config(tmp_path, no_cache=True), workers=1,
                  ledger_path=ledger) as q:
        q.result(q.submit([FIG], max_cpus=CAP), timeout=60)
    with JobQueue(_config(tmp_path, no_cache=True, energy=True), workers=1,
                  ledger_path=ledger) as q:
        q.result(q.submit([FIG], max_cpus=CAP), timeout=60)
    rows = [json.loads(line) for line in ledger.read_text().splitlines()]
    assert len(rows) == 2
    assert "energy_total_j" not in rows[0]
    assert rows[1]["energy_total_j"] > 0
    assert rows[1]["energy_avg_power_w"] > 0


def test_status_listing_prints_unknown_schema_fields(tmp_path, capsys):
    """The plain listing must surface fields it does not know about —
    a newer server's energy stamp shows up instead of vanishing."""
    spool = Spool(tmp_path / "svc").ensure()
    spool.write_status("20260809-000000-abc123", {
        "schema_version": 1, "id": "20260809-000000-abc123",
        "items": [FIG], "state": "done", "wall_s": 1.5,
        "energy": {"total_j": 42.0},
        "novel_field": "from-the-future",
    })
    assert service_main(["--root", str(tmp_path / "svc"), "status"]) == 0
    out = capsys.readouterr().out
    assert 'energy={"total_j": 42.0}' in out
    assert 'novel_field="from-the-future"' in out
