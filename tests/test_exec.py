"""Tests for the parallel sweep executor and result cache (repro.exec)."""

from __future__ import annotations

import json
import multiprocessing
import pickle
import tempfile
import threading
import time
from types import SimpleNamespace

import pytest

from repro.api import run_figure
from repro.exec import cache as cache_module
from repro.exec import (
    PointRecord,
    ResultCache,
    SimPoint,
    SweepExecutor,
    compute_point,
    default_jobs,
    get_executor,
    source_fingerprint,
    using_executor,
)
from repro.harness.report import figure_to_csv
from repro.harness.runner import main as runner_main

CAP = 8  # tiny sweeps keep this fast


# ---------------------------------------------------------------------------
# SimPoint
# ---------------------------------------------------------------------------

def test_simpoint_key_stable_under_param_order():
    a = SimPoint.make("imb", "xeon", 4, benchmark="Alltoall", msg_bytes=1024)
    b = SimPoint.make("imb", "xeon", 4, msg_bytes=1024, benchmark="Alltoall")
    assert a == b
    assert a.key() == b.key()
    assert a.param("msg_bytes") == 1024
    assert a.param("missing", "dflt") == "dflt"


def test_compute_point_unknown_kind():
    with pytest.raises(ValueError, match="unknown simulation point kind"):
        compute_point(SimPoint.make("nope", "xeon", 2))


def test_compute_point_returns_metadata():
    rec = compute_point(
        SimPoint.make("imb", "xeon", 2, benchmark="Sendrecv",
                      msg_bytes=1024))
    assert isinstance(rec, PointRecord)
    assert rec.value.nprocs == 2
    assert rec.events > 0
    assert rec.wall_s >= 0


# ---------------------------------------------------------------------------
# Serial vs parallel determinism
# ---------------------------------------------------------------------------

def test_serial_and_parallel_runs_are_byte_identical():
    with using_executor(SweepExecutor(jobs=1, cache=None)):
        serial = run_figure("fig13", max_cpus=CAP)
    with SweepExecutor(jobs=2, cache=None) as ex, using_executor(ex):
        parallel = run_figure("fig13", max_cpus=CAP)
    assert serial == parallel
    assert figure_to_csv(serial) == figure_to_csv(parallel)


def test_executor_preserves_point_order():
    points = [
        SimPoint.make("imb", "xeon", p, benchmark="Sendrecv", msg_bytes=1024)
        for p in (2, 4, 8)
    ]
    ex = SweepExecutor(jobs=1, cache=None)
    values = ex.run_points(points)
    assert [v.nprocs for v in values] == [2, 4, 8]
    assert ex.stats()["points"] == 3
    assert ex.stats()["events"] > 0


# ---------------------------------------------------------------------------
# Cache behaviour
# ---------------------------------------------------------------------------

def test_cache_miss_then_hit(tmp_path):
    cache = ResultCache(tmp_path / "cache")
    pts = [SimPoint.make("imb", "xeon", p, benchmark="Sendrecv",
                         msg_bytes=1024) for p in (2, 4)]

    ex1 = SweepExecutor(jobs=1, cache=cache)
    first = ex1.run_points(pts)
    assert ex1.cache_misses == 2 and ex1.cache_hits == 0
    assert cache.stores == 2

    cache2 = ResultCache(tmp_path / "cache")
    ex2 = SweepExecutor(jobs=1, cache=cache2)
    second = ex2.run_points(pts)
    assert ex2.cache_hits == 2 and ex2.cache_misses == 0
    assert first == second


def test_cache_fingerprint_change_invalidates(tmp_path):
    root = tmp_path / "cache"
    pt = SimPoint.make("imb", "xeon", 2, benchmark="Sendrecv",
                       msg_bytes=1024)
    rec = compute_point(pt)

    old = ResultCache(root, fingerprint="fp-old")
    old.put(pt, rec)
    assert old.get(pt) is not None

    fresh = ResultCache(root, fingerprint="fp-new")
    assert fresh.get(pt) is None  # busted by the fingerprint change
    assert fresh.misses == 1


def test_cache_clear(tmp_path):
    cache = ResultCache(tmp_path / "cache", fingerprint="fp")
    pt = SimPoint.make("imb", "xeon", 2, benchmark="Sendrecv",
                       msg_bytes=1024)
    cache.put(pt, compute_point(pt))
    assert (tmp_path / "cache").exists()
    cache.clear()
    assert not (tmp_path / "cache").exists()
    assert cache.get(pt) is None


def test_cache_ignores_corrupt_entry(tmp_path):
    cache = ResultCache(tmp_path / "cache", fingerprint="fp")
    pt = SimPoint.make("imb", "xeon", 2, benchmark="Sendrecv",
                       msg_bytes=1024)
    cache.put(pt, compute_point(pt))
    path = cache._path(pt)
    path.write_bytes(b"not a pickle")
    assert cache.get(pt) is None  # treated as a miss, not an error


@pytest.mark.parametrize("blob", [
    b"I12x\n.",                # pickle.load raises ValueError
    b"cnot_a_module\nX\n.",    # pickle.load raises ModuleNotFoundError
], ids=["value_error", "module_not_found"])
def test_cache_counts_unloadable_entry_as_miss(tmp_path, blob):
    cache = ResultCache(tmp_path / "cache", fingerprint="fp")
    pt = SimPoint.make("imb", "xeon", 2, benchmark="Sendrecv",
                       msg_bytes=1024)
    path = cache._path(pt)
    path.parent.mkdir(parents=True)
    path.write_bytes(blob)
    assert cache.get(pt) is None
    assert (cache.hits, cache.misses) == (0, 1)


LIVE_FP, EDITED_FP = "a" * 64, "b" * 64
ENTRY_POINT = SimPoint.make("imb", "xeon", 2, benchmark="Sendrecv",
                            msg_bytes=1024)
ENTRY_RECORD = PointRecord(value=1.5, wall_s=0.25, events=7,
                           obs={"metrics": {"counters": {"x": 1}}})


@pytest.mark.parametrize("when", ["before", "after"])
def test_put_survives_a_concurrent_gc(tmp_path, monkeypatch, when):
    """A ``gc`` run from an edited tree sweeps the live generation
    between ``put``'s mkdir and its rename; the write still lands."""
    sweeper = ResultCache(tmp_path, fingerprint=EDITED_FP)
    swept = []

    def mkstemp(**kw):
        if when == "before" and not swept:
            swept.append(sweeper.gc())
        made = tempfile.mkstemp(**kw)
        if when == "after" and not swept:
            swept.append(sweeper.gc())
        return made

    monkeypatch.setattr(cache_module, "tempfile",
                        SimpleNamespace(mkstemp=mkstemp))
    cache = ResultCache(tmp_path, fingerprint=LIVE_FP)
    cache.put(ENTRY_POINT, ENTRY_RECORD)
    assert swept[0]["removed"] == [LIVE_FP[:16]]
    assert cache.get(ENTRY_POINT) == ENTRY_RECORD
    assert cache.stores == 1


def _put_entry(root: str, times: int) -> None:
    """Write the one test entry ``times`` times (a thread or a process)."""
    cache = ResultCache(root, fingerprint=LIVE_FP)
    for _ in range(times):
        cache.put(ENTRY_POINT, ENTRY_RECORD)


def test_concurrent_writers_of_one_entry(tmp_path):
    """Tempfile + rename alone keeps one entry whole under 4 writer
    threads and 2 writer processes: a reader never sees it torn."""
    _put_entry(tmp_path, 1)
    spawn = multiprocessing.get_context("spawn")
    procs = [spawn.Process(target=_put_entry, args=(str(tmp_path), 200))
             for _ in range(2)]
    threads = [threading.Thread(target=_put_entry, args=(tmp_path, 200))
               for _ in range(4)]
    for worker in procs + threads:
        worker.start()
    reader = ResultCache(tmp_path, fingerprint=LIVE_FP)
    deadline = time.monotonic() + 60
    while (any(worker.is_alive() for worker in procs + threads)
           and time.monotonic() < deadline):
        assert reader.get(ENTRY_POINT) == ENTRY_RECORD
    for worker in procs + threads:
        worker.join(timeout=60)
        assert not worker.is_alive()
    assert [proc.exitcode for proc in procs] == [0, 0]
    assert reader.misses == 0 and reader.hits > 0
    cache = ResultCache(tmp_path, fingerprint=LIVE_FP)
    assert cache.get(ENTRY_POINT) == ENTRY_RECORD
    path = cache._path(ENTRY_POINT)
    assert path.read_bytes() == pickle.dumps(
        ENTRY_RECORD, protocol=pickle.HIGHEST_PROTOCOL)
    # No tempfile or lock file is left behind: the entry is all there is.
    assert [f for f in tmp_path.rglob("*") if f.is_file()] == [path]


def test_source_fingerprint_tracks_content(tmp_path):
    tree = tmp_path / "pkg"
    tree.mkdir()
    (tree / "a.py").write_text("x = 1\n")
    fp1 = source_fingerprint(tree)
    (tree / "a.py").write_text("x = 2\n")
    # memoised per root-string: use a distinct tree to observe the change
    tree2 = tmp_path / "pkg2"
    tree2.mkdir()
    (tree2 / "a.py").write_text("x = 2\n")
    fp2 = source_fingerprint(tree2)
    assert fp1 != fp2
    assert len(fp1) == 64


def test_default_executor_is_serial_and_uncached():
    ex = get_executor()
    assert ex.jobs == 1
    assert ex.cache is None


def test_default_jobs_env(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "3")
    assert default_jobs() == 3
    monkeypatch.setenv("REPRO_JOBS", "zero")
    with pytest.raises(ValueError, match="REPRO_JOBS"):
        default_jobs()


# ---------------------------------------------------------------------------
# Runner CLI integration
# ---------------------------------------------------------------------------

def test_runner_rejects_unknown_figure(capsys):
    rc = runner_main(["--figure", "0"])
    assert rc == 2
    assert "unknown figure" in capsys.readouterr().err


def test_runner_rejects_unknown_table(capsys):
    rc = runner_main(["--table", "9"])
    assert rc == 2
    assert "unknown table" in capsys.readouterr().err


def test_runner_rejects_bad_repro_jobs(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_JOBS", "lots")
    rc = runner_main(["--figure", "13", "--max-cpus", "4", "--no-cache"])
    assert rc == 2
    assert "REPRO_JOBS" in capsys.readouterr().err


def test_runner_rejects_garbage_id(capsys):
    rc = runner_main(["--figure", "abc"])
    assert rc == 2
    assert "invalid figure id" in capsys.readouterr().err


def test_runner_cache_roundtrip_and_bench_json(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    bench1 = tmp_path / "b1.json"
    bench2 = tmp_path / "b2.json"
    base = ["--figure", "13", "--max-cpus", "4", "--cache-dir", cache_dir]

    assert runner_main(base + ["--bench-json", str(bench1)]) == 0
    doc1 = json.loads(bench1.read_text())
    assert doc1["totals"]["cache_misses"] > 0
    assert doc1["totals"]["cache_hits"] == 0

    assert runner_main(base + ["--bench-json", str(bench2)]) == 0
    doc2 = json.loads(bench2.read_text())
    assert doc2["totals"]["cache_misses"] == 0
    assert doc2["totals"]["cache_hits"] == doc1["totals"]["cache_misses"]

    (item,) = doc2["items"]
    assert item["id"] == "fig13"
    assert item["events"] == doc1["items"][0]["events"]
    assert {"wall_s", "points", "events_per_sec"} <= set(item)


def test_runner_cache_clear_flag(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)  # bench/ledger artifacts default to cwd
    cache_dir = tmp_path / "cache"
    base = ["--figure", "13", "--max-cpus", "4", "--cache-dir",
            str(cache_dir)]
    assert runner_main(base) == 0
    assert cache_dir.exists()
    assert runner_main(["--cache-clear", "--cache-dir", str(cache_dir)]) == 0
    assert not cache_dir.exists()


def test_runner_no_cache_flag(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cache_dir = tmp_path / "cache"
    rc = runner_main(["--figure", "13", "--max-cpus", "4", "--no-cache",
                      "--cache-dir", str(cache_dir)])
    assert rc == 0
    assert not cache_dir.exists()
