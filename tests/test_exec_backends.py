"""Backend-contract tests: every exec backend must be indistinguishable
from serial inline computation except for the wall clock."""

from __future__ import annotations

import pytest

from repro.api import run_figure
from repro.config import EXEC_BACKEND_ENV, ReproConfig
from repro.core.errors import ConfigError
from repro.exec import (ResultCache, SimPoint, SweepExecutor, compute_point,
                        using_executor)
from repro.exec.backends import (
    EXEC_BACKENDS,
    ExecBackend,
    ExecBackendError,
    WorkerContext,
    available_exec_backends,
    compute_inline,
    decode_wire,
    encode_wire,
    make_exec_backend,
    register_exec_backend,
)
from repro.harness.report import figure_to_csv
from repro.obs import RECORDERS, MetricsRegistry, current, install, using

CAP = 8  # tiny sweeps keep this fast

ALL_BACKENDS = ("inline", "pool", "subprocess")


def _points(nprocs=(2, 4, 8)):
    return [SimPoint.make("imb", "xeon", p, benchmark="Sendrecv",
                          msg_bytes=1024) for p in nprocs]


# ---------------------------------------------------------------------------
# The contract: byte-identical output across backends
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def inline_reference():
    with SweepExecutor(jobs=1, cache=None, backend="inline") as ex, \
            using_executor(ex):
        return run_figure("fig13", max_cpus=CAP)


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_backend_figure_byte_identical(backend, inline_reference):
    with SweepExecutor(jobs=2, cache=None, backend=backend) as ex, \
            using_executor(ex):
        result = run_figure("fig13", max_cpus=CAP)
    assert result == inline_reference
    assert figure_to_csv(result) == figure_to_csv(inline_reference)


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_backend_preserves_order_and_stats(backend):
    with SweepExecutor(jobs=2, cache=None, backend=backend) as ex:
        values = ex.run_points(_points())
        assert [v.nprocs for v in values] == [2, 4, 8]
        st = ex.stats()
    assert st["points"] == 3
    assert st["cache_misses"] == 3
    assert st["coalesced"] == 0
    assert st["events"] > 0


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_backend_metrics_merge_matches_inline(backend):
    """The fan-in metrics merge is commutative: engine counters are the
    same whether points ran serially in-process or fanned out."""
    def run(backend_name):
        previous = current("metrics")
        install(MetricsRegistry(enabled=True))
        try:
            with SweepExecutor(jobs=2, cache=None,
                               backend=backend_name) as ex:
                ex.run_points(_points())
            return current("metrics").snapshot()
        finally:
            install(previous)

    reference = run("inline")
    snap = run(backend)
    ref_counters = {k: v for k, v in reference["counters"].items()
                    if k.startswith("engine.")}
    got_counters = {k: v for k, v in snap["counters"].items()
                    if k.startswith("engine.")}
    assert ref_counters and got_counters == ref_counters
    assert snap["counters"]["exec.points"] == 3
    assert snap["counters"]["cache.misses"] == 3


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_backend_streams_each_miss_to_the_cache_once(backend, tmp_path):
    """With every recorder on and a fresh cache, each miss is written
    once, reads back as the inline run's record, and the replayed
    recorders' fan-in equals the inline run's snapshot for snapshot."""
    pts = _points()

    def run(backend_name, cache):
        recs = [cls(enabled=True) for cls in RECORDERS.values()]
        with using(*recs), SweepExecutor(jobs=2, cache=cache,
                                         backend=backend_name) as ex:
            ex.run_points(pts)
            misses = ex.stats()["cache_misses"]
        return {rec.name: rec.snapshot() for rec in recs}, misses

    ref_cache = ResultCache(tmp_path / "reference")
    reference, _ = run("inline", ref_cache)
    cache = ResultCache(tmp_path / backend)
    snaps, misses = run(backend, cache)
    assert cache.stores == misses == len(pts)
    for pt in pts:
        got, want = cache.get(pt), ref_cache.get(pt)
        assert (got.value, got.events, got.obs) == \
            (want.value, want.events, want.obs)
    for name in ("timeline", "comm", "energy"):
        assert snaps[name] == reference[name]


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_backend_empty_batch(backend):
    with SweepExecutor(jobs=2, cache=None, backend=backend) as ex:
        assert ex.run_points([]) == []
        assert ex.stats()["points"] == 0


def test_point_error_propagates_not_wrapped():
    bad = SimPoint.make("nope", "xeon", 2)
    with SweepExecutor(jobs=1, cache=None, backend="inline") as ex:
        with pytest.raises(ValueError, match="unknown simulation point"):
            ex.run_points([bad])


@pytest.mark.parametrize("backend", ["pool", "subprocess"])
def test_executor_deals_largest_first_and_returns_input_order(backend):
    pts = _points((4, 16, 2)) + [SimPoint.make(
        "imb", "xeon", 16, benchmark="Sendrecv", msg_bytes=2048)]
    inner = make_exec_backend(backend, 2)
    dealt: list[str] = []
    compute = inner.compute

    def spy(points, on_record):
        dealt.extend(pt.key() for pt in points)
        return compute(points, on_record)

    inner.compute = spy
    with SweepExecutor(jobs=2, cache=None, backend=inner) as ex:
        values = ex.run_points(pts)
    # Largest first; the two 16-rank points keep their input order.
    assert dealt == [pts[i].key() for i in (1, 3, 0, 2)]
    assert values == [compute_point(pt).value for pt in pts]


# ---------------------------------------------------------------------------
# Registry mechanics
# ---------------------------------------------------------------------------

def test_registry_lists_builtins():
    assert set(ALL_BACKENDS) <= set(available_exec_backends())


def test_make_exec_backend_unknown_name():
    with pytest.raises(ConfigError, match="unknown exec backend"):
        make_exec_backend("warp-drive", jobs=2)


def test_make_exec_backend_passthrough_instance():
    inst = make_exec_backend("inline")
    assert make_exec_backend(inst) is inst


def test_register_custom_backend():
    class Echo(ExecBackend):
        name = "echo-test"

        def __init__(self, jobs=1):
            self.jobs = jobs

        def compute(self, points, on_record=lambda i, rec: None):
            return compute_inline(points, on_record)

    register_exec_backend("echo-test", Echo)
    try:
        ex = SweepExecutor(jobs=3, cache=None, backend="echo-test")
        assert ex.backend.jobs == 3
        assert len(ex.run_points(_points((2,)))) == 1
    finally:
        EXEC_BACKENDS.pop("echo-test", None)


#: (explicit name, REPRO_EXEC_BACKEND, jobs) -> resolved backend name.
RESOLUTION_TABLE = {
    "serial-default": (None, None, 1, "inline"),
    "jobs-default": (None, None, 4, "pool"),
    "blank-env-is-unset": (None, "  ", 4, "pool"),
    "env-beats-serial": (None, "subprocess", 1, "subprocess"),
    "env-beats-jobs": (None, "inline", 4, "inline"),
    "explicit-beats-env": ("inline", "pool", 8, "inline"),
    "explicit-beats-jobs": ("subprocess", None, 1, "subprocess"),
}


@pytest.mark.parametrize("explicit, env, jobs, want",
                         RESOLUTION_TABLE.values(), ids=RESOLUTION_TABLE)
def test_backend_name_resolution(monkeypatch, explicit, env, jobs, want):
    """The config and an executor given the same name (or None) agree."""
    if env is None:
        monkeypatch.delenv(EXEC_BACKEND_ENV, raising=False)
    else:
        monkeypatch.setenv(EXEC_BACKEND_ENV, env)
    cfg = ReproConfig.from_env_and_args(jobs=jobs, exec_backend=explicit)
    assert cfg.exec_backend == want
    with SweepExecutor(jobs=jobs, cache=None, backend=explicit) as ex:
        assert ex.backend.name == want


def test_bad_backend_name_names_its_source(monkeypatch):
    monkeypatch.setenv(EXEC_BACKEND_ENV, "bogus")
    env_error = f"unknown exec backend 'bogus' in {EXEC_BACKEND_ENV}"
    with pytest.raises(ConfigError, match=env_error):
        ReproConfig.from_env_and_args(jobs=2)
    with pytest.raises(ConfigError, match=env_error):
        SweepExecutor(jobs=2, cache=None, backend=None)
    # An explicit name is blamed on itself, not on the environment.
    monkeypatch.setenv(EXEC_BACKEND_ENV, "pool")
    for resolve in (
            lambda: ReproConfig.from_env_and_args(exec_backend="bogus"),
            lambda: SweepExecutor(jobs=2, cache=None, backend="bogus")):
        with pytest.raises(ConfigError,
                           match="unknown exec backend 'bogus'") as info:
            resolve()
        assert EXEC_BACKEND_ENV not in str(info.value)


# ---------------------------------------------------------------------------
# Transport failure: partial results requeue, counted once
# ---------------------------------------------------------------------------

class _CrashOnceBackend(ExecBackend):
    """Completes the first point, then dies — like a killed fleet worker."""

    name = "crash-once"

    def __init__(self, jobs=1):
        self.jobs = jobs
        self.calls = 0

    def compute(self, points, on_record=lambda i, rec: None):
        self.calls += 1
        if self.calls == 1:
            rec = compute_point(points[0])
            on_record(0, rec)
            raise ExecBackendError("worker exited mid-batch", done={0: rec})
        return compute_inline(points, on_record)


def test_transport_failure_requeues_only_missing_points():
    pts = _points()
    backend = _CrashOnceBackend()
    ex = SweepExecutor(jobs=2, cache=None, backend=backend)
    values = ex.run_points(pts)
    assert [v.nprocs for v in values] == [2, 4, 8]
    assert backend.calls == 1          # requeue is inline, not via backend
    assert ex.stats()["requeued"] == 2  # points 1 and 2 were casualties


def test_stats_count_points_once_after_requeue():
    """Regression: the old retry path re-entered run_points on the
    unfinished tail, double-counting them in points_total."""
    pts = _points()
    ex = SweepExecutor(jobs=2, cache=None, backend=_CrashOnceBackend())
    ex.run_points(pts)
    st = ex.stats()
    assert st["points"] == len(pts)          # not len(pts) + casualties
    assert st["cache_misses"] == len(pts)
    assert st["cache_hits"] == 0


def test_requeued_results_match_clean_run():
    pts = _points()
    with SweepExecutor(jobs=1, cache=None, backend="inline") as ex:
        clean = ex.run_points(pts)
    crashed = SweepExecutor(jobs=2, cache=None,
                            backend=_CrashOnceBackend()).run_points(pts)
    assert crashed == clean


# ---------------------------------------------------------------------------
# Wire encoding (the subprocess fleet protocol)
# ---------------------------------------------------------------------------

def test_point_and_record_encode_roundtrip():
    (pt,) = _points((4,))
    assert decode_wire(encode_wire(pt)) == pt
    rec = compute_point(pt)
    back = decode_wire(encode_wire(rec))
    assert back.value == rec.value
    assert back.events == rec.events


def test_worker_context_roundtrip():
    ctx = WorkerContext(recorders=("metrics", "timeline"), macro_above=2048)
    assert WorkerContext.from_dict(ctx.to_dict()) == ctx


def test_worker_context_rejects_unknown_recorder():
    doc = WorkerContext(recorders=("metrics",)).to_dict()
    doc["recorders"].append("telemetry")  # ambient, but not per-point
    with pytest.raises(ConfigError, match="unknown recorder 'telemetry'"):
        WorkerContext.from_dict(doc)


def test_worker_context_capture_defaults():
    ctx = WorkerContext.capture()
    assert ctx.recorders == ()  # every ambient recorder is off in tests
    assert ctx.macro_above is None  # exact unless a threshold is set
