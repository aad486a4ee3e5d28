"""Backend-contract tests: every exec backend must be indistinguishable
from serial inline computation except for the wall clock."""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigError
from repro.exec import SimPoint, SweepExecutor, compute_point, using_executor
from repro.exec.backends import (
    EXEC_BACKENDS,
    ExecBackend,
    ExecBackendError,
    WorkerContext,
    available_exec_backends,
    decode_point,
    decode_record,
    default_exec_backend_name,
    encode_point,
    encode_record,
    make_exec_backend,
    register_exec_backend,
    set_default_exec_backend,
)
from repro.harness.figures import imb_figure
from repro.harness.report import figure_to_csv
from repro.obs import MetricsRegistry, current, install

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
        return imb_figure("fig13", max_cpus=CAP)


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_backend_figure_byte_identical(backend, inline_reference):
    with SweepExecutor(jobs=2, cache=None, backend=backend) as ex, \
            using_executor(ex):
        result = imb_figure("fig13", max_cpus=CAP)
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
def test_backend_empty_batch(backend):
    with SweepExecutor(jobs=2, cache=None, backend=backend) as ex:
        assert ex.run_points([]) == []
        assert ex.stats()["points"] == 0


def test_point_error_propagates_not_wrapped():
    bad = SimPoint.make("nope", "xeon", 2)
    with SweepExecutor(jobs=1, cache=None, backend="inline") as ex:
        with pytest.raises(ValueError, match="unknown simulation point"):
            ex.run_points([bad])


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

        def compute(self, points):
            return [compute_point(pt) for pt in points]

    register_exec_backend("echo-test", Echo)
    try:
        ex = SweepExecutor(jobs=3, cache=None, backend="echo-test")
        assert ex.backend.jobs == 3
        assert len(ex.run_points(_points((2,)))) == 1
    finally:
        EXEC_BACKENDS.pop("echo-test", None)


def test_default_backend_resolution(monkeypatch):
    monkeypatch.delenv("REPRO_EXEC_BACKEND", raising=False)
    assert default_exec_backend_name(jobs=1) == "inline"
    assert default_exec_backend_name(jobs=4) == "pool"
    monkeypatch.setenv("REPRO_EXEC_BACKEND", "subprocess")
    assert default_exec_backend_name(jobs=1) == "subprocess"
    monkeypatch.setenv("REPRO_EXEC_BACKEND", "bogus")
    with pytest.raises(ConfigError, match="REPRO_EXEC_BACKEND"):
        default_exec_backend_name()


def test_set_default_exec_backend_overrides_env(monkeypatch):
    monkeypatch.setenv("REPRO_EXEC_BACKEND", "pool")
    old = set_default_exec_backend("inline")
    try:
        assert default_exec_backend_name(jobs=8) == "inline"
        with pytest.raises(ConfigError):
            set_default_exec_backend("bogus")
    finally:
        set_default_exec_backend(old)


# ---------------------------------------------------------------------------
# Transport failure: partial results requeue, counted once
# ---------------------------------------------------------------------------

class _CrashOnceBackend(ExecBackend):
    """Completes the first point, then dies — like a killed fleet worker."""

    name = "crash-once"

    def __init__(self, jobs=1):
        self.jobs = jobs
        self.calls = 0

    def compute(self, points):
        self.calls += 1
        if self.calls == 1:
            raise ExecBackendError(
                "worker exited mid-batch",
                done={0: compute_point(points[0])})
        return [compute_point(pt) for pt in points]


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
    assert decode_point(encode_point(pt)) == pt
    rec = compute_point(pt)
    back = decode_record(encode_record(rec))
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
