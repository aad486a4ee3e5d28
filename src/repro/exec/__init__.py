"""Parallel sweep execution with content-addressed result caching.

The paper's figures and tables are sweeps of independent simulation
points (machine x rank-count x benchmark).  This package decomposes those
sweeps into :class:`SimPoint` units, runs them through a
:class:`SweepExecutor` whose compute path is a pluggable execution
backend (:mod:`repro.exec.backends`: ``inline`` serial, ``subprocess``
worker fleet), and merges results
deterministically so every backend produces byte-identical output.
:func:`~repro.exec.backends.resolve_exec_backend_name` is the one rule
that picks the backend when none is named.  Results are cached in a
multi-tenant content-addressed store (:mod:`repro.exec.cache`) whose
entries are written by tempfile + atomic rename, so concurrent runs may
share it without locks.
"""

from ..config import DEFAULT_CACHE_DIR, default_jobs
from .backends import (
    EXEC_BACKENDS,
    ExecBackend,
    ExecBackendError,
    WorkerContext,
    available_exec_backends,
    init_worker,
    make_exec_backend,
    register_exec_backend,
    resolve_exec_backend_name,
)
from .cache import ResultCache, source_fingerprint
from .executor import (
    SweepExecutor,
    get_executor,
    set_executor,
    using_executor,
)
from .points import SimPoint
from .worker import PointRecord, compute_point

__all__ = [
    "DEFAULT_CACHE_DIR",
    "EXEC_BACKENDS",
    "ExecBackend",
    "ExecBackendError",
    "PointRecord",
    "ResultCache",
    "SimPoint",
    "SweepExecutor",
    "WorkerContext",
    "available_exec_backends",
    "compute_point",
    "default_jobs",
    "get_executor",
    "init_worker",
    "make_exec_backend",
    "register_exec_backend",
    "resolve_exec_backend_name",
    "set_executor",
    "source_fingerprint",
    "using_executor",
]
