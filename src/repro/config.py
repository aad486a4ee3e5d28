"""Unified run configuration: one resolver for flags, env vars, defaults.

Every entry point used to thread its own ad-hoc mix of CLI flags
(``--jobs``, ``--macro-above``, ``--cache-dir``, ``--no-cache``) and
environment variables (``REPRO_JOBS``, ``REPRO_MACRO_ABOVE``, ...)
with precedence decided differently per CLI.  :class:`ReproConfig`
collapses all of that into one frozen dataclass with a single resolution
rule, applied uniformly to every knob:

    explicit argument  >  environment variable  >  built-in default

:meth:`ReproConfig.from_env_and_args` is the only resolver; the harness
CLI, the validation CLI, the sweep service, and worker-process
initialisation all pass the resulting config explicitly instead of
re-reading ``os.environ`` at different times.  The CLIs declare the
shared flags through one call, :meth:`ReproConfig.add_arguments`.

Environment variables:

=====================  =====================================================
``REPRO_JOBS``         worker processes for sweep fan-out (default: CPUs)
``REPRO_MACRO_ABOVE``  IMB collective fast-path strictly above N ranks
                       (unset: exact everywhere; see :mod:`repro.imb.fastpath`)
``REPRO_EXEC_BACKEND`` executor backend (see :mod:`repro.exec.backends`)
``REPRO_CACHE_DIR``    result-cache directory (default ``.repro_cache``)
``REPRO_NO_CACHE``     ``1`` disables the on-disk result cache
``REPRO_ENERGY``       ``1`` enables energy accounting (``--energy``)
``REPRO_TELEMETRY``    ``1`` enables service telemetry (``--telemetry``)
=====================  =====================================================
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Any

from .core.errors import ConfigError
from .imb import fastpath

#: Environment variable naming the worker-process count.
JOBS_ENV = "REPRO_JOBS"

#: Environment variable naming the executor backend.
EXEC_BACKEND_ENV = "REPRO_EXEC_BACKEND"

#: Environment variable naming the result-cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Environment variable disabling the result cache (``1``/``true``).
NO_CACHE_ENV = "REPRO_NO_CACHE"

#: Environment variable enabling energy accounting (``1``/``true``).
ENERGY_ENV = "REPRO_ENERGY"

#: Environment variable enabling service telemetry (``1``/``true``).
TELEMETRY_ENV = "REPRO_TELEMETRY"

#: Default cache location (relative to the current working directory).
DEFAULT_CACHE_DIR = ".repro_cache"

_TRUE = frozenset({"1", "true", "yes", "on"})
_FALSE = frozenset({"0", "false", "no", "off"})


def default_jobs() -> int:
    """Worker count: ``REPRO_JOBS`` env var, else the host CPU count."""
    env = os.environ.get(JOBS_ENV, "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"{JOBS_ENV} must be an integer, got {env!r}"
            ) from None
    return os.cpu_count() or 1


def _env_str(name: str) -> str | None:
    raw = os.environ.get(name, "").strip()
    return raw or None


def _env_flag(name: str) -> bool | None:
    raw = os.environ.get(name, "").strip().lower()
    if not raw:
        return None
    if raw in _TRUE:
        return True
    if raw in _FALSE:
        return False
    raise ConfigError(f"{name} must be a boolean flag "
                      f"(1/0/true/false), got {raw!r}")


def _rank_threshold(raw: int | str, source: str) -> int:
    """``raw`` as a rank count >= 0, else :class:`ConfigError`."""
    try:
        value = int(raw)
    except (TypeError, ValueError):
        raise ConfigError(
            f"{source} must be an integer, got {raw!r}") from None
    if value < 0:
        raise ConfigError(f"{source} must be >= 0, got {value}")
    return value


@dataclass(frozen=True)
class ReproConfig:
    """Resolved, immutable run configuration.

    Construct via :meth:`from_env_and_args` (or :meth:`defaults` for the
    pure-default config) rather than by hand, so every field has been
    validated and the flag/env precedence is consistent.
    """

    #: Worker processes for sweep fan-out (>= 1).
    jobs: int
    #: Executor backend name (:mod:`repro.exec.backends`).
    exec_backend: str
    #: IMB collectives are priced analytically strictly above this many
    #: ranks (:mod:`repro.imb.fastpath`); ``None`` is exact everywhere.
    macro_above: int | None = None
    #: On-disk result-cache directory.
    cache_dir: str = DEFAULT_CACHE_DIR
    #: Whether the on-disk result cache is used at all.
    cache: bool = True
    #: Whether energy accounting (:mod:`repro.obs.energy`) is recorded.
    energy: bool = False
    #: Whether service telemetry (:mod:`repro.obs.telemetry` traces plus
    #: :mod:`repro.service.health` events/exposition) is recorded.
    telemetry: bool = False

    # -- construction -------------------------------------------------------

    @staticmethod
    def add_arguments(parser) -> None:
        """Add the shared run-configuration flags to an argparse parser.

        ``--jobs/-j``, ``--macro-above``, ``--exec-backend``,
        ``--no-cache`` and ``--cache-dir`` all default to ``None`` ("not
        given"), so :meth:`from_env_and_args` falls through to the env
        var, then the built-in default.
        """
        from .exec.backends import available_exec_backends

        parser.add_argument(
            "--jobs", "-j", type=int, default=None,
            help=f"worker processes for sweep points (default: {JOBS_ENV} "
                 "env var, else CPU count); N > 1 starts a worker fleet, "
                 "about 0.4 s once per run")
        parser.add_argument(
            "--macro-above", default=None, metavar="N",
            help="price IMB collectives analytically above N ranks "
                 f"(default: {fastpath.MACRO_ABOVE_ENV} env var, else "
                 "exact everywhere)")
        parser.add_argument(
            "--exec-backend", default=None, metavar="NAME",
            help="executor backend for sweep points "
                 f"({', '.join(available_exec_backends())}; default: "
                 f"{EXEC_BACKEND_ENV} env var, else subprocess for "
                 "--jobs > 1)")
        parser.add_argument(
            "--no-cache", action="store_true", default=None,
            help="disable the on-disk result cache (default: "
                 f"{NO_CACHE_ENV} env var, else cached)")
        parser.add_argument(
            "--cache-dir", default=None,
            help=f"result cache directory (default: {CACHE_DIR_ENV} env "
                 f"var, else {DEFAULT_CACHE_DIR})")

    @classmethod
    def defaults(cls) -> "ReproConfig":
        """The all-defaults config (env vars still consulted)."""
        return cls.from_env_and_args()

    @classmethod
    def from_env_and_args(cls, args: Any = None, *,
                          jobs: int | None = None,
                          macro_above: int | str | None = None,
                          exec_backend: str | None = None,
                          cache_dir: str | None = None,
                          no_cache: bool | None = None,
                          energy: bool | None = None,
                          telemetry: bool | None = None) -> "ReproConfig":
        """Resolve a config: explicit argument > env var > default.

        ``args`` may be an ``argparse.Namespace`` (or any object) whose
        ``jobs`` / ``macro_above`` / ``exec_backend`` / ``cache_dir``
        / ``no_cache`` attributes supply the explicit layer; keyword
        arguments override even those.  ``None`` (and ``None``-defaulted
        CLI flags) mean "not given", falling through to the environment.

        Raises :class:`~repro.core.errors.ConfigError` for an unknown
        backend name or a ``macro_above`` that is not an integer >= 0,
        and :class:`ValueError` for a malformed
        ``REPRO_JOBS`` so CLIs can fail with a usage error before any
        simulation starts.
        """
        def arg(name, explicit):
            if explicit is not None:
                return explicit
            return getattr(args, name, None) if args is not None else None

        r_jobs = arg("jobs", jobs)
        if r_jobs is None:
            r_jobs = default_jobs()
        r_jobs = max(1, int(r_jobs))

        r_macro = arg("macro_above", macro_above)
        if r_macro is not None:
            r_macro = _rank_threshold(r_macro, "--macro-above")
        elif (env := _env_str(fastpath.MACRO_ABOVE_ENV)) is not None:
            r_macro = _rank_threshold(env, fastpath.MACRO_ABOVE_ENV)

        # Deferred import: the backends module imports this one.
        from .exec.backends import resolve_exec_backend_name
        r_exec = resolve_exec_backend_name(
            arg("exec_backend", exec_backend), r_jobs)

        r_cache_dir = arg("cache_dir", cache_dir)
        if r_cache_dir is None:
            r_cache_dir = _env_str(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR

        r_no_cache = arg("no_cache", no_cache)
        if r_no_cache is None:
            r_no_cache = _env_flag(NO_CACHE_ENV) or False

        r_energy = arg("energy", energy)
        if r_energy is None:
            r_energy = _env_flag(ENERGY_ENV) or False

        r_telemetry = arg("telemetry", telemetry)
        if r_telemetry is None:
            r_telemetry = _env_flag(TELEMETRY_ENV) or False

        return cls(jobs=r_jobs, macro_above=r_macro, exec_backend=r_exec,
                   cache_dir=str(r_cache_dir), cache=not r_no_cache,
                   energy=bool(r_energy), telemetry=bool(r_telemetry))

    # -- derived objects ----------------------------------------------------

    def with_overrides(self, **changes) -> "ReproConfig":
        """A copy with ``changes`` applied (dataclass ``replace``)."""
        return replace(self, **changes)

    def apply_macro_above(self) -> None:
        """Install :attr:`macro_above` as the process-wide fast-path
        threshold (:func:`repro.imb.fastpath.set_macro_above`)."""
        fastpath.set_macro_above(self.macro_above)

    def make_cache(self):
        """A :class:`~repro.exec.cache.ResultCache` per this config.

        Returns ``None`` when caching is disabled.
        """
        if not self.cache:
            return None
        from .exec.cache import ResultCache
        return ResultCache(self.cache_dir)

    def make_executor(self, coalescer=None):
        """A fully configured :class:`~repro.exec.SweepExecutor`."""
        from .exec.executor import SweepExecutor
        return SweepExecutor(jobs=self.jobs, cache=self.make_cache(),
                             backend=self.exec_backend, coalescer=coalescer)

    def to_dict(self) -> dict:
        """JSON-able snapshot (service status files, bench artifacts)."""
        return {
            "jobs": self.jobs,
            "exec_backend": self.exec_backend,
            "macro_above": self.macro_above,
            "cache_dir": self.cache_dir,
            "cache": self.cache,
            "energy": self.energy,
            "telemetry": self.telemetry,
        }
