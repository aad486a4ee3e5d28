"""Analytic macro fast-path for steady-state IMB collective phases.

The IMB collective benchmarks are *steady state by construction*: every
measured iteration performs the identical collective on the identical
message size, so the per-iteration time the message-level simulation
converges to is exactly what the closed forms in
:mod:`repro.network.macro` price.  When the process-wide threshold is
set (``--macro-above N`` or ``REPRO_MACRO_ABOVE``, resolved by
:class:`repro.config.ReproConfig` and installed with
:func:`set_macro_above`) and the rank count is strictly above it,
:meth:`repro.imb.framework.IMBBenchmark.run` short-circuits the whole
cluster simulation with one pricer call — this is what makes 100k–1M-rank
scale studies tractable (the message-level path would schedule ~P log P
events per collective call).  Unset, the default, every point is
simulated exactly.

Correctness discipline (mirrors the golden oracle's expectations):

* The pricer table mirrors the *algorithm selection rules* of
  :mod:`repro.mpi.collectives` — size thresholds, power-of-two splits,
  small-communicator special cases — so the closed form always prices
  the same algorithm the message-level path would have scheduled.
* Nothing is fast-pathed unless a threshold is set, so every
  figure/table of a default run is produced by the exact message-level
  simulation; ``repro.validate`` proves that byte-for-byte.
* Fast-pathed results are never cache-compatible with exact results:
  :func:`result_tag` salts the result-cache address, the coalescer claim
  key and the ledger ``run_key`` whenever a threshold is set.
"""

from __future__ import annotations

from ..machine.system import MachineSpec
from ..mpi.collectives import (
    ALLGATHER_TOTAL_SHORT,
    ALLREDUCE_SHORT,
    ALLTOALL_SHORT,
    BCAST_SHORT,
    REDUCE_SHORT,
    _is_pow2,
)
from ..network import macro

#: Environment variable setting the fast-path rank threshold.
MACRO_ABOVE_ENV = "REPRO_MACRO_ABOVE"

#: Process-wide threshold: fast-path strictly above this many ranks;
#: ``None`` simulates everything exactly.
_macro_above: int | None = None


def set_macro_above(n: int | None) -> int | None:
    """Install (or with ``None`` clear) the threshold; returns the old one.

    Callers validate ``n`` first: CLIs through
    :meth:`repro.config.ReproConfig.from_env_and_args`, workers through
    their parent's :class:`repro.exec.backends.WorkerContext`.
    """
    global _macro_above
    previous, _macro_above = _macro_above, n
    return previous


def macro_above() -> int | None:
    """The installed threshold, ``None`` when every point is exact."""
    return _macro_above


def fastpath_active(nprocs: int) -> bool:
    """Whether the macro fast-path may replace a simulation at ``nprocs``."""
    return _macro_above is not None and nprocs > _macro_above


def result_tag() -> str | None:
    """Result salt for the fast-path mode, ``None`` when exact.

    Fast-pathed points are priced analytically, so their results must
    never be served to (or from) exact runs: the cache address, the
    coalescer claim key and the ledger ``run_key`` all carry this tag.
    """
    if _macro_above is None:
        return None
    return f"macro-fastpath>{_macro_above}"


def salt(key: str) -> str:
    """``key`` salted with :func:`result_tag`; unchanged when exact."""
    tag = result_tag()
    return key if tag is None else f"{key}\n{tag}"


# -- per-benchmark pricers, mirroring mpi.collectives selection rules -------

def _barrier(ctx: macro.MacroContext, n: float) -> float:
    return macro.barrier_dissemination_time(ctx)


def _bcast(ctx: macro.MacroContext, n: float) -> float:
    if n < BCAST_SHORT or ctx.nprocs < 8:
        return macro.bcast_binomial_time(ctx, n)
    return macro.bcast_scatter_ring_time(ctx, n)


def _reduce(ctx: macro.MacroContext, n: float) -> float:
    if n < REDUCE_SHORT:
        return macro.reduce_binomial_time(ctx, n)
    return macro.reduce_rabenseifner_time(ctx, n)


def _allreduce(ctx: macro.MacroContext, n: float) -> float:
    if n < ALLREDUCE_SHORT:
        return macro.allreduce_recursive_doubling_time(ctx, n)
    return macro.allreduce_rabenseifner_time(ctx, n)


def _reduce_scatter(ctx: macro.MacroContext, n: float) -> float:
    if _is_pow2(ctx.nprocs):
        return macro.reduce_scatter_halving_time(ctx, n)
    # reduce_scatterv: Rabenseifner reduce to root + binomial scatterv.
    return (macro.reduce_rabenseifner_time(ctx, n)
            + macro.scatter_binomial_time(ctx, n))


def _allgather(ctx: macro.MacroContext, n: float) -> float:
    if n * ctx.nprocs <= ALLGATHER_TOTAL_SHORT:
        if _is_pow2(ctx.nprocs):
            return macro.allgather_recursive_doubling_time(ctx, n)
        return macro.allgather_bruck_time(ctx, n)
    return macro.allgather_ring_time(ctx, n)


def _alltoall(ctx: macro.MacroContext, n: float) -> float:
    if n <= ALLTOALL_SHORT:
        # Bruck ships log2(P) aggregated slices of ~n*P/2 bytes.
        return macro.allgather_bruck_time(ctx, n)
    return macro.alltoall_time(ctx, n)


#: Benchmark name (IMB spelling) -> pricer(ctx, msg_bytes) -> seconds/call.
PRICERS = {
    "Barrier": _barrier,
    "Bcast": _bcast,
    "Reduce": _reduce,
    "Allreduce": _allreduce,
    "Reduce_scatter": _reduce_scatter,
    "Allgather": _allgather,
    "Allgatherv": _allgather,  # equal counts: same schedule as Allgather
    "Alltoall": _alltoall,
}


def price(benchmark: str, machine: MachineSpec, nprocs: int,
          msg_bytes: int) -> float | None:
    """Closed-form seconds per call, or ``None`` if no pricer covers
    ``benchmark`` (transfer/one-sided benchmarks always simulate)."""
    fn = PRICERS.get(benchmark)
    if fn is None:
        return None
    if nprocs == 1:
        return 0.0
    ctx = macro.MacroContext.from_machine(machine, nprocs)
    return fn(ctx, float(msg_bytes))
