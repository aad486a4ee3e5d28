"""G-RandomAccess: giga-updates per second (GUPS).

A table of ``2^k * P`` 64-bit words is distributed over the ranks; every
rank issues a stream of XOR updates to pseudo-random global locations.
Updates are routed in buckets through the standard hypercube (dimension-
ordered) exchange used by HPCC's MPI implementation, so the benchmark
stresses exactly what the paper says it does: small-message network
throughput with zero locality.

Substitution note (DESIGN.md): HPCC's ``HPCC_starts`` LCG update stream
is replaced by per-rank PCG64 streams — deterministic under the cluster
seed, and XOR updates commute, so the final table is still exactly
verifiable against a serial replay (``reference_table``).

Modes: ``algorithmic`` (messages scheduled; any power-of-two rank count),
``macro`` (closed-form, any rank count), ``auto``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..core.errors import BenchmarkError
from ..core.rng import make_rng
from ..machine.system import MachineSpec
from ..mpi.cluster import Cluster
from ..network import macro


@dataclass(frozen=True)
class RandomAccessConfig:
    local_table_words: int = 4096      # table words per rank (power of two)
    updates_per_word: int = 4          # HPCC default: 4 * table size updates
    #: Updates aggregated per routing round.  The 2005-era reference
    #: implementation the paper ran keeps only a 1024-update look-ahead
    #: and effectively ships a handful of updates per message, so the
    #: benchmark is per-message-overhead bound; 8 reproduces the measured
    #: GUPS regime (Table 3 anchor ~5e-5 update/flop).
    bucket: int = 8
    validate: bool = False


@dataclass(frozen=True)
class RandomAccessResult:
    gups: float
    elapsed: float
    nprocs: int
    total_updates: int


def _rank_updates(seed: int, rank: int, count: int) -> np.ndarray:
    """The deterministic update stream a rank issues (uint64 values)."""
    rng = make_rng(seed, 0x5A, rank)
    return rng.integers(0, 2 ** 63, size=count, dtype=np.uint64)


def randomaccess_program(comm, cfg: RandomAccessConfig):
    """Rank program; returns (elapsed, applied_count, table | None)."""
    p = comm.size
    if p & (p - 1):
        raise BenchmarkError(
            "algorithmic G-RandomAccess needs a power-of-two rank count; "
            "use mode='macro' otherwise"
        )
    local = cfg.local_table_words
    if local & (local - 1):
        raise BenchmarkError("local_table_words must be a power of two")
    total_words = local * p
    my_updates = local * cfg.updates_per_word
    table = None
    if cfg.validate:
        table = (np.arange(local, dtype=np.uint64)
                 + np.uint64(comm.rank * local))

    stream = _rank_updates(comm.cluster.seed, comm.rank, my_updates)
    mask = np.uint64(total_words - 1)
    dims = int(math.log2(p))
    applied = 0

    yield from comm.barrier()
    t0 = comm.now
    if not cfg.validate:
        # Timing-only fast path.  Without validation ``held`` stays the
        # full bucket through every dimension (arrivals mirror departures
        # in expectation, see below), so the per-dimension message sizes
        # are a pure function of the update stream — compute them all up
        # front with one vectorised pass instead of four tiny-array numpy
        # ops per sendrecv (which dominate the benchmark's host time).
        bucket_n = cfg.bucket
        rounds = -(-my_updates // bucket_n)
        shift = np.uint64(local.bit_length() - 1)  # // local, local pow2
        dest = (stream & mask) >> shift
        moves = np.zeros((dims, rounds * bucket_n), dtype=bool)
        for k in range(dims):
            go = (dest >> np.uint64(k)) & np.uint64(1)
            moves[k, :my_updates] = go != np.uint64((comm.rank >> k) & 1)
        # Bytes each round sends in each dimension, as [round][dim].
        sizes = (8 * moves.reshape(dims, rounds, bucket_n).sum(axis=2)
                 ).T.tolist()
        # Exchange through the transport, as the collectives' _exchange
        # funnel does: the partners are valid by construction and the
        # received result is unused, so Comm.sendrecv's checks, its
        # generator and _localise would do no work.  The engine sees the
        # same two yields per exchange.
        ranks = comm._world_ranks
        me = ranks[comm.rank]
        partners = [ranks[comm.rank ^ (1 << k)] for k in range(dims)]
        exchange = comm.cluster.transport.sendrecv
        channel = comm._p2p_channel
        for r, round_sizes in enumerate(sizes):
            for k in range(dims):
                partner = partners[k]
                rreq, sreq = exchange(me, partner, partner, round_sizes[k],
                                      k, k, None, channel)
                yield rreq
                yield sreq  # None when elided, as in Comm.sendrecv
            count = min(bucket_n, my_updates - r * bucket_n)
            yield from comm.compute(nbytes=8.0 * count, flops=count,
                                    kernel="random_access")
            applied += count
        elapsed = comm.now - t0
        return elapsed, applied, table
    pos = 0
    while pos < my_updates:
        bucket = stream[pos:pos + cfg.bucket]
        pos += cfg.bucket
        held = bucket
        # dimension-ordered hypercube routing
        for k in range(dims):
            dest = (held & mask) // np.uint64(local)
            mine_bit = np.uint64((comm.rank >> k) & 1)
            go = (dest >> np.uint64(k)) & np.uint64(1)
            moving = held[go != mine_bit]
            partner = comm.rank ^ (1 << k)
            res = yield from comm.sendrecv(
                partner, partner,
                data=moving,
                nbytes=int(moving.nbytes),
                sendtag=k,
            )
            held = held[go == mine_bit]
            if res.data is not None and len(res.data):
                held = np.concatenate([held, res.data])
        count = len(held)
        if count:
            yield from comm.compute(nbytes=8.0 * count, flops=count,
                                    kernel="random_access")
            idx = (held & mask) - np.uint64(comm.rank * local)
            np.bitwise_xor.at(table, idx.astype(np.int64), held)
            applied += count
    elapsed = comm.now - t0
    return elapsed, applied, table


def reference_table(seed: int, nprocs: int, cfg: RandomAccessConfig) -> np.ndarray:
    """Serial replay of every rank's update stream (validation oracle)."""
    local = cfg.local_table_words
    total = local * nprocs
    table = np.arange(total, dtype=np.uint64)
    mask = np.uint64(total - 1)
    for r in range(nprocs):
        stream = _rank_updates(seed, r, local * cfg.updates_per_word)
        idx = (stream & mask).astype(np.int64)
        np.bitwise_xor.at(table, idx, stream)
    return table


def run_randomaccess(machine: MachineSpec, nprocs: int,
                     cfg: RandomAccessConfig | None = None,
                     mode: str = "auto") -> RandomAccessResult:
    cfg = cfg or RandomAccessConfig()
    total_updates = cfg.local_table_words * cfg.updates_per_word * nprocs
    if mode == "auto":
        pow2 = nprocs & (nprocs - 1) == 0
        mode = "algorithmic" if (pow2 and nprocs <= 64) else "macro"
    if mode == "macro":
        elapsed = _macro_time(machine, nprocs, cfg)
    else:
        cluster = Cluster(machine, nprocs)
        res = cluster.run(randomaccess_program, cfg)
        elapsed = max(r[0] for r in res.results)
    return RandomAccessResult(
        gups=total_updates / elapsed / 1e9,
        elapsed=elapsed,
        nprocs=nprocs,
        total_updates=total_updates,
    )


def _macro_time(machine: MachineSpec, nprocs: int,
                cfg: RandomAccessConfig) -> float:
    """Closed-form time for the bucketed hypercube routing."""
    ctx = macro.MacroContext.from_machine(machine, nprocs)
    cluster = Cluster(machine, nprocs)
    my_updates = cfg.local_table_words * cfg.updates_per_word
    rounds = math.ceil(my_updates / cfg.bucket)
    dims = max(1, math.ceil(math.log2(max(nprocs, 2))))
    t_round = 0.0
    dist = 1
    for _k in range(dims):
        # on average half the held updates move each dimension
        t_round += ctx.exchange_step(8.0 * cfg.bucket / 2.0, dist)
        dist <<= 1
    t_round += cluster.compute_time(
        flops=cfg.bucket, nbytes=8.0 * cfg.bucket, kernel="random_access"
    )
    return rounds * t_round
