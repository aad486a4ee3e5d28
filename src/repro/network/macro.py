"""Closed-form ("macro") collective cost models.

For HPCC sweeps at the paper's largest configurations (2024 CPUs on the
four-box Altix, 576 on the NEC SX-8) scheduling every message of an
alltoall individually is too slow in pure Python.  The functions here
compute the *same* algorithm structure — pairwise exchange, rings,
recursive doubling/halving, binomial trees, dissemination — analytically
from the fabric parameters, including NIC sharing, core/bisection
capacity, intra-node steps and the rendezvous handshake.

A property-based test asserts macro and algorithmic execution agree
within tolerance at small/medium scale (see
``tests/test_macro_agreement.py``); the ablation bench
``benchmarks/test_ablation_macro_model.py`` reports the deviation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core.errors import ConfigError
from ..machine.system import MachineSpec

#: Rendezvous control-message size must match repro.mpi.pt2pt._CTRL_BYTES.
_CTRL_BYTES = 64


@dataclass(frozen=True)
class MacroContext:
    """Machine-derived scalars the closed forms need."""

    nprocs: int
    n_nodes: int
    ppn: int                 # CPUs per node (full nodes assumed)
    lat_inter: float         # small-message inter-node time (s)
    lat_shm: float           # small-message intra-node time (s)
    flow_bw: float           # single inter-node stream (B/s)
    egress_bw: float         # per-node NIC (B/s); flows share it
    core_bw: float           # top-level aggregate capacity (B/s)
    shm_flow_bw: float
    shm_node_bw: float
    eager_threshold: int
    duplex_factor: float
    reduce_bw: float         # local reduction streaming bandwidth (B/s)

    @classmethod
    def from_machine(cls, machine: MachineSpec, nprocs: int) -> "MacroContext":
        if nprocs < 1:
            raise ConfigError("nprocs must be >= 1")
        params = machine.fabric_params()
        n_nodes = machine.n_nodes(nprocs)
        topo = machine.network.build_topology(n_nodes)
        if n_nodes > 1:
            avg_hops = topo.average_hops_analytic()
            lat_inter = (
                params.base_latency
                + avg_hops * params.per_hop_latency
                + params.send_overhead
                + params.recv_overhead
            )
            # Traffic only contends on the hierarchy tier the job actually
            # spans: a run confined to one C-brick/leaf switch never sees
            # the inter-box blocking (mirrors Topology.path_level).
            span_level = max(topo.path_level(0, n_nodes - 1), 1)
            core_bw = (
                topo.level_capacity_links(span_level)
                * params.link_bw
                * params.bw_efficiency
            )
        else:
            lat_inter = math.inf
            core_bw = math.inf
        proc = machine.processor
        reduce_bw = (
            proc.stream_triad_bw * machine.node.stream_node_scale
        )
        return cls(
            nprocs=nprocs,
            n_nodes=n_nodes,
            ppn=min(machine.node.cpus, nprocs),
            lat_inter=lat_inter,
            lat_shm=params.shm_latency + params.send_overhead + params.recv_overhead,
            flow_bw=params.effective_point_bw,
            egress_bw=params.effective_nic_bw,
            core_bw=core_bw,
            shm_flow_bw=params.shm_flow_bw,
            shm_node_bw=params.shm_bw,
            eager_threshold=params.eager_threshold,
            duplex_factor=params.duplex_factor,
            reduce_bw=reduce_bw,
        )

    # -- step primitives ------------------------------------------------------

    def rendezvous_extra(self, nbytes: float) -> float:
        """Handshake cost added to each step for rendezvous messages."""
        if nbytes <= self.eager_threshold:
            return 0.0
        return 2.0 * (self.lat_inter if self.n_nodes > 1 else self.lat_shm)

    def inter_step(self, nbytes: float, flows_per_node: float,
                   total_inter_bytes: float) -> float:
        """One bulk-synchronous step where every node pushes
        ``flows_per_node`` streams of ``nbytes`` to other nodes."""
        # Each node both sends and receives flows_per_node streams; the
        # NIC bus carries both directions at duplex_factor x one-way bw.
        bw_time = max(
            nbytes / self.flow_bw,
            flows_per_node * nbytes / self.egress_bw,
            2.0 * flows_per_node * nbytes / (self.egress_bw * self.duplex_factor),
            total_inter_bytes / self.core_bw,
        )
        return self.lat_inter + bw_time + self.rendezvous_extra(nbytes)

    def shm_step(self, nbytes: float, flows_per_node: float) -> float:
        bw_time = max(
            nbytes / self.shm_flow_bw,
            flows_per_node * nbytes / self.shm_node_bw,
        )
        return self.lat_shm + bw_time

    def exchange_step(self, nbytes: float, distance: int) -> float:
        """One step where every rank exchanges ``nbytes`` with a partner
        ``distance`` ranks away (block placement)."""
        if distance % self.nprocs == 0:
            return 0.0
        if self._is_intra(distance):
            return self.shm_step(nbytes, self.ppn)
        total = self.n_nodes * self.ppn * nbytes
        return self.inter_step(nbytes, self.ppn, total)

    def _is_intra(self, distance: int) -> bool:
        """Whether a partner at +-distance is on the same node.

        With block placement, power-of-two aligned exchanges at distance
        < ppn stay in the node; anything else is (almost always) inter.
        """
        d = abs(distance) % self.nprocs
        d = min(d, self.nprocs - d)
        return 0 < d < self.ppn and self.n_nodes > 0 and d < self.ppn

    def reduce_time(self, nbytes: float) -> float:
        """Local cost of folding two nbytes-long buffers together."""
        return 3.0 * nbytes / self.reduce_bw


# ---------------------------------------------------------------------------
# collectives
# ---------------------------------------------------------------------------

def alltoall_time(ctx: MacroContext, nbytes: float) -> float:
    """Pairwise-exchange alltoall: P-1 steps of per-pair ``nbytes``."""
    p = ctx.nprocs
    if p == 1:
        return 0.0
    steps_intra = min(ctx.ppn, p) - 1
    steps_inter = (p - 1) - steps_intra
    t = 0.0
    if steps_intra:
        t += steps_intra * ctx.shm_step(nbytes, ctx.ppn)
    if steps_inter:
        total = ctx.n_nodes * ctx.ppn * nbytes
        t += steps_inter * ctx.inter_step(nbytes, ctx.ppn, total)
    return t


def allgather_ring_time(ctx: MacroContext, block_nbytes: float) -> float:
    """Ring allgather: P-1 steps; one inter-node flow per node boundary."""
    p = ctx.nprocs
    if p == 1:
        return 0.0
    if ctx.n_nodes == 1:
        return (p - 1) * ctx.shm_step(block_nbytes, ctx.ppn)
    # Each step: every node has exactly one boundary (inter) send and
    # ppn-1 intra sends; the step completes at the slower of the two.
    total_inter = ctx.n_nodes * block_nbytes
    inter = ctx.inter_step(block_nbytes, 1.0, total_inter)
    intra = ctx.shm_step(block_nbytes, max(ctx.ppn - 1, 0)) if ctx.ppn > 1 else 0.0
    return (p - 1) * max(inter, intra)


def allreduce_recursive_doubling_time(ctx: MacroContext, nbytes: float) -> float:
    p = ctx.nprocs
    if p == 1:
        return 0.0
    p2 = 1 << (p.bit_length() - 1)
    t = 0.0
    if p2 != p:  # fold + unfold
        t += ctx.exchange_step(nbytes, 1) + ctx.reduce_time(nbytes)
        t += ctx.exchange_step(nbytes, 1)
    dist = 1
    while dist < p2:
        t += ctx.exchange_step(nbytes, dist) + ctx.reduce_time(nbytes)
        dist <<= 1
    return t


def allreduce_rabenseifner_time(ctx: MacroContext, nbytes: float) -> float:
    p = ctx.nprocs
    if p == 1:
        return 0.0
    p2 = 1 << (p.bit_length() - 1)
    t = 0.0
    if p2 != p:
        t += ctx.exchange_step(nbytes, 1) + ctx.reduce_time(nbytes)
        t += ctx.exchange_step(nbytes, 1)
    # reduce-scatter by recursive halving: distances p2/2, p2/4, ...;
    # sizes nbytes/2, nbytes/4, ...
    dist = p2 // 2
    size = nbytes / 2.0
    while dist >= 1:
        t += ctx.exchange_step(size, dist) + ctx.reduce_time(size)
        dist //= 2
        size /= 2.0
    # allgather by recursive doubling: the mirror image, no reduction.
    dist = 1
    size = nbytes / p2
    while dist < p2:
        t += ctx.exchange_step(size * dist, dist)
        dist <<= 1
    return t


def reduce_binomial_time(ctx: MacroContext, nbytes: float) -> float:
    """Critical path of a binomial reduce: ceil(log2 P) levels."""
    p = ctx.nprocs
    t = 0.0
    dist = 1
    while dist < p:
        t += ctx.exchange_step(nbytes, dist) + ctx.reduce_time(nbytes)
        dist <<= 1
    return t


def reduce_rabenseifner_time(ctx: MacroContext, nbytes: float) -> float:
    p = ctx.nprocs
    if p == 1:
        return 0.0
    p2 = 1 << (p.bit_length() - 1)
    t = 0.0
    if p2 != p:
        t += ctx.exchange_step(nbytes, 1) + ctx.reduce_time(nbytes)
    dist = p2 // 2
    size = nbytes / 2.0
    while dist >= 1:
        t += ctx.exchange_step(size, dist) + ctx.reduce_time(size)
        dist //= 2
        size /= 2.0
    # binomial gather of segments back to the root: sizes double.
    dist = 1
    size = nbytes / p2
    while dist < p2:
        t += ctx.exchange_step(size * dist, dist)
        dist <<= 1
    return t


def bcast_binomial_time(ctx: MacroContext, nbytes: float) -> float:
    p = ctx.nprocs
    t = 0.0
    dist = 1
    while dist < p:
        t += ctx.exchange_step(nbytes, dist)
        dist <<= 1
    return t


def bcast_scatter_ring_time(ctx: MacroContext, nbytes: float) -> float:
    p = ctx.nprocs
    if p == 1:
        return 0.0
    block = nbytes / p
    # binomial scatter critical path: message halves each level.
    t = 0.0
    dist = 1
    size = nbytes / 2.0
    while dist < p:
        t += ctx.exchange_step(size, dist)
        dist <<= 1
        size = max(size / 2.0, block)
    t += allgather_ring_time(ctx, block)
    return t


def barrier_dissemination_time(ctx: MacroContext) -> float:
    p = ctx.nprocs
    t = 0.0
    dist = 1
    while dist < p:
        t += ctx.exchange_step(1.0, dist)
        dist <<= 1
    return t


def allgather_recursive_doubling_time(ctx: MacroContext,
                                      block_nbytes: float) -> float:
    """Recursive-doubling allgather (power-of-two ranks): log2(P) steps,
    the exchanged block doubling each step."""
    p = ctx.nprocs
    if p == 1:
        return 0.0
    t = 0.0
    dist = 1
    while dist < p:
        t += ctx.exchange_step(block_nbytes * dist, dist)
        dist <<= 1
    return t


def allgather_bruck_time(ctx: MacroContext, block_nbytes: float) -> float:
    """Bruck allgather (any rank count): ceil(log2 P) steps; step k ships
    ``min(2^k, P - 2^k)`` blocks at distance ``2^k``."""
    p = ctx.nprocs
    if p == 1:
        return 0.0
    t = 0.0
    dist = 1
    while dist < p:
        blocks = min(dist, p - dist)
        t += ctx.exchange_step(block_nbytes * blocks, dist)
        dist <<= 1
    return t


def reduce_scatter_halving_time(ctx: MacroContext, nbytes: float) -> float:
    """Recursive-halving reduce_scatter (power-of-two ranks).

    The first phase of Rabenseifner's allreduce, priced on its own:
    distances P/2, P/4, ..., 1 with exchanged sizes nbytes/2, nbytes/4,
    ..., each followed by folding the received half.
    """
    p = ctx.nprocs
    if p == 1:
        return 0.0
    p2 = 1 << (p.bit_length() - 1)
    t = 0.0
    if p2 != p:  # non-pow2 pre-fold as in the message-level algorithm
        t += ctx.exchange_step(nbytes, 1) + ctx.reduce_time(nbytes)
    dist = p2 // 2
    size = nbytes / 2.0
    while dist >= 1:
        t += ctx.exchange_step(size, dist) + ctx.reduce_time(size)
        dist //= 2
        size /= 2.0
    return t


def scatter_binomial_time(ctx: MacroContext, nbytes: float) -> float:
    """Binomial scatter(v) critical path: the shipped slice halves each
    level until it reaches one block of ``nbytes / P``."""
    p = ctx.nprocs
    if p == 1:
        return 0.0
    block = nbytes / p
    t = 0.0
    dist = 1
    size = nbytes / 2.0
    while dist < p:
        t += ctx.exchange_step(size, dist)
        dist <<= 1
        size = max(size / 2.0, block)
    return t
