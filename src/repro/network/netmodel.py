"""The fabric model: message timing over a topology with contention.

This is the heart of the simulated interconnect.  It combines

* a LogGP-style parameter set (:class:`FabricParams`) — software overheads,
  base and per-hop latency, link/NIC bandwidths, eager threshold;
* a :class:`~repro.network.topology.Topology` giving hop counts and the
  hierarchy level each message crosses;
* FIFO :class:`~repro.network.resources.BandwidthResource` servers for
  per-node NIC injection/ejection, per-level network core capacity, and
  per-node shared-memory (intra-node) transfers.

The MPI layer asks for :meth:`Fabric.message_timing` and gets back when the
sender's buffer is free and when the payload lands at the receiver; all
queueing from concurrent traffic is reflected in those times.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.errors import ConfigError
from ..obs.context import current
from .resources import BandwidthResource, ResourceMetrics, reserve_joint
from .topology import Topology


@dataclass(frozen=True)
class FabricParams:
    """Interconnect + intra-node communication parameters (SI units)."""

    link_bw: float            # per-link, per-direction bandwidth (B/s)
    nic_bw: float             # per-node injection/ejection bandwidth (B/s)
    base_latency: float       # zero-byte end-to-end latency excl. hops (s)
    per_hop_latency: float    # additional latency per switch hop (s)
    send_overhead: float      # sender CPU busy time per message (s)
    recv_overhead: float      # receiver CPU busy time per message (s)
    eager_threshold: int      # messages <= this use the eager protocol (B)
    bw_efficiency: float      # fraction of link bw achievable for payloads
    shm_bw: float             # intra-node aggregate bandwidth per node (B/s)
    shm_flow_bw: float        # intra-node per-message-stream bandwidth (B/s)
    shm_latency: float        # intra-node zero-byte latency (s)
    memcpy_bw: float          # local buffer-copy bandwidth (B/s)
    #: NIC duplex capability: combined send+recv capacity as a multiple of
    #: the single-direction bandwidth.  2.0 = ideal full duplex (InfiniBand),
    #: 1.0 = one shared bus (Myrinet Lanai on PCI-X), values between model
    #: partial bidirectional degradation.
    duplex_factor: float = 2.0

    def __post_init__(self) -> None:
        for name in ("link_bw", "nic_bw", "shm_bw", "shm_flow_bw", "memcpy_bw"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in (
            "base_latency",
            "per_hop_latency",
            "send_overhead",
            "recv_overhead",
            "shm_latency",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if not (0.0 < self.bw_efficiency <= 1.0):
            raise ConfigError("bw_efficiency must be in (0, 1]")
        if not (1.0 <= self.duplex_factor <= 2.0):
            raise ConfigError("duplex_factor must be in [1, 2]")
        if self.eager_threshold < 0:
            raise ConfigError("eager_threshold must be >= 0")

    @property
    def effective_point_bw(self) -> float:
        """Sustainable single-stream inter-node bandwidth (B/s).

        A lone stream rides its link at full burst rate even when the
        node's *sustained* multi-stream NIC throughput (``nic_bw``) is
        lower — the PCI-X-era cards the paper measures show exactly this
        burst-vs-sustained split.
        """
        return self.link_bw * self.bw_efficiency

    @property
    def effective_nic_bw(self) -> float:
        """Sustained per-node injection/ejection bandwidth (B/s)."""
        return self.nic_bw * self.bw_efficiency

    def latency(self, hops: int) -> float:
        """Zero-byte wire latency over ``hops`` switch hops."""
        return self.base_latency + hops * self.per_hop_latency


@dataclass(frozen=True)
class MessageTiming:
    """When a message occupies the sender and reaches the receiver."""

    inject_start: float  # transfer began leaving the source
    inject_end: float    # source buffer free / NIC released
    arrival: float       # last byte at the destination


class Fabric:
    """Topology + parameters + live contention state for one cluster."""

    def __init__(self, topology: Topology, params: FabricParams) -> None:
        self.topology = topology
        self.params = params
        n = topology.n_nodes
        nic_bw = params.effective_nic_bw
        registry = current("metrics")
        mk = ResourceMetrics.for_kind  # None per kind when metrics are off
        egress_m = mk(registry, "egress")
        ingress_m = mk(registry, "ingress")
        self._egress = [
            BandwidthResource(f"egress[{i}]", nic_bw, egress_m)
            for i in range(n)
        ]
        self._ingress = [
            BandwidthResource(f"ingress[{i}]", nic_bw, ingress_m)
            for i in range(n)
        ]
        # The NIC bus carries both directions; with duplex_factor < 2 it
        # becomes the bottleneck under simultaneous send+recv (e.g. the
        # Myrinet Lanai cards behind one PCI-X bus).
        bus_m = None
        if params.duplex_factor < 2.0:
            bus_m = mk(registry, "nicbus")
            self._bus = [
                BandwidthResource(f"nicbus[{i}]",
                                  nic_bw * params.duplex_factor, bus_m)
                for i in range(n)
            ]
        else:
            self._bus = None
        core_m = mk(registry, "core")
        self._core = {
            level: BandwidthResource(
                f"core[{level}]",
                topology.level_capacity_links(level)
                * params.link_bw
                * params.bw_efficiency,
                core_m,
            )
            for level in range(1, topology.n_levels + 1)
        }
        shm_m = mk(registry, "shm")
        self._shm = [
            BandwidthResource(f"shm[{i}]", params.shm_bw, shm_m)
            for i in range(n)
        ]
        #: Per-kind reservation logs, folded by flush_observations().
        self._observed = [m for m in (egress_m, ingress_m, bus_m, core_m,
                                      shm_m) if m is not None]
        # Lazily filled per-(src, dst) route cache: zero-byte latency and
        # the joint resource list for inter-node transfers.  Topology
        # geometry is immutable for the life of a fabric, and fault
        # injectors mutate the *shared resource objects* in place (so
        # cached lists stay truthful) — except latency faults, which call
        # :meth:`invalidate_route_cache`.
        self._lat_cache: dict[tuple[int, int], float] = {}
        self._route_cache: dict[tuple[int, int], list[BandwidthResource]] = {}

    # -- introspection used by analysis/tests -------------------------------

    @property
    def n_nodes(self) -> int:
        return self.topology.n_nodes

    def core_resource(self, level: int) -> BandwidthResource:
        return self._core[level]

    def egress_resource(self, node: int) -> BandwidthResource:
        return self._egress[node]

    def ingress_resource(self, node: int) -> BandwidthResource:
        return self._ingress[node]

    def shm_resource(self, node: int) -> BandwidthResource:
        return self._shm[node]

    def busy_by_kind(self) -> dict:
        """Cumulative busy seconds and bytes served per resource kind.

        Every :class:`BandwidthResource` tracks its own ``busy_time`` /
        ``bytes_served`` unconditionally, so this end-of-run tally is
        free; the energy accountant prices it in watts.  Kinds appear
        in a fixed order (egress, ingress, nicbus, core, shm) so the
        downstream joule sums are byte-identical run to run.
        """
        def tally(resources) -> dict:
            busy = 0.0
            nbytes = 0.0
            for r in resources:
                busy += r.busy_time
                nbytes += r.bytes_served
            return {"busy_s": busy, "bytes": nbytes}

        out = {"egress": tally(self._egress),
               "ingress": tally(self._ingress)}
        if self._bus is not None:
            out["nicbus"] = tally(self._bus)
        out["core"] = tally(self._core.values())
        out["shm"] = tally(self._shm)
        return out

    def flush_observations(self) -> None:
        """Fold every kind's pending reservation log into its instruments.

        :meth:`repro.mpi.cluster.Cluster.run` calls this when a run ends;
        code driving the fabric directly calls it before reading the
        ``net.<kind>.*`` metrics or the timeline.
        """
        for m in self._observed:
            m.flush()

    def reset(self) -> None:
        """Clear all contention state (used between benchmark repetitions)."""
        for r in self._egress:
            r.reset()
        for r in self._ingress:
            r.reset()
        if self._bus is not None:
            for r in self._bus:
                r.reset()
        for r in self._core.values():
            r.reset()
        for r in self._shm:
            r.reset()

    # -- timing ----------------------------------------------------------------

    def latency(self, src_node: int, dst_node: int) -> float:
        """Zero-byte latency between two nodes (intra-node uses shm).

        Hot path: memoised per node pair — hop counts are pure topology
        geometry, and the paper's machines have at most a few hundred
        nodes, so the cache stays small while removing a topology walk
        from every message and every RTS/CTS control packet.
        """
        cached = self._lat_cache.get((src_node, dst_node))
        if cached is not None:
            return cached
        if src_node == dst_node:
            lat = self.params.shm_latency
        else:
            lat = self.params.latency(self.topology.hops(src_node, dst_node))
        self._lat_cache[(src_node, dst_node)] = lat
        return lat

    def invalidate_route_cache(self) -> None:
        """Drop memoised latencies/routes after a parameter mutation."""
        self._lat_cache.clear()
        self._route_cache.clear()

    def _route(self, src_node: int, dst_node: int) -> list[BandwidthResource]:
        """The joint resource list one inter-node transfer reserves."""
        resources = [
            self._egress[src_node],
            self._core[self.topology.path_level(src_node, dst_node)],
            self._ingress[dst_node],
        ]
        if self._bus is not None:
            resources.append(self._bus[src_node])
            resources.append(self._bus[dst_node])
        return resources

    def message_timing(
        self, src_node: int, dst_node: int, nbytes: float, t_ready: float
    ) -> MessageTiming:
        """Timing for one payload transfer of ``nbytes`` starting ``t_ready``.

        Intra-node messages go through the node's shared-memory resource;
        inter-node messages jointly reserve source egress, the core level
        the path crosses, and destination ingress.
        """
        params = self.params
        if src_node == dst_node:
            # The node-wide shm resource models memory-bus sharing between
            # concurrent intra-node streams; a single stream is additionally
            # capped at shm_flow_bw (per-CPU copy rate).
            start, end = self._shm[src_node].reserve(nbytes, t_ready)
            end = max(end, start + nbytes / params.shm_flow_bw)
            return MessageTiming(start, end, end + params.shm_latency)
        key = (src_node, dst_node)
        resources = self._route_cache.get(key)
        if resources is None:
            resources = self._route_cache[key] = self._route(src_node, dst_node)
        start, end = reserve_joint(resources, nbytes, t_ready)
        # A single stream cannot exceed its link's burst bandwidth.
        end = max(end, start + nbytes / (params.link_bw * params.bw_efficiency))
        return MessageTiming(start, end, end + self.latency(src_node, dst_node))

    def control_timing(self, src_node: int, dst_node: int,
                       t_ready: float) -> MessageTiming:
        """Latency-only path for tiny protocol messages (RTS/CTS).

        Control packets ride a priority lane and never queue behind bulk
        payloads; modelling them through the bandwidth FIFOs would let a
        deep bulk queue inflate every rendezvous handshake (a cascade the
        real NICs do not exhibit).
        """
        arrival = t_ready + self.latency(src_node, dst_node)
        return MessageTiming(t_ready, t_ready, arrival)

    def memcpy_time(self, nbytes: float) -> float:
        """Local buffer copy cost (eager-protocol staging, unexpected recv)."""
        return nbytes / self.params.memcpy_bw

    def is_eager(self, nbytes: float) -> bool:
        return nbytes <= self.params.eager_threshold
