"""Abstract interconnect topology.

A topology is defined over *nodes* (SMP boxes with one NIC attachment
each).  It answers three questions the network model needs:

1. ``hops(a, b)`` — how many switch-to-switch hops separate two nodes
   (drives the distance-dependent part of latency);
2. ``path_level(a, b)`` — which hierarchy level a message tops out at
   (selects the shared core resource the message must cross);
3. ``level_capacity_links(level)`` — the aggregate capacity, in units of
   link bandwidths, available at that level (sizes the core resource).

Flat topologies (crossbar, hypercube) expose a single core level 1; the
hierarchical fat tree exposes one level per tier so that, e.g., traffic
confined to an SGI Altix C-brick never contends with inter-box traffic.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from ..core.errors import ConfigError


class Topology(ABC):
    """Base class for interconnect topologies over ``n_nodes`` endpoints."""

    def __init__(self, n_nodes: int) -> None:
        if n_nodes < 1:
            raise ConfigError("topology needs at least one node")
        self.n_nodes = int(n_nodes)

    # -- structure ------------------------------------------------------------

    @abstractmethod
    def hops(self, a: int, b: int) -> int:
        """Switch hops between distinct nodes ``a`` and ``b`` (>= 1)."""

    @abstractmethod
    def path_level(self, a: int, b: int) -> int:
        """Hierarchy level the a→b path crosses (0 = same node, >=1 inter)."""

    @abstractmethod
    def level_capacity_links(self, level: int) -> float:
        """Aggregate fluid capacity at ``level``, in link-bandwidth units.

        Sized as twice the bisection width of the sub-network at that level
        (both directions of every bisection link).
        """

    @property
    @abstractmethod
    def n_levels(self) -> int:
        """Number of inter-node hierarchy levels (>= 1)."""

    # -- derived metrics --------------------------------------------------------

    def diameter(self) -> int:
        """Maximum hop count over all node pairs (O(n^2); fine for tests)."""
        best = 0
        for a in range(self.n_nodes):
            for b in range(a + 1, self.n_nodes):
                h = self.hops(a, b)
                if h > best:
                    best = h
        return best

    def bisection_links(self) -> float:
        """Bisection width in links (top level capacity / 2 directions)."""
        return self.level_capacity_links(self.n_levels) / 2.0

    def average_hops(self) -> float:
        """Mean hops over all ordered distinct pairs (exact, O(n^2))."""
        n = self.n_nodes
        if n < 2:
            return 0.0
        total = 0
        for a in range(n):
            for b in range(n):
                if a != b:
                    total += self.hops(a, b)
        return total / (n * (n - 1))

    @abstractmethod
    def average_hops_analytic(self) -> float:
        """Closed-form/cheap mean hop count over ordered distinct pairs.

        Every topology provides a formula or exact count without the
        O(n^2) pair scan; :meth:`average_hops` is the test oracle.
        """

    def check_pair(self, a: int, b: int) -> None:
        n = self.n_nodes
        if not (0 <= a < n and 0 <= b < n):
            raise ConfigError(f"node pair ({a}, {b}) out of range for n={n}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} n={self.n_nodes}>"
