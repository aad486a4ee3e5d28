"""Hypercube / modified-torus topology (Cray X1).

The Cray X1 interconnect is a modified 4-D hypercube built from routing
chips.  We model it as a binary hypercube over the node count rounded up
to a power of two: hop count is the Hamming distance between node ids,
and the network core is a single aggregate resource sized from the
hypercube's bisection (``n/2`` links) boosted by the path diversity of
dimension-ordered routing.
"""

from __future__ import annotations

from ..core.errors import ConfigError
from .topology import Topology


def _ceil_log2(n: int) -> int:
    return max(1, (n - 1).bit_length())


class Hypercube(Topology):
    """Binary hypercube with ``dim = ceil(log2(n_nodes))`` dimensions."""

    def __init__(self, n_nodes: int, dim: int | None = None) -> None:
        super().__init__(n_nodes)
        min_dim = _ceil_log2(n_nodes)
        if dim is None:
            dim = min_dim
        if dim < min_dim:
            raise ConfigError(
                f"hypercube dim {dim} too small for {n_nodes} nodes"
            )
        self.dim = int(dim)

    @property
    def n_levels(self) -> int:
        return 1

    def path_level(self, a: int, b: int) -> int:
        self.check_pair(a, b)
        return 0 if a == b else 1

    def hops(self, a: int, b: int) -> int:
        self.check_pair(a, b)
        if a == b:
            return 0
        return int(a ^ b).bit_count()

    def average_hops_analytic(self) -> float:
        """Mean Hamming distance over ordered distinct pairs.

        Every cube, full or partial (nodes ``0..n-1``), sums an exact
        integer total per bit — ``2·ones·(n−ones)`` ordered pairs differ
        there — and divides once by ``n*(n-1)``, the same float
        :meth:`average_hops` gives.
        """
        n = self.n_nodes
        if n < 2:
            return 0.0
        total = 0
        for bit in range((n - 1).bit_length()):
            # nodes below n with this bit set: full periods, then the tail
            period = 2 << bit
            ones = (n // period) * (1 << bit) + max(0, n % period - (1 << bit))
            total += 2 * ones * (n - ones)
        return total / (n * (n - 1))

    def level_capacity_links(self, level: int) -> float:
        if level != 1:
            raise ConfigError(f"hypercube has a single core level, got {level}")
        # 2^dim/2 bisection links, both directions.
        return 2.0 * (2 ** self.dim) / 2.0
