"""3-D torus topology.

The paper's future-work list (§5.2) includes the IBM Blue Gene/P and the
Cray XT4, both 3-D torus machines; the Cray X1's own network is described
as a "modified torus".  Nodes map onto an ``nx x ny x nz`` grid filled
lexicographically; routing is dimension-ordered with wraparound, so the
hop count between two nodes is the sum of per-axis ring distances.
"""

from __future__ import annotations

import math

from ..core.errors import ConfigError
from .topology import Topology


def _axis_distance(a: int, b: int, n: int) -> int:
    d = abs(a - b)
    return min(d, n - d)


def balanced_dims(n_nodes: int) -> tuple[int, int, int]:
    """A near-cubic ``(nx, ny, nz)`` with nx*ny*nz >= n_nodes."""
    c = max(1, round(n_nodes ** (1.0 / 3.0)))
    for nx in range(c, 0, -1):
        rest = math.ceil(n_nodes / nx)
        ny = max(1, round(math.sqrt(rest)))
        while rest % ny:
            ny -= 1
        nz = rest // ny
        if nx * ny * nz >= n_nodes:
            return tuple(sorted((nx, ny, nz)))  # type: ignore[return-value]
    return (1, 1, n_nodes)


class Torus3D(Topology):
    """A 3-D torus over ``dims = (nx, ny, nz)`` grid positions."""

    def __init__(self, n_nodes: int,
                 dims: tuple[int, int, int] | None = None) -> None:
        super().__init__(n_nodes)
        if dims is None:
            dims = balanced_dims(n_nodes)
        if len(dims) != 3 or any(d < 1 for d in dims):
            raise ConfigError(f"torus dims must be three positives: {dims}")
        if dims[0] * dims[1] * dims[2] < n_nodes:
            raise ConfigError(
                f"torus {dims} holds {math.prod(dims)} nodes, "
                f"asked for {n_nodes}"
            )
        self.dims = tuple(int(d) for d in dims)

    def _coords(self, node: int) -> tuple[int, int, int]:
        nx, ny, _nz = self.dims
        x = node % nx
        y = (node // nx) % ny
        z = node // (nx * ny)
        return x, y, z

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
        ca, cb = self._coords(a), self._coords(b)
        return max(1, sum(_axis_distance(x, y, n)
                          for x, y, n in zip(ca, cb, self.dims)))

    def level_capacity_links(self, level: int) -> float:
        if level != 1:
            raise ConfigError(f"torus has a single core level, got {level}")
        # Bisection across the longest axis: 2 * (area) link pairs with
        # wraparound, both directions.
        nx, ny, nz = self.dims
        longest = max(self.dims)
        area = (nx * ny * nz) // longest
        # cutting a ring crosses it twice; x2 for both directions
        return 4.0 * area if longest > 1 else 2.0 * self.n_nodes

    def average_hops_analytic(self) -> float:
        """Mean hops over ordered distinct pairs, without the pair scan.

        Full grids use the per-axis mean ring distances.  A partial
        (lexicographic) fill sums exact integer hop totals per axis from
        the coordinate histogram — Σ c(x)·c(y)·ring(x, y) — and divides
        once by ``n*(n-1)``, as :meth:`average_hops` does, so the result
        is the same float.
        """
        n = self.n_nodes
        if n < 2:
            return 0.0
        if math.prod(self.dims) == n:
            def ring_mean(k: int) -> float:
                if k == 1:
                    return 0.0
                total = sum(min(d, k - d) for d in range(k))
                return total / k

            mean = sum(ring_mean(k) for k in self.dims)
            # condition on the pair being distinct
            return mean * n / (n - 1)
        total = 0
        for axis, k in enumerate(self.dims):
            counts = [0] * k
            for node in range(n):
                counts[self._coords(node)[axis]] += 1
            for x in range(k):
                for y in range(k):
                    total += counts[x] * counts[y] * _axis_distance(x, y, k)
        return total / (n * (n - 1))
