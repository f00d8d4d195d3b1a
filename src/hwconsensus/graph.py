"""Weighted undirected communication topology and its Laplacian.

Agents are numbered 1..n in every public interface and file format; arrays
returned by laplacian() are 0-indexed in the usual way (row 0 is agent 1).
Topologies are immutable once built and safe to share.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    Disconnected,
    DuplicateEdge,
    IndexOutOfRange,
    NonpositiveWeight,
    SelfLoop,
    ValidationError,
)


@dataclass(frozen=True)
class Topology:
    n: int
    # weight per unordered pair, keyed (min, max); single storage prevents
    # the two directions from ever drifting apart
    weights: dict[tuple[int, int], float] = field(default_factory=dict)

    def neighbors(self, i: int) -> list[int]:
        """Sorted neighbor list of agent i (1-based)."""
        if not 1 <= i <= self.n:
            raise IndexOutOfRange(f"agent {i} not in 1..{self.n}")
        out = []
        for (a, b) in self.weights:
            if a == i:
                out.append(b)
            elif b == i:
                out.append(a)
        return sorted(out)

    def weight(self, i: int, j: int) -> float:
        key = (min(i, j), max(i, j))
        if key not in self.weights:
            raise IndexOutOfRange(f"no edge between {i} and {j}")
        return self.weights[key]

    def edge_list(self) -> list[tuple[int, int, float]]:
        """Edges as (i, j, weight) with i < j, sorted."""
        return [(a, b, w) for (a, b), w in sorted(self.weights.items())]


@dataclass(frozen=True)
class LaplacianView:
    P: np.ndarray  # adjacency, n x n
    D: np.ndarray  # diagonal degree matrix
    L: np.ndarray  # D - P


def build_topology(n: int, weighted_edges) -> Topology:
    """Build and validate a topology from (i, j, weight) triples.

    Rejects self-loops, nonpositive weights, duplicate pairs (in either
    order) and out-of-range indices. n must be at least 2.
    """
    if not isinstance(n, int) or n < 2:
        raise ValidationError(f"agent count must be an integer >= 2, got {n!r}")
    weights: dict[tuple[int, int], float] = {}
    for triple in weighted_edges:
        try:
            i, j, w = triple
        except (TypeError, ValueError):
            raise ValidationError(f"edge {triple!r} is not an (i, j, weight) triple")
        # JSON true is a Python int equal to 1: only an int is an agent number
        if not (type(i) is int and type(j) is int):
            raise ValidationError(f"edge endpoints must be integers, got {triple!r}")
        if not (1 <= i <= n and 1 <= j <= n):
            raise IndexOutOfRange(f"edge ({i},{j}) outside 1..{n}")
        if i == j:
            raise SelfLoop(f"self-loop at agent {i}")
        w = float(w)
        if not np.isfinite(w) or w <= 0:
            raise NonpositiveWeight(f"edge ({i},{j}) has weight {w}")
        key = (min(i, j), max(i, j))
        if key in weights:
            raise DuplicateEdge(f"edge {key} given twice")
        weights[key] = w
    return Topology(n=n, weights=weights)


def laplacian(t: Topology) -> LaplacianView:
    P = np.zeros((t.n, t.n))
    for (i, j), w in t.weights.items():
        P[i - 1, j - 1] = w
        P[j - 1, i - 1] = w
    D = np.diag(P.sum(axis=1))
    return LaplacianView(P=P, D=D, L=D - P)


def _hops(t: Topology, src: int) -> dict[int, int]:
    """Hop count from src to every agent it reaches, by breadth-first search."""
    dist = {src: 0}
    queue = deque([src])
    while queue:
        i = queue.popleft()
        for j in t.neighbors(i):
            if j not in dist:
                dist[j] = dist[i] + 1
                queue.append(j)
    return dist


def is_connected(t: Topology) -> bool:
    return len(_hops(t, 1)) == t.n


def diameter(t: Topology) -> int:
    """Max over agent pairs of the shortest path length in hops.

    Weights do not enter the distance; only edge counts do.
    """
    if not is_connected(t):
        raise Disconnected("diameter undefined for a disconnected topology")
    return max(max(_hops(t, src).values()) for src in range(1, t.n + 1))
