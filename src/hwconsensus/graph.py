"""Weighted undirected communication topology and its Laplacian.

Agents are numbered 1..n in every public interface and file format; arrays
returned by laplacian() are 0-indexed in the usual way (row 0 is agent 1).
Topologies are immutable once built and safe to share.
"""

from __future__ import annotations

import functools
from collections import deque, namedtuple
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

    # the neighbour lists, the directed pairs, the neighbour columns, the
    # Laplacian and the diameter are each derived once, when first read; a
    # copy derives its own, as an unpickled array would be writeable
    def __getstate__(self) -> dict:
        return {"n": self.n, "weights": self.weights}

    @functools.cached_property
    def _adjacency(self) -> list:
        adj = [[] for _ in range(self.n + 1)]  # entry i: agent i's neighbours
        for (a, b) in self.weights:
            adj[a].append(b)
            adj[b].append(a)
        return [sorted(nb) for nb in adj]

    @functools.cached_property
    def _pairs(self) -> tuple:
        return tuple(sorted((i, j) for i in range(1, self.n + 1) for j in self._adjacency[i]))

    @functools.cached_property
    def _columns(self) -> tuple:
        col = {p: c for c, p in enumerate(self._pairs)}
        return tuple(tuple((col[(i, j)], j - 1, self.weight(i, j)) for j in self._adjacency[i])
                     for i in range(1, self.n + 1))

    @functools.cached_property
    def _laplacian(self) -> LaplacianView:
        P = np.zeros((self.n, self.n))
        for (i, j), w in self.weights.items():
            P[i - 1, j - 1] = w
            P[j - 1, i - 1] = w
        D = np.diag(P.sum(axis=1))
        deg = [len(nb) for nb in self._columns]
        order = sorted(range(self.n), key=lambda a: -deg[a])  # by falling degree, stably
        counts = tuple(sum(d > t for d in deg) for t in range(max(deg)))
        edges = np.array([(a, *self._columns[a][t]) for t, m in enumerate(counts)
                          for a in order[:m]], dtype=float).reshape(-1, 4).T
        ranks = Ranks(*edges[:3].astype(np.intp), edges[3], counts, np.argsort(order))
        view = LaplacianView(P=P, D=D, L=D - P, ranks=ranks)
        for a in (P, D, view.L, *ranks[:4], ranks.inv):
            a.flags.writeable = False  # shared by every caller
        return view

    @functools.cached_property
    def _diameter(self) -> int:
        if not is_connected(self):
            raise Disconnected("diameter undefined for a disconnected topology")
        return max(max(_hops(self, src).values()) for src in range(1, self.n + 1))

    def neighbors(self, i: int) -> list[int]:
        """Sorted neighbor list of agent i (1-based), copied from lists built once."""
        if not 1 <= i <= self.n:
            raise IndexOutOfRange(f"agent {i} not in 1..{self.n}")
        return list(self._adjacency[i])

    def weight(self, i: int, j: int) -> float:
        key = (min(i, j), max(i, j))
        if key not in self.weights:
            raise IndexOutOfRange(f"no edge between {i} and {j}")
        return self.weights[key]

    def edge_list(self) -> list[tuple[int, int, float]]:
        """Edges as (i, j, weight) with i < j, sorted."""
        return [(a, b, w) for (a, b), w in sorted(self.weights.items())]


# neighbour_columns rank by rank, agents by falling degree: each edge's agent
# i, column c, neighbour j and weight w, rank t's counts[t] edges (the t-th
# neighbours of the first counts[t] agents) before rank t + 1's; inv, each
# agent's place in that order
Ranks = namedtuple("Ranks", "i c j w counts inv")


@dataclass(frozen=True)
class LaplacianView:
    P: np.ndarray  # adjacency, n x n
    D: np.ndarray  # diagonal degree matrix
    L: np.ndarray  # D - P
    ranks: Ranks  # read-only arrays


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


def directed_pairs(t: Topology) -> list:
    """Every edge direction (observer i, observed j), sorted: the edge columns
    of a log. A fresh list of the pairs found once per topology."""
    return list(t._pairs)


def neighbour_columns(t: Topology) -> list:
    """Per agent (0-based), its neighbours as (edge column in directed_pairs,
    neighbour index, weight) triples in the order the round sums their
    terms: fresh lists of the triples found once per topology."""
    return [list(nb) for nb in t._columns]


def laplacian(t: Topology) -> LaplacianView:
    """The topology's adjacency, degree and Laplacian matrices and neighbour
    ranks, built once per topology; the arrays are read-only."""
    return t._laplacian


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

    Weights do not enter the distance; only edge counts do. Found once per
    topology.
    """
    return t._diameter
