"""Weighted undirected communication topology and its Laplacian.

Agents are numbered 1..n in every public interface and file format; the
arrays laplacian() returns index agents from 0 (agent 1 is 0).
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
from .noise import pair_keys


@dataclass(frozen=True)
class Topology:
    n: int
    # weight per unordered pair, keyed (min, max); single storage prevents
    # the two directions from ever drifting apart
    weights: dict[tuple[int, int], float] = field(default_factory=dict)

    # the neighbour lists, the directed pairs and their stream keys, the
    # neighbour columns, the Laplacian and the diameter are each derived once,
    # when first read; a copy derives its own, as an unpickled array would be
    # writeable
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
    def _stream_keys(self) -> np.ndarray:
        return pair_keys(self._pairs)

    @functools.cached_property
    def _columns(self) -> tuple:
        col = {p: c for c, p in enumerate(self._pairs)}
        return tuple(tuple((col[(i, j)], j - 1, self.weight(i, j)) for j in self._adjacency[i])
                     for i in range(1, self.n + 1))

    @functools.cached_property
    def _laplacian(self) -> Ranks:
        deg = [len(nb) for nb in self._columns]
        order = sorted(range(self.n), key=lambda a: -deg[a])  # by falling degree, stably
        counts = tuple(sum(d > t for d in deg) for t in range(max(deg)))
        edges = np.array([(a, *self._columns[a][t]) for t, m in enumerate(counts)
                          for a in order[:m]], dtype=float).reshape(-1, 4).T
        i, c, j = edges[:3].astype(np.intp)
        # bincount adds in edge order: each agent's weights from 0.0 by rank
        ranks = Ranks(i, c, j, edges[3], np.argsort(order),
                      np.bincount(i, weights=edges[3], minlength=self.n), counts)
        for a in ranks[:-1]:
            a.flags.writeable = False  # shared by every caller
        return ranks

    @functools.cached_property
    def _diameter(self) -> int:
        # each agent's ball of radius r as a bit set, grown by its neighbours' balls
        adj, full = self._adjacency[1:], (1 << self.n) - 1
        balls, r = [1 << a for a in range(self.n)], 0
        while any(b != full for b in balls):
            grown = []
            for b, nb in zip(balls, adj):
                for j in nb:
                    b |= balls[j - 1]
                grown.append(b)
            if grown == balls:
                raise Disconnected("diameter undefined for a disconnected topology")
            balls, r = grown, r + 1
        return r

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


# The Laplacian L = D - P as neighbour_columns rank by rank, agents by
# falling degree: each edge's agent i, column c, neighbour j and weight w,
# rank t's counts[t] edges (the t-th neighbours of the first counts[t] agents)
# before rank t + 1's; inv, each agent's place in that order; d, each agent's
# weighted degree, its weights summed from 0.0 in neighbour_columns order
Ranks = namedtuple("Ranks", "i c j w inv d counts")


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


def stream_keys(t: Topology) -> np.ndarray:
    """noise.pair_keys of the directed pairs, in their order: the pairs' half
    of every edge's stream seed, derived once per topology; read-only."""
    return t._stream_keys


def neighbour_columns(t: Topology) -> list:
    """Per agent (0-based), its neighbours as (edge column in directed_pairs,
    neighbour index, weight) triples in the order the round sums their
    terms: fresh lists of the triples found once per topology."""
    return [list(nb) for nb in t._columns]


def laplacian(t: Topology) -> Ranks:
    """The topology's Laplacian as its weighted degrees and neighbour ranks,
    built once per topology; the arrays are read-only."""
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
    topology, by growing every agent's ball of radius r as a bit set.
    """
    return t._diameter
