import pickle
import tracemalloc
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwconsensus import build_topology, diameter, is_connected, laplacian
from hwconsensus.analysis import gain_field, neighbour_columns
from hwconsensus.graph import directed_pairs
from hwconsensus.errors import (
    Disconnected,
    DuplicateEdge,
    IndexOutOfRange,
    NonpositiveWeight,
    SelfLoop,
    ValidationError,
)

from conftest import dense_laplacian

SQUARE = [(1, 2, 1.0), (1, 4, 1.0), (2, 3, 1.0), (2, 4, 1.0)]


def square():
    return build_topology(4, SQUARE)


def test_square_with_chord_degrees():
    t = square()
    assert laplacian(t).d.tolist() == [2.0, 3.0, 1.0, 2.0]
    assert list(t.neighbors(2)) == [1, 3, 4]
    assert list(t.neighbors(3)) == [2]


def test_diameter_values():
    assert diameter(square()) == 2
    tri = build_topology(3, [(1, 2, 1), (2, 3, 1), (1, 3, 1)])
    assert diameter(tri) == 1
    path = build_topology(3, [(1, 2, 1), (2, 3, 1)])
    assert diameter(path) == 2


def test_connectivity():
    assert is_connected(square())
    assert not is_connected(build_topology(4, [(1, 2, 1.0)]))
    assert is_connected(build_topology(2, [(1, 2, 1.0)]))


def test_diameter_requires_connected():
    with pytest.raises(Disconnected):
        diameter(build_topology(4, [(1, 2, 1.0)]))


def test_build_rejections():
    with pytest.raises(SelfLoop):
        build_topology(3, [(1, 1, 1.0)])
    with pytest.raises(NonpositiveWeight):
        build_topology(3, [(1, 2, 0.0)])
    with pytest.raises(NonpositiveWeight):
        build_topology(3, [(1, 2, -2.0)])
    with pytest.raises(DuplicateEdge):
        build_topology(3, [(1, 2, 1.0), (2, 1, 2.0)])
    with pytest.raises(IndexOutOfRange):
        build_topology(3, [(1, 4, 1.0)])
    with pytest.raises(ValidationError):
        build_topology(1, [])


@pytest.mark.parametrize("edge", [(True, 2, 1.0), (1, True, 1.0), (False, 2, 1.0), (1.0, 2, 1.0)],
                         ids=["i-true", "j-true", "i-false", "i-float"])
def test_an_endpoint_that_is_not_an_int_is_rejected(edge):
    # JSON true equals 1 and would key the edge (True, 2), written back as true
    with pytest.raises(ValidationError, match="edge endpoints must be integers"):
        build_topology(3, [edge])


@st.composite
def connected_topologies(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    weights = st.floats(min_value=0.1, max_value=5.0,
                        allow_nan=False, allow_infinity=False)
    edges = []
    seen = set()
    for v in range(2, n + 1):
        a = draw(st.integers(min_value=1, max_value=v - 1))
        edges.append((a, v, draw(weights)))
        seen.add((min(a, v), max(a, v)))
    extra = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
             if (i, j) not in seen]
    for (i, j) in extra:
        if draw(st.booleans()):
            edges.append((i, j, draw(weights)))
    return build_topology(n, edges)


@settings(max_examples=100, deadline=None)
@given(connected_topologies(), st.data())
def test_the_gain_field_is_minus_the_laplacian_times_h(t, data):
    # g from the degrees and neighbour ranks against L built from the edge
    # list; identity gains make h the drawn point
    lap, L = laplacian(t), dense_laplacian(t)
    h = np.array([data.draw(st.floats(min_value=-10, max_value=10, allow_nan=False))
                  for _ in range(t.n)])
    g = gain_field(h[None], [lambda x: x] * t.n, lap)[1][0]
    size = np.abs(L) @ np.abs(h)
    assert np.all(np.abs(g + L @ h) <= 1e-12 * size)
    assert abs(g.sum()) <= 1e-12 * size.sum()
    pair_sum = sum(w * (h[i - 1] - h[j - 1]) ** 2 for i, j, w in t.edge_list())
    assert -(h @ g) == pytest.approx(pair_sum, rel=1e-12, abs=1e-12 * (np.abs(h) @ size))
    # d: each agent's weights from 0.0 in the order the round sums them
    want = [sum((w for _, _, w in nb), 0.0) for nb in neighbour_columns(t)]
    assert lap.d.tobytes() == np.array(want).tobytes()
    assert diameter(t) == max(max(d.values()) for d in _hop_table(t).values())


def test_a_neighbor_list_is_a_copy():
    # neighbors hands out a copy of the list built once per topology: a
    # caller's edits reach no later answer
    t = square()
    pairs, d = directed_pairs(t), diameter(t)
    t.neighbors(2).clear()
    t.neighbors(3).append(1)
    assert t.neighbors(2) == [1, 3, 4] and t.neighbors(3) == [2]
    assert directed_pairs(t) == pairs and diameter(t) == d
    # the built lists are no field: equality and pickling see only n and weights
    assert t == square() and pickle.loads(pickle.dumps(t)) == t
    assert pickle.loads(pickle.dumps(t)).neighbors(2) == [1, 3, 4]


def test_directed_pairs_and_neighbour_columns_are_fresh_lists():
    # both are found once per topology and handed out as copies: a caller's
    # edits reach no later answer, nor the log of a run on the topology
    t = square()
    pairs, cols = directed_pairs(t), neighbour_columns(t)
    assert pairs == [(1, 2), (1, 4), (2, 1), (2, 3), (2, 4), (3, 2), (4, 1), (4, 2)]
    assert cols[0] == [(0, 1, 1.0), (1, 3, 1.0)]
    assert directed_pairs(t) is not pairs and neighbour_columns(t) is not cols
    pairs.clear()
    cols[0].clear()
    cols.pop()
    assert directed_pairs(t) == [(1, 2), (1, 4), (2, 1), (2, 3), (2, 4), (3, 2), (4, 1), (4, 2)]
    assert neighbour_columns(t)[0] == [(0, 1, 1.0), (1, 3, 1.0)] and len(neighbour_columns(t)) == 4
    # a copy derives its own, equal to the topology's
    back = pickle.loads(pickle.dumps(t))
    assert directed_pairs(back) == directed_pairs(t)
    assert neighbour_columns(back) == neighbour_columns(t)


def test_diameter_of_a_long_ring_and_path():
    n = 300
    path = [(i, i + 1, 1.0) for i in range(1, n)]
    assert diameter(build_topology(n, path + [(1, n, 1.0)])) == 150
    assert diameter(build_topology(n, path)) == 299


def _hop_table(t):
    """Hop counts from every source by its own breadth-first search: the reference."""
    table = {}
    for src in range(1, t.n + 1):
        dist = {src: 0}
        queue = deque([src])
        while queue:
            i = queue.popleft()
            for j in t.neighbors(i):
                if j not in dist:
                    dist[j] = dist[i] + 1
                    queue.append(j)
        table[src] = dist
    return table


def test_connectivity_and_diameter_match_a_per_source_search():
    rng = np.random.default_rng(9)
    seen = {True: 0, False: 0}
    for _ in range(300):
        n = int(rng.integers(2, 10))
        p = float(rng.choice([0.15, 0.3, 0.6]))
        edges = [(i, j, 1.0) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if rng.random() < p]
        t = build_topology(n, edges)
        table = _hop_table(t)
        connected = len(table[1]) == n
        seen[connected] += 1
        assert is_connected(t) == connected
        if connected:
            assert diameter(t) == max(max(d.values()) for d in table.values())
        else:
            with pytest.raises(Disconnected):
                diameter(t)
    assert min(seen.values()) >= 50


def test_the_laplacian_is_built_once_with_read_only_arrays():
    t = square()
    lap = laplacian(t)
    assert laplacian(t) is lap
    copied = laplacian(pickle.loads(pickle.dumps(t)))
    for view in (lap, copied):
        # rank by rank, agents by falling degree (2, 1, 4, 3): each edge's
        # agent, column in directed_pairs, neighbour and weight
        assert view.i.tolist() == [1, 0, 3, 2, 1, 0, 3, 1]
        assert view.c.tolist() == [2, 0, 6, 5, 3, 1, 7, 4]
        assert view.j.tolist() == [0, 1, 0, 1, 2, 3, 1, 3]
        assert view.w.tolist() == [1.0] * 8
        assert view.counts == (4, 3, 1) and view.inv.tolist() == [1, 0, 3, 2]
        assert view.d.dtype == float and view.d.tolist() == [2.0, 3.0, 1.0, 2.0]
        assert not any(a.flags.writeable for a in view if isinstance(a, np.ndarray))
    with pytest.raises(ValueError):
        lap.d[0] = 1.0
    assert diameter(t) == diameter(pickle.loads(pickle.dumps(t))) == 2


def _held_arrays(x) -> list:
    """Every numpy array x holds, through tuples and object attributes."""
    if isinstance(x, np.ndarray):
        return [x]
    parts = x if isinstance(x, tuple) else vars(x).values() if hasattr(x, "__dict__") else ()
    return [a for part in parts for a in _held_arrays(part)]


def test_the_laplacian_holds_no_array_of_n_squared_entries():
    # a 2000-agent ring with 1000 chords: the network is held as its degrees
    # and neighbour ranks, linear in the edges, never as an (n, n) matrix
    n = 2000
    t = build_topology(n, [(a, a % n + 1, 1.0) for a in range(1, n + 1)]
                       + [(a, a + n // 2, 0.5 + a % 7 / 8) for a in range(1, n // 2 + 1)])
    edges = len(directed_pairs(t))
    tracemalloc.start()
    try:
        arrays = _held_arrays(laplacian(t))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert edges == 6000 and arrays
    assert max(a.size for a in arrays) <= n + 4 * edges
    # nor is one built on the way: one (n, n) float matrix is 8 n^2 bytes
    assert peak < n * n
