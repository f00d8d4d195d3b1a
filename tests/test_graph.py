import pickle
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwconsensus import build_topology, diameter, is_connected, laplacian
from hwconsensus.graph import directed_pairs
from hwconsensus.errors import (
    Disconnected,
    DuplicateEdge,
    IndexOutOfRange,
    NonpositiveWeight,
    SelfLoop,
    ValidationError,
)

SQUARE = [(1, 2, 1.0), (1, 4, 1.0), (2, 3, 1.0), (2, 4, 1.0)]


def square():
    return build_topology(4, SQUARE)


def test_square_with_chord_degrees():
    t = square()
    lap = laplacian(t)
    assert np.allclose(np.diag(lap.D), [2, 3, 1, 2])
    assert list(t.neighbors(2)) == [1, 3, 4]
    assert list(t.neighbors(3)) == [2]


def test_square_laplacian_matrix():
    L = laplacian(square()).L
    expect = np.array([[2, -1, 0, -1],
                       [-1, 3, -1, -1],
                       [0, -1, 1, 0],
                       [-1, -1, 0, 2]], dtype=float)
    assert np.array_equal(L, expect)


def test_two_node_laplacian():
    L = laplacian(build_topology(2, [(1, 2, 0.7)])).L
    assert np.array_equal(L, np.array([[0.7, -0.7], [-0.7, 0.7]]))


def test_quadratic_form_by_hand():
    # y = e_1 picks out node 1's two unit edges on the chorded square
    L = laplacian(square()).L
    y = np.array([1.0, 0.0, 0.0, 0.0])
    assert y @ L @ y == 2.0


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
def test_quadratic_form_identity(t, data):
    lap = laplacian(t)
    y = np.array([data.draw(st.floats(min_value=-10, max_value=10,
                                      allow_nan=False)) for _ in range(t.n)])
    direct = float(y @ lap.L @ y)
    pair_sum = 0.0
    for (i, j, w) in t.edge_list():
        pair_sum += w * (y[i - 1] - y[j - 1]) ** 2
    assert direct == pytest.approx(pair_sum, abs=1e-10)


@settings(max_examples=60, deadline=None)
@given(connected_topologies())
def test_laplacian_structure(t):
    lap = laplacian(t)
    L = lap.L
    assert np.array_equal(L, L.T)
    assert np.max(np.abs(L.sum(axis=1))) <= 1e-12
    eig = np.linalg.eigvalsh(L)
    assert eig[0] >= -1e-9
    if t.n >= 2:
        assert eig[1] > 1e-9  # algebraic connectivity of a connected graph
    d = diameter(t)
    assert 1 <= d <= t.n - 1


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
    P = np.zeros((4, 4))
    for i, j, w in SQUARE:
        P[i - 1, j - 1] = P[j - 1, i - 1] = w
    D = np.diag(P.sum(axis=1))
    copied = laplacian(pickle.loads(pickle.dumps(t)))
    for view in (lap, copied):
        for got, want in ((view.P, P), (view.D, D), (view.L, D - P)):
            assert not got.flags.writeable
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        lap.L[0, 0] = 1.0
    assert diameter(t) == diameter(pickle.loads(pickle.dumps(t))) == 2
