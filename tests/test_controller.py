import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwconsensus import Schedule, advance
from hwconsensus.errors import ValidationError

SCHED = Schedule(c_M=55.0)


def one_round(edges, u, sigma, u_star, ys=None, z=None, k=1, sched=SCHED):
    """Run advance once on a small network given by 0-based (i, j, w) edges.

    z maps directed pairs (i, j) to the value agent i observes of agent j;
    unlisted pairs observe the neighbor's output exactly. Returns the next
    (u, sigma) and advance's (sigma_prime, u_prime, O) rows.
    """
    n = len(u)
    ys = [0.0] * n if ys is None else ys
    w = {}
    for i, j, x in edges:
        w[(i, j)] = w[(j, i)] = x
    pairs = sorted(w)
    nbrs = [[(c, j, w[(a, j)]) for c, (a, j) in enumerate(pairs) if a == i]
            for i in range(n)]
    zs = [(z or {}).get((i, j), ys[j]) for (i, j) in pairs]
    u, sigma = list(u), list(sigma)
    rows = advance(u, sigma, ys, zs, nbrs, list(u_star), k, sched)
    return u, sigma, rows


PAIR = [(0, 1, 1.0)]


def test_schedule_values():
    assert SCHED.a(1) == 1.0
    assert SCHED.a(4) == 0.25
    assert SCHED.bound(0) == math.log(55.0)
    assert SCHED.bound(3) == math.log(58.0)
    with pytest.raises(ValidationError):
        Schedule(c_M=0.0)


def test_pooled_sigma():
    # star around agent 0 plus an isolated agent 3: each pools the largest
    # count over its closed neighborhood
    star = [(0, 1, 1.0), (0, 2, 1.0)]
    _, _, (sp, _, _) = one_round(star, [0.0] * 4, [2, 3, 1, 0], [0.0] * 4)
    assert sp == [3, 3, 2, 0]
    _, _, (sp, _, _) = one_round(star, [0.0] * 3, [5, 0, 0], [0.0] * 3)
    assert sp == [5, 5, 5]
    # pooling reads the counts as they stood at the start of the round:
    # agent 1 adopts agent 0's count, agent 2 does not see it yet
    chain = [(0, 1, 1.0), (1, 2, 1.0)]
    _, sigma, (sp, _, _) = one_round(chain, [0.0] * 3, [1, 0, 0], [0.0] * 3)
    assert sp == [1, 1, 0]
    assert sigma == [1, 1, 0]


def test_catch_up():
    # the working estimate is the agent's own u when its count is current,
    # its reset point when a neighbor's count is larger
    _, _, (_, up, _) = one_round(PAIR, [1.7, 0.0], [3, 3], [1.0, 1.0])
    assert up[0] == 1.7
    _, _, (_, up, _) = one_round(PAIR, [1.7, 0.0], [2, 3], [9.9, 1.0])
    assert up[0] == 9.9
    _, _, (_, up, _) = one_round(PAIR, [2.0, 0.0], [0, 1], [2.0, 1.0])
    assert up[0] == 2.0


def test_aggregate_observation():
    star = [(0, 1, 1.0), (0, 2, 2.0)]
    _, _, (_, _, O) = one_round(star, [0.0] * 3, [0] * 3, [0.0] * 3,
                                ys=[0.5, 0.0, 0.0], z={(0, 1): 0.5, (0, 2): 0.5})
    assert O[0] == 0.0

    _, _, (_, _, O) = one_round(PAIR, [0.0, 0.0], [0, 0], [0.0, 0.0], z={(0, 1): 0.8})
    assert O[0] == 0.8

    # hub node of the chorded square, unit weights
    square = [(0, 1, 1.0), (0, 3, 1.0), (1, 2, 1.0), (1, 3, 1.0)]
    _, _, (_, _, O) = one_round(square, [0.0] * 4, [0] * 4, [0.0] * 4,
                                z={(1, 0): 1.0, (1, 2): 2.0, (1, 3): 3.0})
    assert O[1] == 6.0

    # each weight multiplies its difference, and terms are summed in
    # neighbor order; the log's bit-identity depends on both
    star = [(0, 1, 0.1), (0, 2, 0.3)]
    _, _, (_, _, O) = one_round(star, [0.0] * 3, [0] * 3, [0.0] * 3,
                                ys=[0.3, 0.0, 0.0], z={(0, 1): 0.7, (0, 2): 1.9})
    assert O[0] == 0.1 * (0.7 - 0.3) + 0.3 * (1.9 - 0.3)
    fan = [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)]
    _, _, (_, _, O) = one_round(fan, [0.0] * 4, [0] * 4, [0.0] * 4,
                                z={(0, 1): 0.1, (0, 2): 0.2, (0, 3): 0.3})
    assert O[0] == (0.1 + 0.2) + 0.3
    assert O[0] != (0.3 + 0.2) + 0.1


def test_update_keep():
    u, sigma, _ = one_round(PAIR, [1.0, 0.0], [0, 0], [2.0, 0.0],
                            z={(0, 1): 1.0}, k=2)
    assert u[0] == 1.5
    assert sigma[0] == 0


def test_update_truncate():
    # candidate 4 + 1 = 5 >= ln(55) ~ 4.007
    u, sigma, _ = one_round(PAIR, [4.0, 0.0], [0, 0], [2.0, 0.0], z={(0, 1): 1.0})
    assert u[0] == 2.0
    assert sigma[0] == 1


def test_update_boundary_truncates():
    # candidate landing exactly on the bound counts as an escape
    m0 = SCHED.bound(0)
    u, sigma, _ = one_round(PAIR, [m0, 0.0], [0, 0], [0.5, 0.0], k=5)
    assert u[0] == 0.5
    assert sigma[0] == 1


def test_step_agent_live_round_runs_update():
    u, sigma, (sp, up, O) = one_round(PAIR, [1.0, 0.0], [0, 0], [2.0, 0.0],
                                      z={(0, 1): 0.8}, k=2)
    assert sp[0] == 0
    assert up[0] == 1.0
    assert O[0] == 0.8
    assert u[0] == 1.0 + 0.5 * 0.8
    assert sigma[0] == 0


def test_step_agent_catch_up_is_pure_restart():
    # a behind agent adopts the pooled count and restarts from u*; the
    # innovation is returned but not applied and no escape test runs
    u, sigma, (sp, up, O) = one_round(PAIR, [1.0, 0.0], [2, 4], [2.0, 0.0],
                                      z={(0, 1): 1000.0}, k=3)
    assert sp[0] == 4
    assert up[0] == 2.0
    assert O[0] == 1000.0
    assert u[0] == 2.0
    assert sigma[0] == 4


def test_step_agent_live_truncation_fires():
    u, sigma, (sp, _, _) = one_round(PAIR, [1.0, 0.0], [1, 1], [0.5, 0.0],
                                     z={(0, 1): 100.0})
    assert sp[0] == 1
    assert u[0] == 0.5
    assert sigma[0] == 2  # the agent's own count went up by one


@settings(max_examples=300, deadline=None)
@given(
    u=st.floats(min_value=-100, max_value=100, allow_nan=False),
    sigma=st.integers(min_value=0, max_value=50),
    extra=st.integers(min_value=0, max_value=3),
    O=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    k=st.integers(min_value=1, max_value=10**6),
    c_M=st.floats(min_value=1.5, max_value=1e4, allow_nan=False),
)
def test_update_bound_invariant(u, sigma, extra, O, k, c_M):
    # agent 0 holds an arbitrary estimate and sees observation O; its
    # neighbor is `extra` counts ahead, so extra > 0 makes it a restart round
    sched = Schedule(c_M=c_M)
    u_star = 0.9 * math.log(c_M) * 0.5
    pooled = sigma + extra
    nxt, sig, (sp, up, obs) = one_round(PAIR, [u, u_star], [sigma, pooled],
                                        [u_star, -u_star], z={(0, 1): O},
                                        k=k, sched=sched)
    assert sp == [pooled, pooled]
    assert obs[0] == O
    for i in (0, 1):
        assert abs(nxt[i]) < sched.bound(sig[i])
        assert sig[i] in (sp[i], sp[i] + 1)
    if extra:
        assert up[0] == u_star
        assert nxt[0] == u_star and sig[0] == pooled
        return
    assert up[0] == u
    cand = u + (1.0 / k) * O
    if abs(cand) < sched.bound(pooled):
        assert nxt[0] == cand and sig[0] == pooled
    else:
        assert nxt[0] == u_star and sig[0] == pooled + 1
