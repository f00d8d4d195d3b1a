import functools
import math
import operator

import numpy as np
import pytest
from conftest import events_of, exploding_plants, forced_truncation_scenarios, network_scenario
from hypothesis import given, settings
from hypothesis import strategies as st

from hwconsensus import NonFiniteValue, Schedule, advance, builtin_case, run
from hwconsensus.analysis import TrajectoryLog, log_rows, neighbour_columns, observations
from hwconsensus.errors import ValidationError

SCHED = Schedule(c_M=55.0)
# bound ln(1e6) ~ 13.8: with k = 1 and u = 0 the next u is O itself
WIDE = Schedule(c_M=1e6)


# advance as it was when it also returned each round's pooled counts,
# working estimates and aggregated observations, with the bound computed
# directly. Kept as the scalar reference that the next (u, sigma) and the
# columns TrajectoryLog derives must match bit for bit.
def _reference_advance(u, sigma, ys, z, nbrs, u_star, k, sched):
    sigma_prime = []
    for i, nb in enumerate(nbrs):
        sp = sigma[i]
        for _, j, _ in nb:
            if sigma[j] > sp:
                sp = sigma[j]
        sigma_prime.append(sp)

    a = 1.0 / k
    u_prime = []
    obs = []
    for i, nb in enumerate(nbrs):
        y = ys[i]
        O = 0.0
        for c, _, w in nb:
            O += w * (z[c] - y)
        sp = sigma_prime[i]
        if sp > sigma[i]:
            up = u[i] = u_star[i]
            sigma[i] = sp
        else:
            up = u[i]
            cand = up + a * O
            if abs(cand) < math.log(sp + sched.c_M):
                u[i] = cand
            else:
                u[i] = u_star[i]
                sigma[i] = sp + 1
        u_prime.append(up)
        obs.append(O)
    return sigma_prime, u_prime, obs


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


def one_round(edges, u, sigma, u_star, ys=None, z=None, k=1, sched=SCHED):
    """Run advance once on a small network given by 0-based (i, j, w) edges.

    z maps directed pairs (i, j) to the value agent i observes of agent j;
    unlisted pairs observe the neighbor's output exactly. Returns the next
    (u, sigma) and the round's (sigma_prime, u_prime, O) rows as the
    log_rows derives them (O from the round's own noise); both equal the
    scalar reference's, bit for bit.
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
    eps = [x - ys[j] for x, (_, j) in zip(zs, pairs)]
    assert np.array_equal([ys[j] + e for e, (_, j) in zip(eps, pairs)], zs, equal_nan=True)

    nxt_u, nxt_sigma = list(u), list(sigma)
    assert advance(nxt_u, nxt_sigma, ys, eps, nbrs, list(u_star), k, sched) is None
    ref_u, ref_sigma = list(u), list(sigma)
    ref = _reference_advance(ref_u, ref_sigma, ys, zs, nbrs, list(u_star), k, sched)
    assert (_bits(nxt_u).tolist(), nxt_sigma) == (_bits(ref_u).tolist(), ref_sigma)

    s = network_scenario(n, [(i + 1, j + 1, x) for i, j, x in edges], u_star)
    assert neighbour_columns(s.topology) == nbrs
    # the counts, pooled counts and u' of the round's one-row log, as log_rows
    # derives them, and O from this round's noise, not the seed's, as log_rows
    # forms it
    log = TrajectoryLog(s, np.array([u], dtype=float), events_of(np.array([sigma])),
                        np.array([ys], dtype=float))
    [(_, derived)] = log_rows(log)
    _, O = observations(log.y, np.array([eps], dtype=float), s.topology)
    assert derived.sigma.tolist() == [list(sigma)]
    rows = (derived.sigma_prime[0].tolist(), derived.u_prime[0].tolist(), O[0].tolist())
    assert rows[0] == ref[0]
    assert _bits(rows[1]).tolist() == _bits(ref[1]).tolist()
    assert _bits(rows[2]).tolist() == _bits(ref[2]).tolist()
    return nxt_u, nxt_sigma, rows


PAIR = [(0, 1, 1.0)]


def test_schedule_values():
    assert SCHED.bound(0) == math.log(55.0)
    assert SCHED.bound(3) == math.log(58.0)
    with pytest.raises(ValidationError):
        Schedule(c_M=0.0)


@pytest.mark.parametrize("c_M", [55.0, 2.0, 1.5, 0.1, 3.0e-7, 1e4, 2.718281828459045])
def test_bound_table_is_math_log_once_per_sigma(c_M, monkeypatch):
    real, calls = math.log, []

    def counting(x):
        calls.append(x)
        return real(x)

    monkeypatch.setattr(math, "log", counting)
    sched = Schedule(c_M=c_M)
    got = [sched.bound(s) for s in (3, 0, 3, 700, 1, 700)] + sched.bounds(1000)[:1001]
    monkeypatch.undo()
    # each sigma's bound computed once, in order, however often it is asked for
    assert calls == [s + c_M for s in range(1001)]
    want = [math.log(s + c_M) for s in (3, 0, 3, 700, 1, 700, *range(1001))]
    assert _bits(got).tolist() == _bits(want).tolist()


def test_advance_reads_the_bound_table(monkeypatch):
    # rounds of a forced-truncation run ask for the same few bounds again and
    # again; each is computed once
    real, calls = math.log, []
    s = forced_truncation_scenarios()[1]
    log = run(s).log
    sched = Schedule(c_M=s.controller.c_M)
    monkeypatch.setattr(math, "log", lambda x: calls.append(x) or real(x))
    u, sigma = list(s.controller.initial_u), [0] * s.n
    nbrs = neighbour_columns(s.topology)
    y_next, eps, counts = log.y_next, log.eps, log.sigma  # each read walks the log once
    for r in range(log.horizon - 1):
        advance(u, sigma, y_next[r].tolist(), eps[r].tolist(), nbrs,
                list(s.controller.u_star), r + 1, sched)
        assert u == log.u[r + 1].tolist() and sigma == counts[r + 1].tolist()
    top = int(counts[:-1].max())
    assert top > 5
    assert calls == [x + s.controller.c_M for x in range(top + 1)]


def test_pooled_sigma():
    # star around agent 0 plus an isolated agent 3: each pools the largest
    # count over its closed neighborhood; with no observation error every
    # agent keeps its estimate, so the next count is the pooled one
    star = [(0, 1, 1.0), (0, 2, 1.0)]
    _, sigma, (sp, _, _) = one_round(star, [0.0] * 4, [2, 3, 1, 0], [0.0] * 4)
    assert sp == sigma == [3, 3, 2, 0]
    _, sigma, (sp, _, _) = one_round(star, [0.0] * 3, [5, 0, 0], [0.0] * 3)
    assert sp == sigma == [5, 5, 5]
    # pooling reads the counts as they stood at the start of the round:
    # agent 1 adopts agent 0's count, agent 2 does not see it yet
    chain = [(0, 1, 1.0), (1, 2, 1.0)]
    _, sigma, (sp, _, _) = one_round(chain, [0.0] * 3, [1, 0, 0], [0.0] * 3)
    assert sp == [1, 1, 0]
    assert sigma == [1, 1, 0]


def test_catch_up():
    # the working estimate is the agent's own u when its count is current,
    # its reset point when a neighbor's count is larger; with O = 0 the next
    # u is the working estimate either way
    u, _, (_, up, _) = one_round(PAIR, [1.7, 0.0], [3, 3], [1.0, 1.0])
    assert up[0] == u[0] == 1.7
    u, _, (_, up, _) = one_round(PAIR, [1.7, 0.0], [2, 3], [9.9, 1.0])
    assert up[0] == u[0] == 9.9
    u, _, (_, up, _) = one_round(PAIR, [2.0, 0.0], [0, 1], [2.0, 1.0])
    assert up[0] == u[0] == 2.0


def test_aggregate_observation():
    # with k = 1, u = 0 and a wide bound the next u is O exactly
    star = [(0, 1, 1.0), (0, 2, 2.0)]
    u, _, (_, _, O) = one_round(star, [0.0] * 3, [0] * 3, [0.0] * 3,
                                ys=[0.5, 0.0, 0.0], z={(0, 1): 0.5, (0, 2): 0.5}, sched=WIDE)
    assert O[0] == u[0] == 0.0

    u, _, (_, _, O) = one_round(PAIR, [0.0, 0.0], [0, 0], [0.0, 0.0], z={(0, 1): 0.8})
    assert O[0] == u[0] == 0.8

    # hub node of the chorded square, unit weights
    square = [(0, 1, 1.0), (0, 3, 1.0), (1, 2, 1.0), (1, 3, 1.0)]
    u, _, (_, _, O) = one_round(square, [0.0] * 4, [0] * 4, [0.0] * 4,
                                z={(1, 0): 1.0, (1, 2): 2.0, (1, 3): 3.0}, sched=WIDE)
    assert O[1] == u[1] == 6.0

    # each weight multiplies its difference, and terms are summed in
    # neighbor order; the log's bit-identity depends on both
    star = [(0, 1, 0.1), (0, 2, 0.3)]
    u, _, (_, _, O) = one_round(star, [0.0] * 3, [0] * 3, [0.0] * 3,
                                ys=[0.3, 0.0, 0.0], z={(0, 1): 0.7, (0, 2): 1.9})
    assert O[0] == u[0] == 0.1 * (0.7 - 0.3) + 0.3 * (1.9 - 0.3)
    fan = [(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0)]
    u, _, (_, _, O) = one_round(fan, [0.0] * 4, [0] * 4, [0.0] * 4,
                                z={(0, 1): 0.1, (0, 2): 0.2, (0, 3): 0.3})
    for value in (O[0], u[0]):
        assert value == (0.1 + 0.2) + 0.3
        assert value != (0.3 + 0.2) + 0.1


def test_a_hub_sums_its_terms_in_neighbour_order_at_any_degree():
    # the round sums a hub's 3001 terms from 0.0, left to right, in
    # statements of at most 1000 terms: the scalar reference's bits, which
    # another order of the same terms misses
    rng = np.random.default_rng(5)
    n = 3002
    w, ys = rng.uniform(0.5, 2.0, n - 1).tolist(), rng.normal(0.0, 1e-3, n).tolist()
    star = [(0, j, x) for j, x in enumerate(w, start=1)]
    u, _, (_, _, O) = one_round(star, [0.0] * n, [0] * n, [0.0] * n, ys=ys, sched=WIDE)
    assert u[0] == O[0]
    terms = [x * (y - ys[0]) for x, y in zip(w, ys[1:])]
    assert O[0] == functools.reduce(operator.add, terms, 0.0) != sum(reversed(terms), 0.0)


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


def test_update_lower_boundary_truncates():
    # the open interval (-M, M): a candidate exactly on -M_0 escapes too
    m0 = SCHED.bound(0)
    u, sigma, _ = one_round(PAIR, [-m0, 0.0], [0, 0], [0.5, 0.0], k=5)
    assert u[0] == 0.5
    assert sigma[0] == 1


def test_update_nan_candidate_truncates():
    # a NaN observation makes the candidate NaN, which is not inside the bound
    u, sigma, (_, _, O) = one_round(PAIR, [1.0, 0.0], [0, 0], [0.5, 0.0],
                                    z={(0, 1): float("nan")}, k=2)
    assert math.isnan(O[0])
    assert u[0] == 0.5
    assert sigma[0] == 1


M0 = SCHED.bound(0)


@pytest.mark.parametrize("cand", [M0, -M0, math.nextafter(M0, 0.0), math.nextafter(-M0, 0.0),
                                  0.0, -0.0, math.inf, -math.inf, math.nan], ids=repr)
def test_the_compiled_round_keeps_a_candidate_as_abs_below_the_bound(cand):
    # u + (1/2)(0.0 + 1.0 * (0.0 + -5e-324 - 0.0)) adds -0.0 to u, so the
    # candidate is u in every bit, the sign of a zero included
    nbrs = [[(0, 1, 1.0)], [(1, 0, 1.0)]]
    u, sigma = [cand, 0.0], [0, 0]
    advance(u, sigma, [0.0, 0.0], [-5e-324, 0.0], nbrs, [0.5, 0.0], 2, SCHED)
    kept = abs(cand) < M0
    assert sigma == [0 if kept else 1, 0]
    assert _bits([u[0]]).tolist() == _bits([cand if kept else 0.5]).tolist()


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
    # innovation is derived for the log but not applied and no escape test runs
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


# ---------------------------------------------------------------------------
# the derived log columns against the scalar reference, on whole runs

def _check_against_reference(log, s):
    """Replay every row of a log through _reference_advance and compare.

    sigma_prime and u_prime must equal the reference's on every row, and
    O_next and z on every logged row, bit for bit; y_next, O_next, z and eps
    are NaN on every other row. On a stride-1 log the reference's next
    (u, sigma) must also be the logged next row.
    """
    K, n = log.u.shape
    nbrs = neighbour_columns(s.topology)
    observed = [j - 1 for _, j in log.pairs]
    sched = Schedule(c_M=s.controller.c_M)
    logged = set(log.logged_rows.tolist())
    # a log forms its derived columns on each read: each is read once
    dense = {name: getattr(log, name) for name in ("y_next", "O_next", "z", "eps")}
    y_next, O_next, z_col, eps = dense.values()
    counts, pooled, u_prime = log.sigma, log.sigma_prime, log.u_prime
    for r in range(K):
        u, sigma = log.u[r].tolist(), counts[r].tolist()
        ys = y_next[r].tolist()
        z = (y_next[r, observed] + eps[r]).tolist()
        sp, up, O = _reference_advance(u, sigma, ys, z, nbrs, list(s.controller.u_star),
                                       r + 1, sched)
        assert pooled[r].tolist() == sp, r
        assert _bits(u_prime[r]).tolist() == _bits(up).tolist(), r
        if r in logged:
            assert _bits(O_next[r]).tolist() == _bits(O).tolist(), r
            assert _bits(z_col[r]).tolist() == _bits(z).tolist(), r
            if log.log_stride == 1 and r + 1 < K:
                assert _bits(log.u[r + 1]).tolist() == _bits(u).tolist(), r
                assert counts[r + 1].tolist() == sigma, r
        else:
            for name, column in dense.items():
                assert np.isnan(column[r]).all(), (name, r)


def _reference_scenarios():
    out = [builtin_case(case, horizon=1500, log_stride=stride)
           for case in (1, 2, 3) for stride in (1, 7)]
    return out + forced_truncation_scenarios()


@pytest.mark.parametrize("s", _reference_scenarios(), ids=lambda s: f"{s.label}-{s.log_stride}")
def test_derived_columns_match_the_scalar_reference(s):
    log = run(s).log
    if s.label.startswith("forced"):
        assert (log.sigma_prime > log.sigma).any()  # restart rounds
    _check_against_reference(log, s)


def test_derived_columns_of_a_partial_log_match_the_scalar_reference():
    # the plants of round 50 overflow: the partial log holds rounds 1..49
    s = builtin_case(1, horizon=200, log_stride=7)
    with pytest.raises(NonFiniteValue) as exc:
        run(s, initial_plants=exploding_plants(s, agent=3, call=50))  # third agent of round 50
    log = exc.value.partial.log
    assert log.horizon == 49 and len(log.logged_rows) == 7
    _check_against_reference(log, s)
