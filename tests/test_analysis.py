import dataclasses
import json
from fractions import Fraction
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hwconsensus import (
    Schedule,
    build_topology,
    builtin_case,
    check_window_bound,
    consensus_point,
    full_verification,
    gain_roots,
    laplacian,
    load_scenario,
    lyapunov_v,
    m_of,
    noise_decomposition,
    regression_g,
    run,
    scenario_from_dict,
    scenario_to_dict,
    summarize,
    truncation_times,
    verify_centralized_recursion,
)
from hwconsensus import analysis, noise
from hwconsensus.analysis import (
    TrajectoryLog,
    TruncationTimes,
    counts_at,
    first_failure,
    truncation_events,
)
from hwconsensus.errors import (
    DimensionMismatch,
    IdentityViolation,
    IndexOutOfRange,
    StepNotLogged,
    ValidationError,
)
from hwconsensus.harness import AgentSpec

from conftest import (
    RESTART_CASE,
    STIFF_CASE1,
    dense_laplacian,
    events_of,
    forced_truncation_scenarios,
    network_doc,
    network_scenario,
    reweighted,
    stiff_case,
    two_agent_scenario,
    whole_auxiliary,
    whole_metrics,
)

INF = float("inf")

CASE1 = builtin_case(1)
GAINS1 = CASE1.gains()
LAP1 = laplacian(CASE1.topology)


def synthetic_log(sigma_rows):
    """Log with scripted truncation counts (the count events of events_of)
    and zeroed u and y, of agents 1 and 2 joined by one edge and any others
    isolated."""
    sig = np.array(sigma_rows, dtype=np.int64)
    K, n = sig.shape
    edges = [(1, 2, 1.0)] if n > 1 else []
    log = TrajectoryLog(network_scenario(n, edges), u=np.zeros((K, n)), events=events_of(sig),
                        y=np.zeros((K, n)))
    assert np.array_equal(log.sigma, sig)
    return log


def test_horizon_and_logged_rows_follow_the_arrays():
    log = synthetic_log([[0, 0]] * 7)
    assert log.horizon == 7
    assert log.logged_rows.tolist() == list(range(7))
    strided = dataclasses.replace(log, scenario=dataclasses.replace(log.scenario, log_stride=3))
    assert strided.logged_rows.tolist() == [0, 3, 6]


# ---------------------------------------------------------------------------
# m(k, T)

def test_m_of_examples():
    assert m_of(10, math.log(2.0)) == 18
    assert m_of(1, 1.0) == 1  # H_1 = 1 <= 1 < H_2
    assert m_of(10, 0.05) == 9  # first term 1/10 already too big
    assert m_of(2, 0.5) == 2  # exact tie 1/2 <= 0.5 kept
    assert m_of(1, 13.8) == 552817  # e^13.8 just below the 2^20-term limit


def test_m_of_raises_when_the_sandwich_fails(monkeypatch):
    import hwconsensus.analysis as A
    monkeypatch.setattr(A.math, "exp", lambda x: 1.0)  # sandwich becomes k-2 < m < k-1
    with pytest.raises(IdentityViolation, match="window bound violated") as exc:
        m_of(10, 1.0)
    m = A._window_count(10, 1.0)
    assert str(exc.value) == f"window bound violated: 8.0 < {m} < 9.0 fails at k=10, T=1.0"
    assert exc.value.location == (10, 1.0, 8.0, m, 9.0)
    assert [type(v) for v in exc.value.location] == [int, float, float, int, float]


def test_eq28_failure_reported_under_python_O():
    # the same broken sandwich must still fail verification when asserts
    # are compiled away
    script = textwrap.dedent("""
        import sys
        from hwconsensus import analysis, builtin_case, full_verification, run
        s = builtin_case(1, horizon=50)
        res = run(s)
        ok = full_verification(res.log, s.gains(), s.topology)[0]["eq28_ok"]
        same = all(analysis._window_counts(20, T).tolist()
                   == [analysis._window_count(k, T) for k in range(1, 21)]
                   for T in (0.1, 0.5, 1.0, 2.0))
        analysis.math.exp = lambda x: 1.0
        broken = full_verification(res.log, s.gains(), s.topology)[0]["eq28_ok"]
        print(sys.flags.optimize, ok, broken, same)
    """)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["1", "True", "False", "True"]


def test_m_of_rejects_bad_input():
    with pytest.raises(ValidationError):
        m_of(0, 1.0)
    with pytest.raises(ValidationError):
        m_of(3, 0.0)
    with pytest.raises(ValidationError):
        m_of(3, -1.0)


def test_m_of_rejects_infinite_T():
    # the summation never exceeds an infinite T, so this must not reach it
    with pytest.raises(ValidationError):
        m_of(1, INF)


def test_m_of_rejects_T_whose_exponential_overflows():
    # e^800 is not a float, so the sandwich cannot be formed
    with pytest.raises(ValidationError):
        m_of(1, 800.0)


@pytest.mark.parametrize("k, T", [(1, 14.0), (2, 20.0), (2_000_000, 0.1)])
def test_m_of_rejects_windows_past_the_summation_limit(k, T):
    # k e^T > 2^20 terms would be summed one by one
    with pytest.raises(ValidationError, match="1048576"):
        m_of(k, T)


SHORT = builtin_case(1, horizon=50)
SHORT_LOG = run(SHORT).log


def test_the_eq28_grid_is_within_the_summation_limit():
    # no count of the grid sums more than _MAX_TERMS terms (see _window_ok)
    import hwconsensus.analysis as A
    assert A.EQ28_GRID_T
    assert all(A._window_ok(A.EQ28_GRID_K, T) for T in A.EQ28_GRID_T)


def test_eq28_failure_located_after_the_table_is_built(monkeypatch):
    import hwconsensus.analysis as A
    report, extras = full_verification(SHORT_LOG, SHORT.gains(), SHORT.topology)
    assert report["eq28_ok"] is True
    assert extras["eq28_first_failure"] is None
    monkeypatch.setattr(A.math, "exp", lambda x: 1.0)  # sandwich becomes k-2 < m < k-1
    report, extras = full_verification(SHORT_LOG, SHORT.gains(), SHORT.topology)
    assert report["eq28_ok"] is False
    # m(1, 0.1) = 0 (1/1 > 0.1) and 0 < 0.0 fails
    assert extras["eq28_first_failure"] == (1, 0.1, -1.0, 0, 0.0)


def test_eq28_failure_after_k1_located_exactly(monkeypatch):
    import hwconsensus.analysis as A
    exp = math.exp
    # e^0.5 shrunk by 0.1 %: the upper bound k e^T - 1 first drops below
    # m(k, 0.5) at k = 241, while T = 0.1, first on the grid, keeps the true e^T
    monkeypatch.setattr(A.math, "exp", lambda x: exp(x) * (1 - 1e-3) if x == 0.5 else exp(x))

    def scan():
        for T in A.EQ28_GRID_T:
            for k in range(1, A.EQ28_GRID_K + 1):
                m = A._window_count(k, T)
                lo = (k - 1) * math.exp(T) - 1.0
                hi = k * math.exp(T) - 1.0
                if not lo < m < hi:
                    return k, T, lo, m, hi
        return None

    report, extras = full_verification(SHORT_LOG, SHORT.gains(), SHORT.topology)
    failure = extras["eq28_first_failure"]
    assert report["eq28_ok"] is False
    assert failure == scan()
    assert failure[0] > 1 and failure[1] == 0.5
    # cli verify prints these with !r, which shows numpy scalars by type
    assert [type(v) for v in failure] == [int, float, float, int, float]


TABLE_T = (0.1, 0.5, 1.0, 2.0, 0.3, math.log(2.0), 1.7, 2.5)


@pytest.fixture(scope="module")
def summed_counts():
    """_window_count(k, T) for k = 1..1000 at every T of TABLE_T."""
    import hwconsensus.analysis as A
    return {T: [A._window_count(k, T) for k in range(1, 1001)] for T in TABLE_T}


@pytest.mark.parametrize("K", [1, 20, 1000])
def test_window_table_equals_the_summation(summed_counts, K):
    import hwconsensus.analysis as A
    A._window_counts.cache_clear()
    try:
        for T in TABLE_T:
            table = A._window_counts(K, T)
            assert table.dtype == np.int64 and not table.flags.writeable
            assert table.tolist() == summed_counts[T][:K], (K, T)
    finally:
        A._window_counts.cache_clear()


def test_window_table_sums_past_a_short_prefix_array(summed_counts, monkeypatch):
    import hwconsensus.analysis as A
    monkeypatch.setattr(A, "_MAX_TERMS", 50)  # m(k, 2.0) passes 50 from k = 8 on
    A._window_counts.cache_clear()
    try:
        assert A._window_counts(20, 2.0).tolist() == summed_counts[2.0][:20]
    finally:
        A._window_counts.cache_clear()


def test_window_table_sums_exact_ties(monkeypatch):
    # 1/1 = 1.0 and 1/2 = 0.5 sit exactly on T: no margin certifies them
    import hwconsensus.analysis as A
    sums = []
    summation = A._window_count

    def counted_sum(k, T):
        sums.append((k, T))
        return summation(k, T)

    monkeypatch.setattr(A, "_window_count", counted_sum)
    A._window_counts.cache_clear()
    try:
        assert A._window_counts(20, 1.0)[0] == 1
        assert A._window_counts(20, 0.5)[1] == 2
    finally:
        A._window_counts.cache_clear()
    assert (1, 1.0) in sums and (2, 0.5) in sums


def test_window_table_built_once_per_process(monkeypatch):
    import hwconsensus.analysis as A
    sums = []
    lengths = []
    summation = A._window_count
    table = A._window_counts

    def counted_sum(k, T):
        sums.append((k, T))
        return summation(k, T)

    def measured_table(K, T):
        lengths.append(len(table(K, T)))
        return table(K, T)

    monkeypatch.setattr(A, "_window_count", counted_sum)
    monkeypatch.setattr(A, "_window_counts", measured_table)
    table.cache_clear()
    try:
        other = run(SHORT, master_seed=7).log
        assert not np.array_equal(other.u, SHORT_LOG.u)
        full_verification(SHORT_LOG, SHORT.gains(), SHORT.topology)
        first = len(sums)
        assert first <= 4  # only the points the prefix sums cannot certify
        full_verification(other, SHORT.gains(), SHORT.topology)
        assert len(sums) == first

        del lengths[:]
        full_verification(SHORT_LOG, SHORT.gains(), SHORT.topology)
        assert lengths == [1000] * 4
        assert len(sums) == first
    finally:
        # drop the tables built through the counting wrapper
        table.cache_clear()


@settings(max_examples=60, deadline=None)
@given(k=st.integers(min_value=1, max_value=400),
       T=st.sampled_from([0.1, 0.5, 1.0, 2.0, math.log(2.0)]))
def test_m_of_against_high_precision_oracle(k, T):
    import mpmath as mp
    got = m_of(k, T)
    with mp.workdps(60):
        tt = mp.mpf(T)
        s = mp.mpf(0)
        m = k - 1
        i = k
        while s + mp.mpf(1) / i <= tt:
            s += mp.mpf(1) / i
            m = i
            i += 1
    assert got == m
    assert (k - 1) * math.exp(T) - 1.0 < got < k * math.exp(T) - 1.0


# ---------------------------------------------------------------------------
# regression field

def test_regression_identity_gains_on_span():
    ident = [lambda x: x] * 4
    g = regression_g(np.ones(4), ident, LAP1)
    assert np.array_equal(g, np.zeros(4))


def test_regression_case1_at_zero():
    h0 = np.array([g(0.0) for g in GAINS1])
    assert np.allclose(h0, [0.0, -0.8, -0.592593, 0.524476], atol=1e-6)
    g = regression_g(np.zeros(4), GAINS1, LAP1)
    assert g[0] == pytest.approx(-0.275524, abs=1e-6)
    assert g[2] == pytest.approx(-0.207407, abs=1e-6)
    assert np.allclose(g, -(dense_laplacian(CASE1.topology) @ h0), atol=1e-12)


def test_regression_vanishes_at_consensus_point():
    cp = consensus_point(GAINS1, 10.0)
    g = regression_g(cp.u, GAINS1, LAP1)
    assert np.max(np.abs(g)) < 1e-8


def test_regression_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        regression_g(np.zeros(3), GAINS1, LAP1)


def test_lyapunov_dimension_mismatch():
    # a component too many is not ignored, one too few is not an IndexError
    for u in ([1.0, 2.0, 3.0, 4.0, 99.0], [1.0, 2.0, 3.0]):
        with pytest.raises(DimensionMismatch):
            lyapunov_v(u, GAINS1)


# ---------------------------------------------------------------------------
# noise decomposition

def test_decomposition_steady_state_is_zero():
    s = two_agent_scenario(horizon=50, dist="zero", initial_u=(1.5, 1.5))
    res = run(s)
    gains = s.gains()
    lap = laplacian(s.topology)
    for k in (1, 10, 50):
        e1, e2, e3 = noise_decomposition(res.log, k, 1, gains, lap)
        assert (e1, e2, e3) == (0.0, 0.0, 0.0)


def test_decomposition_noise_free_has_zero_e1():
    s = builtin_case(1, horizon=200, noise_off=True)
    res = run(s)
    O_next = res.log.O_next
    for k in (1, 7, 200):
        for i in (1, 2, 3, 4):
            e1, e2, e3 = noise_decomposition(res.log, k, i, GAINS1, LAP1)
            assert e1 == 0.0
            g = regression_g(res.log.u[k - 1], GAINS1, LAP1)[i - 1]
            O = O_next[k - 1, i - 1]
            assert e2 + e3 == pytest.approx(O - g, abs=1e-10)


def test_decomposition_on_noisy_run(runs):
    log = runs(1, 7).log
    rng = np.random.default_rng(1)
    for k in rng.integers(1, log.horizon + 1, size=20):
        for i in (1, 2, 3, 4):
            noise_decomposition(log, int(k), i, GAINS1, LAP1)  # raises on violation


def test_geometric_rows_are_np_uniques():
    # the first of each run of equal rows, as np.unique gives them
    for K in (1, 2, 3, 10, 300, 5000, 10 ** 5, 10 ** 7):
        for points in (1, 2, 5, 500, 10 ** 4):
            ks = np.rint(np.geomspace(1, K, num=min(points, K))).astype(int)
            rows = analysis.geometric_rows(K, points)
            assert rows.dtype == ks.dtype and np.array_equal(rows, np.unique(ks) - 1), (K, points)


def test_decomposition_is_a_view_of_the_sweep():
    import hwconsensus.analysis as A
    log = run(builtin_case(1, horizon=3000)).log
    # (k, agent, term), compared bit for bit
    sweep = np.concatenate([np.stack(A._decompose(block, LAP1)[:3], axis=-1)
                            for block in A.log_blocks(log, GAINS1, LAP1)])
    per_step = np.array([[noise_decomposition(log, k, i, GAINS1, LAP1)
                          for i in (1, 2, 3, 4)] for k in range(1, log.horizon + 1)])
    assert per_step.shape == sweep.shape == (3000, 4, 3)
    assert np.count_nonzero(per_step.view(np.int64) != sweep.view(np.int64)) == 0


def test_noise_decomposition_is_the_whole_blocks_decomposition():
    # 12 agents of degrees 4 to 8: the one-row block of noise_decomposition
    # sums every term as the whole log's one block does, bit for bit, at
    # every step and agent
    s = scenario_from_dict(network_doc(12, 60))
    log, gains, lap = run(s).log, s.gains(), laplacian(s.topology)
    (block,) = analysis.log_blocks(log, gains, lap)
    whole = np.stack(analysis._decompose(block, lap)[:3], axis=-1)
    per_step = np.array([[noise_decomposition(log, k, i, gains, lap) for i in range(1, 13)]
                         for k in range(1, 61)])
    assert per_step.shape == whole.shape == (60, 12, 3)
    assert np.array_equal(per_step.view(np.int64), whole.view(np.int64))


@pytest.mark.parametrize("which", ["case1", "case2", "case3", "stiff", "restart", "network-48"])
def test_decomposition_bound_holds_in_exact_arithmetic(which, monkeypatch):
    # both sides of O - g = e1 + e2 + e3, evaluated exactly from the float
    # inputs (y, h, the noise and the weights, d_i the exact row sum), are
    # equal; the two float sides' distances from that value sum to at most
    # gamma_{2 d_i + 5} S, with S exact, and to at most _decompose's bound
    # gamma_t S. Cells: the first rows, the rows around count events, and
    # random rows, all of them in one block
    s = {"stiff": lambda: load_scenario(STIFF_CASE1),
         "restart": lambda: load_scenario(RESTART_CASE),
         "network-48": lambda: scenario_from_dict(network_doc(48, 200))}.get(
        which, lambda: builtin_case(int(which[-1]), horizon=2000))()
    log, lap = run(s).log, laplacian(s.topology)
    monkeypatch.setattr(noise, "BLOCK_ROWS", log.horizon)
    (block,) = analysis.log_blocks(log, s.gains(), lap)
    e1, e2, e3, rhs, bound = analysis._decompose(block, lap)
    K, n = log.u.shape
    rows = {0, 1, 2} | {int(k) + dk for k in log.events[:12, 0] for dk in (-1, 0, 1)}
    rows |= set(np.random.default_rng(0).integers(0, K, 10).tolist())
    nbrs = analysis.neighbour_columns(s.topology)
    for r in sorted(x for x in rows if 0 <= x < K):
        y, h, eps = ([Fraction(x) for x in a[r].tolist()] for a in (block.y, block.h, block.noise))
        for i in range(n):
            nb = [(c, j, Fraction(w)) for c, j, w in nbrs[i]]
            d = sum(p for _, _, p in nb)
            exact = (sum(p * eps[c] for c, _, p in nb) + d * (h[i] - y[i])
                     + sum(p * (y[j] - h[j]) for _, j, p in nb))
            assert exact == (sum(p * (y[j] + eps[c] - y[i]) for c, j, p in nb)
                             - (sum(p * h[j] for _, j, p in nb) - d * h[i]))
            lhs = float(e1[r, i]) + float(e2[r, i]) + float(e3[r, i])
            dist = abs(Fraction(lhs) - exact) + abs(Fraction(float(rhs[r, i])) - exact)
            S = (sum(p * (abs(eps[c]) + abs(y[j]) + abs(h[j])) for c, j, p in nb)
                 + d * (abs(h[i]) + abs(y[i])))
            t = 2 * len(nb) + 5
            assert dist <= Fraction(t, 2 ** 53 - t) * S, (r, i)
            assert dist <= Fraction(float(bound[r, i])), (r, i)


# weight: the Laplacian of a topology whose edge (2, 3) weighs 1 part in
# 10^6 more than the log's, so O and e1 + e2 + e3 weigh agent 3's one
# neighbour apart. inf everywhere: both sides are NaN.
@pytest.mark.parametrize("gains, lap", [
    (GAINS1, laplacian(reweighted(CASE1.topology, 2, 3))),
    ([lambda x: np.full_like(x, INF)] * 4, LAP1),
], ids=["weight", "inf"])
def test_decomposition_failure_is_located(gains, lap):
    log = run(builtin_case(1, horizon=50)).log
    with np.errstate(invalid="ignore"), pytest.raises(
            IdentityViolation, match="decomposition identity violated at k=7, agent 3") as exc:
        noise_decomposition(log, 7, 3, gains, lap)
    k, agent, lhs, rhs = exc.value.location
    assert (k, agent) == (7, 3)
    assert [type(v) for v in exc.value.location] == [int, int, float, float]
    assert not abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


@pytest.mark.parametrize("i", [0, -1, 5])
def test_decomposition_names_an_agent_outside_1_to_n(i):
    # negative indexing would read agent 4 for 0 and agent 3 for -1
    with pytest.raises(IndexOutOfRange, match=rf"agent {i} outside 1\.\.4"):
        noise_decomposition(SHORT_LOG, 7, i, GAINS1, LAP1)


def test_decomposition_bound_passes_huge_gains():
    # 2^60 everywhere: g(u) is exactly 0 and h - y rounds y away, so the
    # sides differ by about O; a rounding within gamma_t S, which counts h
    broken = [lambda x: np.full_like(x, 2.0 ** 60)] * 4
    for i in (1, 2, 3, 4):
        e1, e2, e3 = noise_decomposition(SHORT_LOG, 7, i, broken, LAP1)
        assert abs(e2) >= 2.0 ** 60


@pytest.mark.parametrize("case", [1, 2, 3])
def test_a_stiff_correct_run_passes_the_decomposition(case):
    # outputs near 1e5: one rounding of a sum exceeds 1e-10, and the
    # bound the terms' magnitudes set passes every cell
    s = stiff_case(case)
    report, extras = full_verification(run(s).log, s.gains(), s.topology)
    assert report["decomposition_max_err"] > 1e-10
    assert extras["decomposition_first_failure"] is None
    assert report == {**report, "lemma3_residual": 0.0, "eq26_ok": True, "eq28_ok": True}
    assert extras["recursion"].passed


def test_the_stiff_scenario_file_is_stiff_case_1():
    with open(STIFF_CASE1) as fh:
        assert json.load(fh) == scenario_to_dict(stiff_case(1))


@pytest.mark.parametrize("stiff", [False, True], ids=["builtin", "stiff"])
@pytest.mark.parametrize("case", [1, 2, 3])
def test_the_decomposition_fails_a_real_inconsistency(case, stiff, monkeypatch):
    s = stiff_case(case) if stiff else builtin_case(case, horizon=2000, seed=3)
    log = run(s).log
    a, b = log.pairs[0]

    def first_failure_of(topology=s.topology):
        return full_verification(log, s.gains(), topology)[1]["decomposition_first_failure"]

    assert first_failure_of() is None
    # edge (a, b) weighs 1 part in 10^6 more than in the log
    k, agent, err = first_failure_of(reweighted(s.topology, a, b))
    assert (k, agent) == (1, a) and err > 0.0
    # the term of edge (a, b) dropped from e1 or from e3; the e3 term is 0
    # in round 1 where agent b's output starts at its gain, so then the
    # first failure is in round 2
    decompose = analysis._decompose
    for index, term in ((0, lambda block: block.noise[:, 0]),
                        (2, lambda block: block.y[:, b - 1] - block.h[:, b - 1])):
        def dropped(block, lap, index=index, term=term):
            parts = list(decompose(block, lap))
            parts[index] = parts[index].copy()
            parts[index][:, a - 1] -= s.topology.weight(a, b) * term(block)
            return tuple(parts)
        monkeypatch.setattr(analysis, "_decompose", dropped)
        k, agent, err = first_failure_of()
        assert k <= 2 and agent == a and err > 0.0, index


def test_decomposition_requires_logged_step():
    s = builtin_case(1, horizon=300, log_stride=10)
    res = run(s)
    noise_decomposition(res.log, 11, 1, GAINS1, LAP1)
    with pytest.raises(StepNotLogged):
        noise_decomposition(res.log, 12, 1, GAINS1, LAP1)
    with pytest.raises(StepNotLogged):
        noise_decomposition(res.log, 0, 1, GAINS1, LAP1)


@pytest.mark.parametrize("stride", [1, 7])
def test_decomposition_of_a_step_reads_nothing_of_the_horizon(stride):
    # whether step k is logged is arithmetic on k, the horizon and the
    # stride, with no array of the logged rows; u and y are zero-stride views,
    # so the call's own arrays are all that tracemalloc sees
    K = 10 ** 6
    s = builtin_case(1, horizon=K, log_stride=stride)
    log = TrajectoryLog(s, np.broadcast_to(0.0, (K, s.n)), np.empty((0, 3), dtype=np.int64),
                        np.broadcast_to(0.0, (-(-K // stride), s.n)))
    steps = (1, 1 + stride, K - (K - 1) % stride)
    noise_decomposition(log, steps[0], 2, GAINS1, LAP1)
    tracemalloc.start()
    try:
        for k in steps:
            noise_decomposition(log, k, 2, GAINS1, LAP1)
        for k in (0, K + 1, 2 if stride > 1 else -1):
            with pytest.raises(StepNotLogged):
                noise_decomposition(log, k, 2, GAINS1, LAP1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


@pytest.mark.parametrize("stride", [1, 3])
def test_decomposition_draws_one_step(stride, monkeypatch):
    # the noise and O of step k are drawn for that step alone, with the bits
    # of the whole-horizon columns, which the call does not form
    s = builtin_case(1, horizon=600, log_stride=stride)
    log = run(s).log
    noise, logged_O = log.noise, log.logged_O
    monkeypatch.setattr(analysis, "log_rows", lambda log: pytest.fail("a whole column formed"))
    for k in (1, 4, 298, 598):
        x = slice((k - 1) // stride, (k - 1) // stride + 1)
        u = log.u[k - 1:k]
        block = analysis.Block(np.array([k]), u, log.y[x], noise[x], logged_O[x],
                               *analysis.gain_field(u, GAINS1, LAP1))
        expected = np.stack(analysis._decompose(block, LAP1)[:3], axis=-1)[0]
        got = np.array([noise_decomposition(log, k, i, GAINS1, LAP1) for i in (1, 2, 3, 4)])
        assert np.array_equal(got.view(np.int64), expected.view(np.int64))


# ---------------------------------------------------------------------------
# truncation times and windows

def test_truncation_times_scripted():
    log = synthetic_log([[0, 0], [0, 0], [1, 0], [1, 1], [2, 2]])
    t = truncation_times(log)
    assert t.top == 2
    assert t.r[0] == 1 and t.r[1] == 3 and t.r[2] == 5
    assert t.r_agent[1].tolist() == [3.0, 4.0]
    assert t.r_agent[2].tolist() == [5.0, 5.0]
    assert np.minimum(t.r_agent[1], t.r[2]).tolist() == [3.0, 4.0]  # the window ends
    assert math.isinf(t.r[3])


def test_truncation_times_no_truncations():
    t = truncation_times(synthetic_log([[0, 0]] * 6))
    assert t.top == 0
    assert t.r[0] == 1.0
    assert math.isinf(t.r[1])


def test_truncation_times_agent_two_at_step_five():
    # one agent fires at k=5 on the chorded square; the rest catch up
    # within the diameter of 2 steps
    rows = [[0, 0, 0, 0]] * 4 + [[0, 1, 0, 0]] + [[1, 1, 1, 1]] * 3
    log = synthetic_log(rows)
    t = truncation_times(log)
    assert t.r[1] == 5.0
    assert np.all(t.r_agent[1] <= 7.0)
    assert check_window_bound(t, 2, log.horizon)


def test_window_bound_violation_detected():
    rows = [[0, 0]] * 4 + [[1, 0]] + [[1, 0]] * 6 + [[1, 1]]
    t = truncation_times(synthetic_log(rows))
    assert not check_window_bound(t, 2, len(rows))
    assert check_window_bound(t, 7, len(rows))


def test_window_bound_end_of_run_excused():
    # the other agent never catches up, but the run ends inside its window
    rows = [[0, 0]] * 8 + [[1, 0], [1, 0]]
    t = truncation_times(synthetic_log(rows))
    assert check_window_bound(t, 2, len(rows))
    assert not check_window_bound(t, 0, len(rows))


def _truncation_times_by_scan(log):
    """First passages found level by level with argmax: the reference."""
    sig = log.sigma
    K, n = sig.shape
    sbar = log.sigma.max(axis=1)
    top = int(sbar.max())
    r = np.full(top + 2, INF)
    r_agent = np.full((top + 2, n), INF)
    r[0] = 1.0
    r_agent[0] = 1.0
    for m in range(1, top + 1):
        idx = int(np.argmax(sbar >= m))
        r[m] = idx + 1 if sbar[idx] >= m else INF
        for i in range(n):
            w = int(np.argmax(sig[:, i] >= m))
            r_agent[m, i] = w + 1 if sig[w, i] >= m else INF
    return top, r, r_agent


def test_truncation_times_match_the_scan_on_random_counts():
    # counts that go up and down, so a running maximum differs from the column
    rng = np.random.default_rng(20)
    for _ in range(200):
        K = int(rng.integers(1, 60))
        n = int(rng.integers(1, 6))
        rows = rng.integers(0, int(rng.integers(1, 9)), size=(K, n))
        log = synthetic_log(rows.tolist())
        t = truncation_times(log)
        top, r, r_agent = _truncation_times_by_scan(log)
        assert t.top == top
        assert np.array_equal(t.r, r) and np.array_equal(t.r_agent, r_agent)


def _truncation_times_by_agent(log):
    """The per-agent loop truncation_times ran before its one pass: one
    running maximum and one searchsorted per agent. The reference."""
    K, n = log.u.shape
    k, agent, count = log.events[log.events[:, 0] < K].T
    top = int(count.max(initial=0))
    levels = np.arange(top + 2)
    r_agent = np.empty((top + 2, n))
    for i in range(n):
        mine = agent == i + 1
        first = np.searchsorted(np.maximum.accumulate(count[mine]), levels)
        r_agent[:, i] = np.append(k[mine] + 1.0, INF)[first]
    r_agent[0] = 1.0
    return top, r_agent.min(axis=1), r_agent


def _assert_times_match_the_loop(log):
    t = truncation_times(log)
    top, r, r_agent = _truncation_times_by_agent(log)
    assert t.top == top
    assert r.tobytes() == t.r.tobytes() and r_agent.tobytes() == t.r_agent.tobytes()


def test_truncation_times_match_the_per_agent_loop_on_generated_logs():
    rng = np.random.default_rng(27)
    for x in range(400):
        K = (1, 2)[x] if x < 2 else int(rng.integers(1, 80))
        n = int(rng.integers(1, 7))
        # counts that only rise, or that go up and down; some agents have no event
        steps = rng.random((K, n)) < rng.uniform(0.02, 0.4)
        rows = (np.cumsum(steps, axis=0) if x % 2
                else rng.integers(0, int(rng.integers(1, 9)), size=(K, n)))
        rows[:, rng.random(n) < 0.3] = 0
        _assert_times_match_the_loop(synthetic_log(rows.tolist()))


@pytest.mark.parametrize("horizon", [1, 2, 7, 50, 400])
def test_truncation_times_match_the_per_agent_loop_on_runs(horizon):
    s = dataclasses.replace(load_scenario(RESTART_CASE), horizon=horizon)
    for seed in (1, 2, 3):
        _assert_times_match_the_loop(run(s, seed).log)
    _assert_times_match_the_loop(run(builtin_case(1, horizon=horizon)).log)


@pytest.mark.parametrize("agent, count", [(1, -1), (0, 1), (3, 1)],
                         ids=["negative-count", "agent-0", "agent-n+1"])
def test_truncation_times_rejects_an_event_outside_its_tables(agent, count):
    # a count of -1 would land in the top level's row and an agent 0 in the
    # last agent's column: each raises, located, instead of a wrong table
    log = dataclasses.replace(synthetic_log([[0, 0]] * 4),
                              events=np.array([[1, 2, 1], [2, agent, count]]))
    with pytest.raises(IdentityViolation) as exc:
        truncation_times(log)
    assert str(exc.value) == (f"count event (k=3, agent {agent}, count {count}) names an "
                              "agent outside 1..2 or a negative count")
    assert exc.value.location == (3, agent, count)


def _window_bound_by_loop(times, d, horizon):
    """The level-by-level, agent-by-agent eq. (26) check: the reference."""
    for m in range(1, times.top + 1):
        rm = times.r[m]
        if not math.isfinite(rm):
            continue
        for ri in times.r_agent[m]:
            if math.isfinite(ri):
                if not (0 <= ri - rm <= d):
                    return False
            elif rm + d <= horizon:
                return False
    return True


def test_window_bound_matches_the_loop_on_random_counts():
    rng = np.random.default_rng(26)
    verdicts = []
    for _ in range(3000):
        K = int(rng.integers(1, 40))
        n = int(rng.integers(1, 6))
        # counts that only rise, each agent by its own steps, or that go up and down
        steps = rng.random((K, n)) < rng.uniform(0.02, 0.3)
        rows = (np.cumsum(steps, axis=0) if rng.random() < 0.7
                else rng.integers(0, int(rng.integers(1, 6)), size=(K, n)))
        t = truncation_times(synthetic_log(rows.tolist()))
        d = int(rng.integers(0, 8))
        horizon = K + int(rng.integers(-6, 7))
        verdicts.append(_window_bound_by_loop(t, d, horizon))
        assert check_window_bound(t, d, horizon) is verdicts[-1]
    assert 0.2 < np.mean(verdicts) < 0.8
    # a level no agent reached is skipped, by the loop and by the array check
    t = TruncationTimes(top=2, r=np.array([1.0, INF, 4.0, INF]),
                        r_agent=np.array([[1.0, 1.0], [INF, INF], [4.0, 9.0], [INF, INF]]))
    for d in (4, 5):
        assert check_window_bound(t, d, 20) is _window_bound_by_loop(t, d, 20) is (d == 5)


@pytest.mark.parametrize("count", [10 ** 12, -1, 7], ids=["huge", "negative", "k"])
def test_a_count_outside_0_to_k_minus_1_is_located_before_any_table(count):
    # counts start at 0 and rise by at most 1 per round; a count of 10^12
    # would otherwise size truncation_times' tables at 7 TiB
    sigma = SHORT_LOG.sigma.copy()
    sigma[6, 2] = count
    log = dataclasses.replace(SHORT_LOG, events=events_of(sigma))
    with pytest.raises(IdentityViolation) as exc:
        full_verification(log, SHORT.gains(), SHORT.topology)
    assert str(exc.value) == f"truncation count {count} at k=7, agent 3 is outside 0..6"
    assert exc.value.location == (7, 3, count)


@pytest.mark.parametrize("s", [builtin_case(c, horizon=3000, log_stride=stride)
                               for c in (1, 2, 3) for stride in (1, 7)]
                         + forced_truncation_scenarios(), ids=lambda s: f"{s.label}-{s.log_stride}")
def test_truncation_events_are_the_count_changes_with_their_kind(s):
    log = run(s).log
    events = truncation_events(log)
    K = log.horizon
    assert [list(row[:3]) for row in events] == log.events.tolist()
    sigma, sigma_prime = log.sigma, log.sigma_prime  # each read walks the log once
    # every change of the counts is an event, as is every count of round K
    assert [list(row[:3]) for row in events if row[0] < K] == events_of(sigma).tolist()
    for k, agent, count, kind in events:
        if k == K:
            continue
        pooled, before = sigma_prime[k - 1, agent - 1], sigma[k - 1, agent - 1]
        if kind == "fired":
            assert count == pooled + 1 and pooled == before
        else:
            assert kind == "pooled" and count == pooled > before
    # summarize counts the fired events of rounds 1..K-1, the counts the
    # rows hold: the count that rose to the pooled count + 1
    fired = np.count_nonzero(sigma[1:] == sigma_prime[:-1] + 1, axis=0).tolist()
    assert summarize(log)["total_truncations"] == fired
    assert summarize(log)["sigma_bar_final"] == int(sigma.max(axis=1)[-1])
    if s.label.startswith("forced"):
        assert {kind for *_, kind in events} == {"fired", "pooled"}


def test_first_failure_names_the_first_cell_not_below_the_threshold():
    err = np.zeros((5, 3))
    assert first_failure(err, err < 1e-9) is None
    err[3, 0], err[2, 2] = 1.0, 1e-9
    assert first_failure(err, err < 1e-9) == (3, 3, 1e-9)
    err[1, 1] = np.nan
    k, agent, value = first_failure(err, err < 1e-9)
    assert (k, agent) == (2, 2) and math.isnan(value)


def test_the_replay_and_the_decomposition_name_their_first_failure():
    report, extras = full_verification(SHORT_LOG, SHORT.gains(), SHORT.topology)
    assert extras["recursion"].first_failure is None
    assert extras["decomposition_first_failure"] is None
    # one input moved: the replay of round 30 no longer lands on it
    log = dataclasses.replace(SHORT_LOG, u=SHORT_LOG.u.copy())
    log.u[30, 1] += 1e-3
    rec = full_verification(log, SHORT.gains(), SHORT.topology)[1]["recursion"]
    assert not rec.passed and rec.first_failure[:2] == (30, 2)
    assert rec.first_failure[2] == pytest.approx(1e-3)
    # edge (2, 3) weighs 1 part in 10^6 more than in the log: the first
    # cell it reaches is named with its error
    failure = full_verification(SHORT_LOG, SHORT.gains(), reweighted(SHORT.topology, 2, 3))[1][
        "decomposition_first_failure"]
    assert failure[:2] == (1, 2) and failure[2] > 1e-9


def test_every_catchup_cell_one_ulp_off_fails_the_replay_row():
    # the replay reads no u inside a catch-up window: each is checked against
    # what its round wrote, u* after a count event, else the kept candidate.
    # On the restart case each such cell moved by one ulp fails the row,
    # named by the round that wrote it, and the residual stays the replay's
    s = load_scenario(RESTART_CASE)
    log = run(s).log
    cells = np.argwhere(whole_auxiliary(log, s.gains(), s.topology).catchup_mask).tolist()
    events = {(k, agent) for k, agent, _ in log.events.tolist()}
    assert {(r, i + 1) in events for r, i in cells} == {True, False}
    for r, i in cells:
        moved = dataclasses.replace(log, u=log.u.copy())
        moved.u[r, i] = np.nextafter(moved.u[r, i], np.inf)
        report, extras = full_verification(moved, s.gains(), s.topology)
        rec = extras["recursion"]
        assert not rec.passed and rec.first_failure[:2] == (r, i + 1), (r, i)
        assert report["lemma3_residual"] == 0.0


def _counts_at_by_scan(events, rows, n, initial=0):
    """counts_at as each agent's scan of every event: the reference."""
    k, agent, count = events.T
    out = np.empty((len(rows), n), dtype=np.int64)
    for i in range(n):
        mine = np.flatnonzero(agent == i + 1)
        after = np.searchsorted(k[mine], rows, side="right")
        out[:, i] = np.concatenate(([np.broadcast_to(initial, n)[i]], count[mine]))[after]
    return out


def _pooled_counts_by_edge(counts, topology):
    """pooled_counts as one maximum per directed edge in turn: the reference."""
    pooled = counts.copy()
    for i, j in analysis.directed_pairs(topology):
        np.maximum(pooled[:, i - 1], counts[:, j - 1], out=pooled[:, i - 1])
    return pooled


@pytest.mark.parametrize("seed", range(20))
def test_counts_at_equals_each_agents_scan_of_every_event(seed):
    # random event tables in (k, agent) order, with agents outside 1..n and
    # an agent without events, read at rows 0 and K - 1 among others, from
    # counts 0 and from random initial counts; and pooled on a random
    # network, isolated agents and all
    rng = np.random.default_rng(seed)
    n, K = int(rng.integers(1, 8)), int(rng.integers(1, 60))
    size = int(rng.integers(0, 3 * K))
    k, agent = np.sort(rng.integers(0, K, size)), rng.integers(-1, n + 3, size)
    agent[agent == rng.integers(1, n + 1)] = 0
    events = np.column_stack([k, agent, rng.integers(0, 50, size)])[np.lexsort((agent, k))]
    rows = np.concatenate([[0, K - 1], rng.integers(0, K, 10)])
    initial = rng.integers(0, 50, n)
    for start in (0, initial):
        got = counts_at(events, rows, n, start)
        assert got.dtype == np.int64
        assert np.array_equal(got, _counts_at_by_scan(events, rows, n, start))
    edges = [(i, j, 1.0) for i in range(1, n + 1) for j in range(i + 1, n + 1)
             if rng.random() < 0.4]
    topology = network_scenario(n, edges).topology
    assert np.array_equal(analysis.pooled_counts(got, topology),
                          _pooled_counts_by_edge(got, topology))
    assert counts_at(events, np.arange(0), n).shape == (0, n)


def _star(n):
    return build_topology(n, [(1, a, 1.0) for a in range(2, n + 1)])


@pytest.mark.parametrize("topology", [
    lambda: build_topology(768, network_doc(768, 1)["topology"]), lambda: _star(3000)],
    ids=["network-768", "star-3000"])
def test_counts_and_pooled_counts_of_a_wide_network_equal_the_loops(topology):
    # counts rising on random rows of random agents, read whole and block by
    # block from the count before the block, as log_rows reads them
    topology = topology()
    n, K = topology.n, 40
    rng = np.random.default_rng(n)
    sigma = np.cumsum(rng.random((K, n)) < 0.05, axis=0)
    events = events_of(sigma)
    rows = np.arange(K)
    want = _counts_at_by_scan(events, rows, n)
    assert np.array_equal(want, sigma)
    assert np.array_equal(counts_at(events, rows, n), want)
    for a, b in ((0, 7), (7, 21), (21, 40)):
        part = events[(events[:, 0] >= a) & (events[:, 0] < b)]
        assert np.array_equal(counts_at(part, rows[a:b], n, sigma[a - 1] if a else 0), want[a:b])
    assert np.array_equal(analysis.pooled_counts(sigma, topology),
                          _pooled_counts_by_edge(sigma, topology))


def test_any_log_r_le_r_agent(runs):
    t = truncation_times(runs(1, 1).log)
    for m in range(1, t.top + 1):
        assert np.all(t.r_agent[m] >= t.r[m])


# ---------------------------------------------------------------------------
# auxiliary sequences and the centralized replay

def test_auxiliary_without_truncations_is_identity():
    s = two_agent_scenario(horizon=400, params={"variance": 0.01}, seed=3)
    res = run(s)
    assert res.summary["total_truncations"] == [0, 0]
    aux = whole_auxiliary(res.log, s.gains(), s.topology)
    assert np.array_equal(aux.ubar, res.log.u)
    assert np.array_equal(aux.obar, res.log.O_next)
    assert not aux.catchup_mask.any()


def test_auxiliary_catchup_side_cancels_exactly(runs):
    res = runs(1, 1)
    s = builtin_case(1)
    gains = s.gains()
    aux = whole_auxiliary(res.log, gains, s.topology)
    mask = aux.catchup_mask
    assert mask.any()
    assert np.array_equal(aux.ubar[mask],
                          np.broadcast_to(s.controller.u_star, mask.shape)[mask])
    assert np.all(aux.obar[mask] == 0.0)


def test_auxiliary_of_a_strided_log_is_that_of_stride_1():
    # a strided log keeps y on the stride only; the relabeling reads the
    # outputs the plants replay over u, the stride-1 log's bit for bit
    strided, dense = (whole_auxiliary(run(builtin_case(1, horizon=300, log_stride=stride)).log,
                                      GAINS1, CASE1.topology) for stride in (3, 1))
    assert strided.catchup_mask.any()
    for name in ("ubar", "obar", "sigma_bar", "catchup_mask"):
        got, want = getattr(strided, name), getattr(dense, name)
        assert got.tobytes() == want.tobytes(), name


def test_only_a_strided_log_builds_plants_to_replay(monkeypatch):
    # at stride 1 the outputs are stored: full_verification builds no plant
    real, built = AgentSpec.build, []
    monkeypatch.setattr(AgentSpec, "build", lambda a: built.append(a) or real(a))
    for stride, builds in ((1, 0), (3, 4)):
        log = run(builtin_case(1, horizon=60, log_stride=stride)).log
        built.clear()
        report, _ = full_verification(log, GAINS1, CASE1.topology)
        assert report["lemma3_residual"] == 0.0
        assert len(built) == builds, stride


def test_replay_truncation_free_noise_free_case1():
    # A truncation-free window needs care: at a_1 = 1 the consensus point is
    # locally repelling through the gain slopes (float dust in the outputs is
    # amplified roughly tenfold per step), so the bound mechanism fires even
    # noise-free on any long run. Start u at the consensus point, warm-start
    # every plant at its constant-input fixed point with a shared output
    # history, and keep the horizon well short of the first escape (k = 33
    # for this start); the logged window then contains no truncations and
    # the recursion is the plain distributed update.
    from hwconsensus import warm_plant
    cp = consensus_point(GAINS1, 10.0)
    s = builtin_case(1, horizon=20, noise_off=True)
    import dataclasses
    s = dataclasses.replace(
        s, controller=dataclasses.replace(s.controller,
                                          initial_u=tuple(cp.u.tolist())))
    warm = []
    for a, u in zip(s.agents, cp.u):
        w = warm_plant(a.build(), float(u))
        w.y_hist = [cp.b] * len(w.y_hist)
        warm.append(w)
    res = run(s, initial_plants=warm)
    assert res.summary["total_truncations"] == [0, 0, 0, 0]
    aux = whole_auxiliary(res.log, GAINS1, s.topology)
    rec = verify_centralized_recursion(aux, Schedule(c_M=s.controller.c_M))
    assert rec.passed
    assert rec.max_abs_residual == 0.0


def test_replay_small_noisy_pair():
    s = two_agent_scenario(horizon=3000, seed=9)
    res = run(s)
    aux = whole_auxiliary(res.log, s.gains(), s.topology)
    rec = verify_centralized_recursion(aux, Schedule(c_M=s.controller.c_M))
    assert rec.passed
    assert rec.max_abs_residual == 0.0


def test_replay_case1_seed7(runs):
    res = runs(1, 7)
    aux = whole_auxiliary(res.log, GAINS1, CASE1.topology)
    rec = verify_centralized_recursion(aux, Schedule(c_M=55.0))
    assert rec.passed
    assert rec.sigma_consistent
    assert rec.max_abs_residual == 0.0


@pytest.mark.parametrize("row", [2000, 8192], ids=["in-a-block", "first-row-of-a-block"])
def test_replay_fails_at_an_estimate_moved_by_one_ulp(runs, row):
    # the replay is exact: one logged estimate one ulp off fails the row at
    # the round that produced it, here and where the replay carries the last
    # row of the previous block (case 1's blocks hold 8192 rows)
    log = runs(1, 7).log
    log = dataclasses.replace(log, u=log.u.copy())
    was = log.u[row, 2]
    log.u[row, 2] = np.nextafter(was, np.inf)
    ulp = float(log.u[row, 2] - was)
    report, extras = full_verification(log, GAINS1, CASE1.topology)
    rec = extras["recursion"]
    assert not rec.passed and rec.sigma_consistent
    assert rec.first_failure == (row, 3, ulp)
    assert report["lemma3_residual"] == ulp


@pytest.mark.parametrize("u_star", [(1.0, 2.0, -0.0, 4.0), (-0.0,) * 4],
                         ids=["one-negative-zero", "all-negative-zero"])
def test_replay_compares_estimates_by_value_not_by_bits(u_star):
    # in a catch-up window the replay forms u* + (1/k) 0.0, which is +0.0 for
    # a reset point -0.0, while the relabeled next cell holds u* = -0.0: the
    # two are equal, and a correct run must pass
    s = builtin_case(1, horizon=3000, seed=7)
    s = dataclasses.replace(s, controller=dataclasses.replace(s.controller, u_star=u_star))
    log = run(s).log
    zero = np.signbit(u_star) & (np.array(u_star) == 0.0)
    assert whole_auxiliary(log, GAINS1, s.topology).catchup_mask[:, zero].any()
    report, extras = full_verification(log, GAINS1, s.topology)
    assert extras["recursion"].passed and extras["recursion"].first_failure is None
    assert report["lemma3_residual"] == 0.0


def test_replay_corrupted_log_fails(runs):
    import copy
    res = runs(1, 7)
    log = copy.copy(res.log)
    log.u = res.log.u.copy()
    k = log.horizon - 1000  # long after the last truncation window
    log.u[k, 2] += 1e-3
    aux = whole_auxiliary(log, GAINS1, CASE1.topology)
    rec = verify_centralized_recursion(aux, Schedule(c_M=55.0))
    assert not rec.passed
    assert rec.max_abs_residual >= 1e-3 * 0.99


def test_replay_decides_on_the_kernels_bound():
    # at sigma_bar = 9115, c_M = 55 the bound ln(9170) of the schedule's
    # table (math.log) is one ulp above numpy's np.log; a candidate one ulp
    # below the table's bound is inside it, so the replay keeps it, as the
    # round kernel does
    sched = Schedule(c_M=55.0)
    c = math.nextafter(sched.bound(9115), 0.0)
    col = np.full((2, 1), c)
    aux = analysis.AuxiliarySequences(
        k=np.array([9116, 9117]), ubar=col, obar=0.0 * col,
        sigma_bar=np.array([9115, 9115]), u_star=np.zeros(1),
        catchup_mask=np.zeros((2, 1), dtype=bool))
    rec = verify_centralized_recursion(aux, sched)
    assert rec.passed and rec.sigma_consistent
    assert rec.max_abs_residual == 0.0


def test_replay_truncates_a_nan_candidate_as_the_round_does():
    # uniform noise of half-width 1e308 on weights 3.0 overflows the
    # observations to inf, and inf - inf makes NaN candidates: the round keeps
    # a candidate iff -M < cand < M, false for NaN, so it truncates, and the
    # replay must decide the same
    ident = {"kind": "hammerstein", "C": [1], "D": [1], "f": {"name": "identity", "params": {}}}
    s = scenario_from_dict({
        "label": "nan-triangle", "horizon": 30,
        "topology": [[1, 2, 3.0], [1, 3, 3.0], [2, 3, 3.0]], "agents": [ident] * 3,
        "controller": {"u_star": [0.0] * 3, "c_M": 2.0},
        "noise": {"dist": "uniform", "params": {"a": 1e308}, "seed": 1}})
    log = run(s).log
    assert np.isnan(log.O_next).any(axis=1).sum() == 11
    report, extras = full_verification(log, s.gains(), s.topology)
    assert report["lemma3_residual"] == 0.0
    assert extras["sigma_consistent"] and extras["recursion"].passed
    assert extras["recursion"].first_failure is None
    # an infinite observation leaves the decomposition no finite terms: its
    # first cell fails with a NaN error
    k, agent, err = extras["decomposition_first_failure"]
    assert (k, agent) == (1, 1) and math.isnan(err)
    # a row of one NaN candidate among finite ones is truncated too
    aux = analysis.AuxiliarySequences(
        k=np.array([1, 2]), ubar=np.array([[0.5, 0.0], [0.0, 0.0]]),
        obar=np.array([[0.0, np.nan], [0.0, 0.0]]), sigma_bar=np.array([0, 1]),
        u_star=np.zeros(2), catchup_mask=np.zeros((2, 2), dtype=bool))
    rec = verify_centralized_recursion(aux, Schedule(c_M=2.0))
    assert rec.passed and rec.sigma_consistent and rec.max_abs_residual == 0.0


# ---------------------------------------------------------------------------
# consensus point, Lyapunov function, metrics

def test_consensus_point_identity_gains():
    ident = [lambda x: x] * 4
    cp = consensus_point(ident, 4.0)
    assert cp.b == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(cp.u, np.ones(4), atol=1e-9)


def test_consensus_point_linear_gains():
    gains = [lambda x, i=i: i * x for i in (1, 2, 3, 4)]
    cp = consensus_point(gains, 25.0)
    assert cp.b == pytest.approx(12.0, abs=1e-9)
    assert np.allclose(cp.u, [12.0, 6.0, 4.0, 3.0], atol=1e-9)


def test_consensus_point_idempotent():
    cp = consensus_point(GAINS1, 10.0, tol=1e-9)
    again = consensus_point(GAINS1, float(cp.u.sum()), tol=1e-9)
    assert np.max(np.abs(again.u - cp.u)) < 2e-9


def test_gain_roots_case1():
    roots = gain_roots(GAINS1)
    assert np.allclose(roots, [0.0, 0.5, 1.0, -1.0], atol=1e-9)


def test_lyapunov_identity_gains():
    ident = [lambda x: x] * 4
    assert lyapunov_v(np.ones(4), ident) == pytest.approx(2.0, abs=1e-9)


def test_lyapunov_zero_at_roots():
    assert lyapunov_v(gain_roots(GAINS1), GAINS1) == 0.0


def test_lyapunov_nonnegative_and_refinement_stable():
    # one Simpson panel is exact for the degree <= 3 catalog, so splitting
    # each integral into 16 panels changes nothing beyond rounding
    rng = np.random.default_rng(7)
    roots = gain_roots(GAINS1)
    for _ in range(20):
        u = rng.uniform(-6, 6, size=4)
        v1 = lyapunov_v(u, GAINS1)
        v2 = 0.0
        for g, a, b in zip(GAINS1, roots, u):
            x = np.linspace(a, b, 33)
            v2 += (b - a) / 96.0 * (g(x[0]) + g(x[-1]) + 4.0 * sum(map(g, x[1::2]))
                                   + 2.0 * sum(map(g, x[2:-1:2])))
        assert v1 >= 0.0
        assert abs(v1 - v2) < 1e-8


def test_lyapunov_gradient_is_gain_vector():
    rng = np.random.default_rng(11)
    d = 1e-5
    for _ in range(10):
        u = rng.uniform(-5, 5, size=4)
        for i in range(4):
            up = u.copy(); up[i] += d
            dn = u.copy(); dn[i] -= d
            fd = (lyapunov_v(up, GAINS1) - lyapunov_v(dn, GAINS1)) / (2 * d)
            assert fd == pytest.approx(GAINS1[i](u[i]), abs=1e-6)


def test_metrics_exact_consensus_is_flat():
    log = synthetic_log([[0, 0]] * 5)
    log.u = np.full((5, 2), 0.3)
    log.y = np.full((5, 2), 0.3)
    ident = [lambda x: x] * 2
    lap = laplacian(build_topology(2, [(1, 2, 1.0)]))
    m = whole_metrics(log, ident, lap)
    assert np.all(m.spread_y == 0.0)
    assert np.all(m.residual == 0.0)


def test_metrics_noise_free_residual_decays(runs):
    res = runs(1, 0, noise_off=True)
    m = whole_metrics(res.log, GAINS1, LAP1)
    assert m.residual[-1] < m.residual[99] / 10.0
    assert m.v[-1] >= 0.0
    assert m.sigma_bar[-1] == m.sigma_bar[-1]  # finite


def test_metrics_columns_cover_run(runs):
    res = runs(1, 1)
    m = whole_metrics(res.log, GAINS1, LAP1)
    K = res.log.horizon
    for arr in (m.k, m.spread_y, m.residual, m.sigma_bar, m.v):
        assert arr.shape == (K,)
    assert m.k[0] == 1 and m.k[-1] == K
