"""Post-hoc diagnostics and exact oracles over simulation logs.

Everything here is a pure function of an immutable TrajectoryLog plus the
static scenario objects (gains, topology). The centerpiece is the
centralized-replay oracle: relabeling the distributed run through its
truncation windows yields sequences that must satisfy a single expanding-
truncation recursion with an infinity-norm test, exactly. The replay here
reproduces the logged run to float precision and is used as the package's
main correctness check.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .controller import Schedule
from .errors import (
    BracketFailure,
    DimensionMismatch,
    IdentityViolation,
    IncompleteLog,
    StepNotLogged,
    ValidationError,
)
from .graph import LaplacianView, Topology, diameter, laplacian

INF = float("inf")
# the eq28 grid verify checks: k <= EQ28_GRID_K, T in EQ28_GRID_T; every
# EQ28_GRID_K e^T is within _MAX_TERMS
EQ28_GRID_K = 1000
EQ28_GRID_T = (0.1, 0.5, 1.0, 2.0)
RECURSION_THRESHOLD = 1e-9  # largest replay residual the recursion check passes


# ---------------------------------------------------------------------------
# the log

@dataclass
class TrajectoryLog:
    """Complete per-step record of one run.

    Row r (0-based) holds step k = r + 1: the estimate u_{i,k} and count
    sigma_{i,k} at the start of the round, the pooled count, the working
    estimate, the plant output y_{i,k+1} produced in the round, the
    aggregated observation O_{i,k+1}, and per directed edge the observed
    value z and its noise component. The y/O/z/eps entries are recorded on
    the logged rows only (steps k = 1, 1+stride, ...) and NaN elsewhere; u
    and sigma columns are always full. The horizon is the number of rows.
    """

    log_stride: int
    pairs: list
    u: np.ndarray
    sigma: np.ndarray
    sigma_prime: np.ndarray
    u_prime: np.ndarray
    y_next: np.ndarray
    O_next: np.ndarray
    z: np.ndarray
    eps: np.ndarray
    u_star: np.ndarray
    c_M: float

    @property
    def horizon(self) -> int:
        return self.u.shape[0]

    @property
    def logged_rows(self) -> np.ndarray:
        return logged_rows(self.horizon, self.log_stride)

    @property
    def sigma_bar(self) -> np.ndarray:
        return self.sigma.max(axis=1)


def logged_rows(horizon: int, log_stride: int) -> np.ndarray:
    """The 0-based rows whose y/O/z/eps entries are recorded: steps 1, 1 + stride, ..."""
    return np.arange(0, horizon, log_stride)


def neighbour_columns(topology: Topology, pairs) -> list:
    """Per agent (0-based), its neighbours as (edge column in pairs, neighbour
    index, weight) triples in the order the round sums their terms."""
    col = {p: c for c, p in enumerate(pairs)}
    return [[(col[(i, j)], j - 1, topology.weight(i, j)) for j in topology.neighbors(i)]
            for i in range(1, topology.n + 1)]


def round_columns(u: np.ndarray, sigma: np.ndarray, y: np.ndarray, eps: np.ndarray,
                  nbrs: list, u_star: np.ndarray, log_stride: int) -> dict:
    """The log columns a run makes of its (u, sigma) rows and its outputs and noise.

    u and sigma are (K, n) with every row; y (outputs) and eps (noise per
    edge column) hold the logged rows only, as logged_rows(K, log_stride).
    nbrs is neighbour_columns' table. Returns sigma_prime (the largest sigma
    over the closed neighbourhood), u_prime (u* where sigma_prime > sigma,
    else u), and y_next, O_next, z = y of the observed agent + eps and eps,
    NaN on the rows off the stride; at stride 1, y_next and eps are y and
    eps themselves. O_i sums w * (z - y_i) over the neighbours in nbrs order
    from 0.0: the same IEEE operations in the same order as
    controller.advance, so every cell equals the round's value bit for bit.
    """
    pooled = sigma.copy()
    observed = np.empty(eps.shape[1], dtype=np.int64)
    for i, nb in enumerate(nbrs):
        for c, j, _ in nb:
            np.maximum(pooled[:, i], sigma[:, j], out=pooled[:, i])
            observed[c] = j
    # the round's float arithmetic overflows to inf without a warning
    with np.errstate(all="ignore"):
        z = y[:, observed]
        z += eps
        O = np.empty_like(y)
        for i, nb in enumerate(nbrs):
            acc = 0.0
            for c, _, w in nb:
                acc = acc + w * (z[:, c] - y[:, i])
            O[:, i] = acc

    def dense(block):
        if log_stride == 1:
            return block
        out = np.full((len(u), block.shape[1]), np.nan)
        out[::log_stride] = block  # the rows of logged_rows
        return out

    return {"sigma_prime": pooled, "u_prime": np.where(pooled > sigma, u_star, u),
            "y_next": dense(y), "O_next": dense(O), "z": dense(z), "eps": dense(eps)}


@dataclass(frozen=True)
class TruncationTimes:
    """First-passage times of truncation counts, with inf for unattained.

    r[m] is the first step at which any agent's count reaches m (r[0] = 1);
    r_agent[m, i] the first step agent i does. Arrays run m = 0..top+1 where
    top is the largest count attained, so interval ends r[m+1] are always
    addressable.
    """

    top: int
    r: np.ndarray        # (top+2,) float
    r_agent: np.ndarray  # (top+2, n) float

    def rbar(self, m: int) -> np.ndarray:
        """Per-agent window end: min(r_agent[m], r[m+1])."""
        return np.minimum(self.r_agent[m], self.r[m + 1])


@dataclass
class AuxiliarySequences:
    """Windowed relabeling of a run plus its effective observation.

    Within each global window [r(m), r(m+1)), an agent that has not yet
    reached count m is represented by its reset point with zero effective
    observation; once it reaches m it is represented by its true values.
    structure_max_err bounds |g(ubar) + ebar - expected| over live steps
    (the catch-up side cancels exactly by construction).
    """

    ubar: np.ndarray
    ebar: np.ndarray
    obar: np.ndarray
    sigma_bar: np.ndarray
    times: TruncationTimes
    u_star: np.ndarray
    catchup_mask: np.ndarray
    structure_max_err: float


# ---------------------------------------------------------------------------
# regression field and noise decomposition

def gain_field(u: np.ndarray, gains, lap: LaplacianView) -> tuple[np.ndarray, np.ndarray]:
    """Gains h(u) and consensus field g(u) = -L h(u) for a (rows, n) block of u.

    h is evaluated one agent's column at a time; g_i = sum_j p_ij h_j - d_i h_i.
    """
    h = np.column_stack([gains[i](u[:, i]) for i in range(u.shape[1])])
    return h, h @ lap.P.T - np.diag(lap.D) * h


def regression_g(u: np.ndarray, gains, lap: LaplacianView) -> np.ndarray:
    """Consensus vector field g_i = sum_j p_ij (h_j(u_j) - h_i(u_i)) at one point."""
    u = np.asarray(u, dtype=float)
    n = lap.L.shape[0]
    if u.shape != (n,) or len(gains) != n:
        raise DimensionMismatch(
            f"u shape {u.shape}, {len(gains)} gains, Laplacian {lap.L.shape}")
    return gain_field(u[None], gains, lap)[1][0]


def _decompose(log: TrajectoryLog, rows, gains, lap: LaplacianView, hg=None):
    """(e1, e2, e3, O - g) on the given rows of the log, each (rows, n).

    e1 = sum_j p_ij eps_ij           (pure observation noise)
    e2 = p_i (h_i(u_{i,k}) - y_{i,k+1})   (own output off steady state)
    e3 = sum_j p_ij (y_{j,k+1} - h_j(u_{j,k}))
    The neighbour sums run in pair order. hg is gain_field on those rows of
    log.u when the caller already has it.
    """
    y = log.y_next[rows]
    h, g = hg if hg is not None else gain_field(log.u[rows], gains, lap)
    e1 = np.zeros_like(h)
    e3 = np.zeros_like(h)
    for col, (a, b) in enumerate(log.pairs):
        w = lap.P[a - 1, b - 1]
        e1[:, a - 1] += w * log.eps[rows, col]
        e3[:, a - 1] += w * (y[:, b - 1] - h[:, b - 1])
    e2 = np.diag(lap.D) * (h - y)
    return e1, e2, e3, log.O_next[rows] - g


def noise_decomposition(log: TrajectoryLog, k: int, i: int, gains,
                        lap: LaplacianView) -> tuple[float, float, float]:
    """Split O_{i,k+1} - g_i(u_k) into noise, own-transient, neighbor-transient.

    The terms e1, e2, e3 of _decompose at step k, agent i; the three must sum
    to O - g within 1e-10, else IdentityViolation is raised, located at
    (k, agent, lhs, rhs); a NaN on either side fails too.
    """
    if k - 1 not in log.logged_rows:
        raise StepNotLogged(f"step {k} not in the log (stride {log.log_stride})")
    r = k - 1
    if np.isnan(log.y_next[r]).any():
        raise StepNotLogged(f"step {k} has no output record")
    e1, e2, e3, rhs = (float(x[0, i - 1])
                       for x in _decompose(log, slice(r, r + 1), gains, lap))
    lhs = e1 + e2 + e3
    if not abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs)):
        raise IdentityViolation(
            f"decomposition identity violated at k={k}, agent {i}: {lhs} vs {rhs}",
            location=(k, i, lhs, rhs))
    return e1, e2, e3


# ---------------------------------------------------------------------------
# truncation windows

def truncation_times(log: TrajectoryLog) -> TruncationTimes:
    """First-passage tables of the logged truncation counts.

    A column first reaches m where its running maximum does, so each agent's
    first passages are one searchsorted on its running maximum, and r, the
    first passage of any agent, is their minimum.
    """
    running = np.maximum.accumulate(log.sigma, axis=0)
    K, n = running.shape
    top = int(running[-1].max())
    levels = np.arange(top + 2)
    r_agent = np.empty((top + 2, n))
    for i in range(n):
        first = np.searchsorted(running[:, i], levels)
        r_agent[:, i] = np.where(first < K, first + 1.0, INF)
    r_agent[0] = 1.0
    return TruncationTimes(top=top, r=r_agent.min(axis=1), r_agent=r_agent)


def check_window_bound(times: TruncationTimes, d: int, horizon: int) -> bool:
    """Every agent reaches an attained count within d steps of its first reach.

    An agent that never reaches an attained level is only excused when the
    run ended inside the allowed window (r[m] + d > horizon).
    """
    r = times.r[1:times.top + 1, None]
    with np.errstate(invalid="ignore"):
        lag = times.r_agent[1:times.top + 1] - r
    # an infinite r makes the lag NaN or infinite and r + d > horizon true,
    # so a level no agent reached is skipped
    return bool(np.where(np.isfinite(lag), (0 <= lag) & (lag <= d), r + d > horizon).all())


# ---------------------------------------------------------------------------
# step-window count m(k, T)

def _window_count(k: int, T: float) -> int:
    """Largest m with 1/k + ... + 1/m <= T, by direct compensated summation.

    Returns k - 1 when even the first term exceeds T (degenerate window).
    Pure float arithmetic on (k, T) alone, so its results may be memoised.
    """
    s = 0.0
    comp = 0.0
    m = k - 1
    nxt = k
    while True:
        term = 1.0 / nxt
        t = s + term
        if abs(s) >= term:
            comp += (s - t) + term
        else:
            comp += (term - t) + s
        s = t
        if s + comp <= T:
            m = nxt
            nxt += 1
        else:
            break
    return m


_U = 2.0 ** -53  # unit roundoff of float64
_MAX_TERMS = 1 << 20  # prefix sums held at most (8 MiB); later counts are summed


@functools.lru_cache(maxsize=16)
def _window_counts(K: int, T: float) -> np.ndarray:
    """(m(1, T), ..., m(K, T)), equal to _window_count at every k, built once per (K, T).

    A read-only int64 array. Only the counts are memoised; callers check the
    sandwich on every use.

    The counts come from harmonic prefix sums P[j] = 1/1 + ... + 1/j (P[0] = 0,
    j <= N = min(ceil(K e^T) + 2, _MAX_TERMS), np.cumsum adding left to
    right): the candidate m is the last j with P[j] <= P[k-1] + T, clamped to
    k - 1. It is kept only where the prefix differences certify it,
    P[m] - P[k-1] <= T - delta and P[m+1] - P[k-1] > T + delta with
    m + 1 <= N; every other k (exact ties, near ties, an array too short) is
    summed by _window_count.

    Why a certified m equals _window_count(k, T). Write u = 2^-53,
    gamma_N = N u / (1 - N u), H_j the exact harmonic numbers and
    S_j = H_j - H_{k-1} the exact sum 1/k + ... + 1/j, which increases
    strictly in j (Higham, Accuracy and Stability of Numerical Algorithms,
    2nd ed., sections 3.1 and 4.2):
      - each prefix: the terms 1.0 / j carry relative error u and recursive
        summation adds gamma_{j-1}, so |P[j] - H_j| <= gamma_N H_N;
      - a difference: two prefixes plus the subtraction's rounding give
        |(P[j] - P[k-1]) - S_j| <= (2 gamma_N + 2u) H_N, with H_N <= 1 + ln N;
      - the loop: _window_count adds the rounded terms with Neumaier's
        compensation, whose corrections are the exact rounding errors of s
        (Fast2Sum with the larger operand first) accumulated by recursive
        summation. Over n <= N terms with S_j <= T + 1 (true for j <= m + 1
        once S_m <= T), its compared value s + comp is within
        (3u + 2 N u gamma_N)(T + 1) of S_j.
    delta is the sum of the last two bounds, doubled to cover the rounding of
    delta itself and of T -+ delta. The certified m then has every loop sum up
    to m at most S_m + (loop error) < T and the sum at m + 1 above T, so the
    loop stops exactly at m; for m = k - 1 the first condition is just
    T > delta.
    """
    N = min(math.ceil(K * math.exp(T)) + 2, _MAX_TERMS)
    P = np.concatenate(([0.0], np.cumsum(1.0 / np.arange(1, N + 1))))
    k = np.arange(1, K + 1)
    base = P[k - 1]
    m = np.maximum(np.searchsorted(P, base + T, side="right") - 1, k - 1).astype(np.int64)
    gamma = N * _U / (1 - N * _U)
    delta = 2 * ((2 * gamma + 2 * _U) * (1 + math.log(N))
                 + (3 * _U + 2 * N * _U * gamma) * (T + 1))
    j = np.minimum(m, N - 1)
    certified = (m < N) & (P[j] - base <= T - delta) & (P[j + 1] - base > T + delta)
    for x in np.flatnonzero(~certified):
        m[x] = _window_count(int(k[x]), T)
    m.flags.writeable = False
    return m


def _window_sandwich(k: np.ndarray, T: float, m: np.ndarray) -> tuple | None:
    """First (k, T, lo, m, hi) where (k-1) e^T - 1 < m < k e^T - 1 fails, or None.

    k and m are matching integer arrays; e^T is read on every call.
    """
    e = math.exp(T)
    lo = (k - 1) * e - 1.0
    hi = k * e - 1.0
    bad = np.flatnonzero(~((lo < m) & (m < hi)))
    if not len(bad):
        return None
    x = bad[0]
    return int(k[x]), T, float(lo[x]), int(m[x]), float(hi[x])


def _window_ok(k: int, T) -> bool:
    """k >= 1 and T > 0 with k e^T <= _MAX_TERMS. Then m(j, T) < j e^T for every
    j <= k, so no count sums more than _MAX_TERMS terms; a larger T takes
    about k e^T additions per count and need not finish."""
    return k >= 1 and 0 < T <= math.log(_MAX_TERMS / k)


def m_of(k: int, T: float) -> int:
    """Largest m with 1/k + ... + 1/m <= T, by direct compensated summation.

    Returns k - 1 when even the first term exceeds T (degenerate window).
    The exponential sandwich (k-1) e^T - 1 < m < k e^T - 1 is checked on
    every call and raises IdentityViolation, located at (k, T, lo, m, hi), if
    it fails; it holds in the degenerate branch too.
    """
    if not _window_ok(k, T):
        raise ValidationError(
            f"need k >= 1 and T > 0 with k e^T <= {_MAX_TERMS}, got k={k}, T={T}")
    m = _window_count(k, T)
    failure = _window_sandwich(np.array([k]), T, np.array([m]))
    if failure:
        _, _, lo, _, hi = failure
        raise IdentityViolation(
            f"window bound violated: {lo} < {m} < {hi} fails at k={k}, T={T}",
            location=failure)
    return m


def _eq28_first_failure(K: int, grid_T) -> tuple | None:
    """First (k, T, lo, m, hi) on the grid where the sandwich fails, or None.

    Reads m from the memoised tables and rechecks the sandwich every time.
    """
    k = np.arange(1, K + 1)
    for T in grid_T:
        failure = _window_sandwich(k, T, _window_counts(K, T))
        if failure:
            return failure
    return None


# ---------------------------------------------------------------------------
# auxiliary sequences and the centralized replay

def build_auxiliary(log: TrajectoryLog, gains, topology: Topology,
                    hg=None) -> AuxiliarySequences:
    """Relabel a complete stride-1 log through its truncation windows.

    ubar equals the reset point during an agent's catch-up window
    [r(m), min(r_agent(m), r(m+1))) and the true estimate elsewhere; ebar is
    the effective noise making g(ubar) + ebar equal 0 on catch-up windows
    and the logged observation on live windows. obar stores that structural
    value; the float discrepancy of the live-side identity is recorded in
    structure_max_err (the catch-up side cancels exactly by construction).
    hg is gain_field on log.u when the caller already has it. Another stride,
    or a NaN output (located at its first (k, agent)), raises IncompleteLog.
    """
    if log.log_stride != 1:
        raise IncompleteLog(f"verification needs a stride-1 log, got stride {log.log_stride}")
    missing = np.argwhere(np.isnan(log.y_next))
    if len(missing):
        r, i = missing[0].tolist()
        raise IncompleteLog(f"no output y_next at k={r + 1}, agent {i + 1}")
    K, n = log.u.shape
    lap = laplacian(topology)
    times = truncation_times(log)
    sbar = log.sigma_bar

    ubar = log.u.copy()
    catchup = np.zeros((K, n), dtype=bool)
    for m in range(0, times.top + 1):
        lo = times.r[m]
        if not math.isfinite(lo):
            continue
        lo = int(lo)
        ends = np.minimum(times.rbar(m), K + 1).astype(np.int64)
        for i in np.flatnonzero(ends > lo):
            ubar[lo - 1:ends[i] - 1, i] = log.u_star[i]
            catchup[lo - 1:ends[i] - 1, i] = True

    h_u, g_u = hg if hg is not None else gain_field(log.u, gains, lap)
    # g rows evaluated at the relabeled points, shared by both branches below
    h_ubar, g_bar = gain_field(ubar, gains, lap)

    eps_noise = log.O_next - g_u
    corr = (h_u - h_ubar) @ lap.P.T
    ebar = np.where(catchup, -g_bar, eps_noise + corr)
    obar = np.where(catchup, 0.0, log.O_next)

    live_err = np.abs(g_bar + ebar - log.O_next)
    structure_max_err = float(np.max(np.where(catchup, 0.0, live_err))) if K else 0.0

    return AuxiliarySequences(ubar=ubar, ebar=ebar, obar=obar, sigma_bar=sbar,
                              times=times, u_star=log.u_star.copy(), catchup_mask=catchup,
                              structure_max_err=structure_max_err)


@dataclass(frozen=True)
class RecursionCheck:
    max_abs_residual: float
    passed: bool
    sigma_consistent: bool


def verify_centralized_recursion(aux: AuxiliarySequences, sched: Schedule) -> RecursionCheck:
    """Replay the relabeled run as one centralized truncation recursion.

    From each row: candidate = ubar + (1/k) obar per agent; if the row's
    max |candidate| reaches ln(sigma_bar + c_M) every agent resets to its
    u_star and sigma_bar increments, else the candidates carry forward.
    Reports the largest deviation from the logged relabeling and whether the
    sigma_bar path matches the indicator exactly; it passes when both hold,
    the deviation below RECURSION_THRESHOLD.
    """
    K, n = aux.ubar.shape
    if K < 2:
        return RecursionCheck(0.0, True, True)
    a = 1.0 / np.arange(1, K + 1, dtype=float)
    cand = aux.ubar + a[:, None] * aux.obar
    bound = np.log(aux.sigma_bar + sched.c_M)
    ind = np.abs(cand).max(axis=1) >= bound
    pred = np.where(ind[:, None], aux.u_star[None, :], cand)
    diff = np.abs(pred[:-1] - aux.ubar[1:])
    resid = float(diff.max())
    sigma_ok = bool(np.array_equal(aux.sigma_bar[1:],
                                   aux.sigma_bar[:-1] + ind[:-1].astype(aux.sigma_bar.dtype)))
    return RecursionCheck(max_abs_residual=resid, passed=resid < RECURSION_THRESHOLD and sigma_ok,
                          sigma_consistent=sigma_ok)


# ---------------------------------------------------------------------------
# consensus point, Lyapunov function, run metrics

def _bisect_increasing(f, tol: float = 1e-12, maxiter: int = 500):
    """Root of an increasing scalar function, expanding bracket from [-1, 1]."""
    lo, hi = -1.0, 1.0
    flo, fhi = f(lo), f(hi)
    doublings = 0
    while flo > 0.0:
        lo *= 2.0
        doublings += 1
        if doublings > 200:
            raise BracketFailure("no sign change after 200 doublings (low side)")
        flo = f(lo)
    while fhi < 0.0:
        hi *= 2.0
        doublings += 1
        if doublings > 200:
            raise BracketFailure("no sign change after 200 doublings (high side)")
        fhi = f(hi)
    for _ in range(maxiter):
        if hi - lo < tol:
            break
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm <= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class ConsensusPoint:
    b: float
    u: np.ndarray


def consensus_point(gains, c: float, tol: float = 1e-9) -> ConsensusPoint:
    """The unique point with all gains equal and components summing to c.

    Solves sum_i h_i^{-1}(b) = c for the common level b, then inverts each
    gain; requires every h strictly increasing onto the reals.
    """

    def inv(i, b):
        return _bisect_increasing(lambda x: gains[i](x) - b)

    n = len(gains)
    b = _bisect_increasing(lambda bb: sum(inv(i, bb) for i in range(n)) - c)
    u = np.array([inv(i, b) for i in range(n)])
    if abs(float(u.sum()) - c) > max(tol, 1e-9 * max(1.0, abs(c))):
        raise BracketFailure(
            f"consensus point sum {u.sum()} missed target {c} beyond tolerance")
    return ConsensusPoint(b=b, u=u)


def gain_roots(gains) -> np.ndarray:
    """Component-wise zeros of the gain maps."""
    return np.array([_bisect_increasing(lambda x: g(x)) for g in gains])


def _lyapunov(u: np.ndarray, h: np.ndarray, gains) -> np.ndarray:
    """V at each point of u, (..., n), given h = the gains at u.

    V(u) = sum_i of the integral of h_i from its zero up to u_i, by one
    Simpson panel per component, exact for the polynomial gain catalog
    (degree <= 3).
    """
    roots = gain_roots(gains)
    v = np.zeros(u.shape[:-1])
    for i, g in enumerate(gains):
        a = roots[i]
        b = u[..., i]
        mid = 0.5 * (a + b)
        v += (b - a) / 6.0 * (g(a) + 4.0 * g(mid) + h[..., i])
    return v


def lyapunov_v(u: np.ndarray, gains) -> float:
    """Sum of integrals of each gain from its zero up to u_i.

    Nonnegative by monotonicity; its gradient is the gain vector h(u).
    """
    u = np.asarray(u, dtype=float)
    h = np.array([g(u[i]) for i, g in enumerate(gains)])
    return float(_lyapunov(u, h, gains))


@dataclass
class RunMetrics:
    k: np.ndarray
    spread_y: np.ndarray
    residual: np.ndarray
    sigma_bar: np.ndarray
    v: np.ndarray


def consensus_metrics(log: TrajectoryLog, gains, lap: LaplacianView,
                      h: np.ndarray | None = None) -> RunMetrics:
    """Per-step consensus diagnostics.

    spread_y is the max pairwise gap of the outputs produced in the round
    (NaN on strided-out steps); residual is the sup norm of L h(u_k); v is
    the Lyapunov value of _lyapunov. h is the gains on log.u when the caller
    already has it (full_verification returns it as extras["h"]).
    """
    K = log.u.shape[0]
    # as in full_verification, a diverged run's values overflow to inf or NaN
    with np.errstate(over="ignore", invalid="ignore"):
        if h is None:
            h = gain_field(log.u, gains, lap)[0]
        residual = np.abs(h @ lap.L.T).max(axis=1)
        spread = log.y_next.max(axis=1) - log.y_next.min(axis=1)
        v = _lyapunov(log.u, h, gains)
    return RunMetrics(k=np.arange(1, K + 1), spread_y=spread,
                      residual=residual, sigma_bar=log.sigma_bar.astype(float), v=v)


def geometric_rows(K: int, points: int) -> np.ndarray:
    """0-based rows of about `points` steps spaced geometrically over 1..K."""
    ks = np.unique(np.rint(np.geomspace(1, K, num=min(points, K))).astype(int))
    return ks - 1


# ---------------------------------------------------------------------------
# bundled verification

def full_verification(log: TrajectoryLog, gains, topology: Topology):
    """Run every identity check on one log.

    Returns (report, extras): report carries the four headline fields
    {lemma3_residual, eq26_ok, eq28_ok, decomposition_max_err}; extras carry
    supporting diagnostics for human output, among them the first failing
    (k, T, lo, m, hi) of the eq28 grid (EQ28_GRID_K, EQ28_GRID_T), or None,
    and h, the gains on log.u, for consensus_metrics. A count outside
    0..k-1 raises IdentityViolation located at (k, agent, count).
    """
    # a count rises by at most 1 per round from 0, so 0 <= sigma_{k,i} <= k - 1;
    # checked before truncation_times sizes its tables by the largest count
    k = np.arange(1, len(log.sigma) + 1)[:, None]
    bad = np.argwhere((log.sigma < 0) | (log.sigma >= k))
    if len(bad):
        r, i = bad[0].tolist()
        count = int(log.sigma[r, i])
        raise IdentityViolation(
            f"truncation count {count} at k={r + 1}, agent {i + 1} is outside 0..{r}",
            location=(r + 1, i + 1, count))
    lap = laplacian(topology)
    # the gains overflow on a diverged run's inputs; the inf and NaN values
    # that follow fail the checks they reach, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        hg = gain_field(log.u, gains, lap)
        aux = build_auxiliary(log, gains, topology, hg)
        rec = verify_centralized_recursion(aux, Schedule(c_M=log.c_M))
        e1, e2, e3, target = _decompose(log, slice(None), gains, lap, hg)
        decomp_err = float(np.max(np.abs(e1 + e2 + e3 - target)))

    d = diameter(topology)
    eq26 = check_window_bound(aux.times, d, log.horizon)

    eq28_failure = _eq28_first_failure(EQ28_GRID_K, EQ28_GRID_T)

    report = {
        "lemma3_residual": rec.max_abs_residual,
        "eq26_ok": eq26,
        "eq28_ok": eq28_failure is None,
        "decomposition_max_err": decomp_err,
    }
    extras = {
        "recursion": rec,
        "structure_max_err": aux.structure_max_err,
        "sigma_consistent": rec.sigma_consistent,
        "diameter": d,
        "truncation_top": aux.times.top,
        "eq28_first_failure": eq28_failure,
        "h": hg[0],
    }
    return report, extras
