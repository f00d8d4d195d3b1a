"""Post-hoc diagnostics and exact oracles over simulation logs.

Everything here is a pure function of an immutable TrajectoryLog plus the
static scenario objects (gains, topology). The centerpiece is the
centralized-replay oracle: relabeling the distributed run through its
truncation windows yields sequences that must satisfy a single expanding-
truncation recursion with an infinity-norm test, exactly. The replay here
reproduces the logged run bit for bit and is used as the package's main
correctness check. Verification reads only what a log stores and
regenerates the rest one block of rows at a time (log_blocks).
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .controller import Schedule
from .errors import (
    BracketFailure,
    DimensionMismatch,
    IdentityViolation,
    IncompleteLog,
    IndexOutOfRange,
    NonFiniteValue,
    StepNotLogged,
    ValidationError,
)
from .graph import Ranks, Topology, diameter, directed_pairs, laplacian, neighbour_columns
from .noise import edge_blocks, row_blocks
from .plant import steps

INF = float("inf")
# the eq28 grid verify checks: k <= EQ28_GRID_K, T in EQ28_GRID_T; every
# EQ28_GRID_K e^T is within _MAX_TERMS
EQ28_GRID_K = 1000
EQ28_GRID_T = (0.1, 0.5, 1.0, 2.0)


# ---------------------------------------------------------------------------
# the log

# a block of log_rows: each agent's count sigma, pooled count sigma_prime and
# input u_prime on every row; the noise, z and O on the logged rows
LogRows = namedtuple("LogRows", "sigma sigma_prime u_prime noise z O")


def _dense(name: str) -> property:
    """A log's column name, of the logged rows, on every row with NaN off the
    stride, formed on each read (TrajectoryLog)."""
    def dense(log) -> np.ndarray:
        block = getattr(log, name)
        if log.log_stride == 1:
            return block
        out = np.full((log.horizon, block.shape[1]), np.nan)
        out[::log.log_stride] = block
        return out
    return property(dense)


@dataclass
class TrajectoryLog:
    """One run: its scenario (a harness.Scenario), u_{i,k} at the start of
    every round (row r is step r + 1), the count events, and on the logged
    rounds (logged_rows) the outputs y_{i,k+1}.

    events is an (E, 3) int64 array of (k, agent, count) rows in (k, agent)
    order, agents 1-based: in round k the agent's count became count, so it
    holds from row k (step k + 1) on. Every count starts at 0.

    The other columns are derived, with the round's IEEE operations in its
    order, so each cell is the round's value bit for bit: sigma, each
    agent's count at the start of every round; noise, each edge's noise on
    the logged rounds, redrawn from the scenario's noise seed for those
    rounds alone; sigma_prime, the closed neighbourhood's largest sigma;
    u_prime, u* where sigma_prime > sigma, else u; on the logged rounds
    logged_z, y of the observed agent plus noise, and logged_O, w (z - y_i)
    summed over the neighbours from 0.0; and, NaN off the stride, y_next,
    eps, z and O_next. The first six are the blocks of log_rows joined,
    derived on the first read of any and kept. The last four are formed on
    each read and not kept: at stride 1 each is the logged array itself, at
    a larger stride a new array of horizon rows, nearly all NaN, that only
    its reader holds.
    """

    scenario: object
    u: np.ndarray
    events: np.ndarray
    y: np.ndarray
    plants: tuple | None = None  # copies of run's initial_plants, if it was given them

    @property
    def horizon(self) -> int:
        return self.u.shape[0]

    @property
    def log_stride(self) -> int:
        return self.scenario.log_stride

    @property
    def logged_rows(self) -> np.ndarray:
        """The 0-based rows whose outputs and noise are recorded: steps 1, 1 + stride, ..."""
        return np.arange(0, self.horizon, self.log_stride)

    @functools.cached_property
    def pairs(self) -> list:
        return directed_pairs(self.scenario.topology)

    @functools.cached_property
    def _rows(self) -> LogRows:
        return LogRows(*map(np.concatenate, zip(*(rows for _, rows in log_rows(self)))))

    sigma, sigma_prime, u_prime, noise, logged_z, logged_O = (
        property(attrgetter("_rows." + name)) for name in LogRows._fields)
    y_next, O_next, z, eps = map(_dense, ("y", "logged_O", "logged_z", "noise"))


def neighbour_sum(ranks, terms: np.ndarray) -> np.ndarray:
    """Each agent's sum_j p_ij term_ij, (rows, n), from 0.0 in nbrs order as the
    round sums, one addition per rank of ranks (a graph.Ranks): terms holds
    each edge's term_ij, (edges, rows), edges in the order of ranks.i, c and j."""
    terms, out, a = ranks.w[:, None] * terms, np.zeros((len(ranks.inv), terms.shape[1])), 0
    for m in ranks.counts:
        np.add(out[:m], terms[a:a + m], out=out[:m])
        a += m
    return out.T[:, ranks.inv]


def observations(y: np.ndarray, noise: np.ndarray, topology: Topology) -> tuple:
    """(z, O) on rows of y and of the noise of topology's directed_pairs, as
    the round forms them: z, the observed agent's y plus the noise, and O,
    each agent's neighbour_sum of z - y_i."""
    ranks = laplacian(topology)
    # the round's float arithmetic overflows to inf without a warning
    with np.errstate(all="ignore"):
        z = y[:, ranks.j[np.argsort(ranks.c)]]  # each edge column's observed agent
        z += noise
        return z, neighbour_sum(ranks, z.T[ranks.c] - y.T[ranks.i])


def counts_at(events: np.ndarray, rows: np.ndarray, n: int, initial=0) -> np.ndarray:
    """Each of n agents' count at the start of each of the given 0-based
    rows, (len(rows), n) int64: the count of its last event with k <= row,
    else initial (each agent's, or one for all). Each agent's events must be
    in k order; events of agents outside 1..n are ignored."""
    k, agent, count = events.T
    # agent-major keys agent * span + k - lo, lo below every k and row: an
    # agent's span holds one key of its initial count, then its events' alone
    lo = min(k.min(initial=0), rows.min(initial=0)) - 1
    span = max(k.max(initial=0), rows.max(initial=0)) - lo + 1
    keys = np.concatenate([np.arange(n) * span, (agent - 1) * span + k - lo])
    order = np.argsort(keys, kind="stable")  # an agent's events stay in k order
    values = np.concatenate([np.broadcast_to(initial, n), count])[order]
    # the queries agent-major: sorted where the rows are
    at = np.searchsorted(keys[order], (np.arange(n)[:, None] * span + rows - lo).ravel(), "right")
    return np.ascontiguousarray(values[at - 1].reshape(n, len(rows)).T)


def pooled_counts(counts: np.ndarray, topology: Topology) -> np.ndarray:
    """Each agent's largest count over its closed neighbourhood in topology,
    on every row of counts (rows, n): the round's pooling, one maximum per
    rank of the topology's graph.Ranks, as neighbour_sum adds."""
    ranks, counts = laplacian(topology), counts.T
    pooled, a = counts[np.argsort(ranks.inv)], 0  # agents by falling degree
    for m in ranks.counts:
        np.maximum(pooled[:m], counts[ranks.j[a:a + m]], out=pooled[:m])
        a += m
    return np.ascontiguousarray(pooled[ranks.inv].T)


def log_rows(log: TrajectoryLog):
    """(a, LogRows) per range (a, b) of noise.row_blocks over the log's rows
    (one range of no rows if there are none): the counts from the events,
    carried from the row before; their pooled_counts; u* where those are
    above the counts, else u; on the logged rows, the noise and observations."""
    (K, n), stride, topology = log.u.shape, log.log_stride, log.scenario.topology
    u_star, k, hi = np.array(log.scenario.controller.u_star), log.events[:, 0], 0
    counts = np.zeros((1, n), dtype=np.int64)
    for a, b in row_blocks(K, max(n, len(log.pairs))) if K else [(0, 0)]:
        lo, hi = hi, int(np.searchsorted(k, b))  # the events of k < b not read before
        counts = counts_at(log.events[lo:hi], np.arange(a, b), n, counts[-1])
        pooled, first = pooled_counts(counts, topology), -(-a // stride)  # first logged row
        at = range(first * stride, b, stride)  # the block's logged rows, whose noise alone is drawn
        noise = log.scenario._edge_noise(at.start, len(at), stride)
        yield a, LogRows(counts, pooled, np.where(pooled > counts, u_star, log.u[a:b]), noise,
                         *observations(log.y[first:first + len(at)], noise, topology))


def fired(log: TrajectoryLog) -> np.ndarray:
    """Per count event, whether it is a truncation: its count is the agent's
    pooled count at the start of its round + 1. Any other event is a restart
    adopting the larger pooled count."""
    ev = log.events
    # each event's round among the rounds with events (the events are in k
    # order); each agent's counts rise, so its count at the start of a round
    # is the running maximum of the counts it took in the rounds before
    first = np.ones(len(ev), dtype=bool)
    first[1:] = ev[1:, 0] != ev[:-1, 0]
    rounds = np.cumsum(first)
    counts = np.zeros((rounds.max(initial=0) + 1, log.u.shape[1]), dtype=np.int64)
    counts[rounds, ev[:, 1] - 1] = ev[:, 2]
    pooled = pooled_counts(np.maximum.accumulate(counts[:-1]), log.scenario.topology)
    return ev[:, 2] == pooled[rounds - 1, ev[:, 1] - 1] + 1


def truncation_events(log: TrajectoryLog) -> list:
    """The count events as (k, agent, count, kind) rows, in (k, agent) order:
    kind 'fired' for a truncation in round k, 'pooled' for a restart that
    adopts a neighbour's larger count (see fired)."""
    kinds = np.where(fired(log), "fired", "pooled").tolist()
    return [(k, agent, count, kind) for (k, agent, count), kind in zip(log.events.tolist(), kinds)]


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


@dataclass
class AuxiliarySequences:
    """The windowed relabeling of the rows of a log at steps k (build_auxiliary)."""

    k: np.ndarray
    ubar: np.ndarray
    obar: np.ndarray
    sigma_bar: np.ndarray
    u_star: np.ndarray
    catchup_mask: np.ndarray


@dataclass
class Block:
    """The rows of a log at steps k, each cell the round's bits: u; y, the
    outputs y_{i,k+1}; the noise of every edge; O; h and g, the gain_field
    of u; and sigma_bar, the largest count (log_blocks)."""

    k: np.ndarray
    u: np.ndarray
    y: np.ndarray
    noise: np.ndarray
    O: np.ndarray
    h: np.ndarray
    g: np.ndarray
    sigma_bar: np.ndarray | None = None


def log_blocks(log: TrajectoryLog, gains, lap: Ranks):
    """The log's rows as Blocks, one per block of noise.edge_blocks, from u,
    the count events and the logged y alone; blocks of any length hold the
    same bits. y is the stored y at stride 1, else the plants the run started
    from replayed over u. A NaN stored y, or a logged y that differs from the
    replay in any bit, raises IncompleteLog at its first (k, agent).
    sigma_bar comes from one running maximum of the counts (none falls); it
    sizes nothing, as no check bounds it."""
    (K, n), stride = log.u.shape, log.log_stride
    peak = np.maximum.accumulate(np.concatenate(([0], log.events[:, 2])))
    replay = None  # at stride 1 y is stored: no plant is built
    if stride > 1:
        plants = log.plants or [a.build() for a in log.scenario.agents]
        replay = steps([p.copy() for p in plants])
    for a, noise in edge_blocks(log.scenario._edge_noise, K, max(n, len(log.pairs))):
        b = a + len(noise)
        u = log.u[a:b]
        if stride == 1:
            y = log.y[a:b]
            at, bad, what = np.arange(a, b), np.isnan(y), "no output y_next"
        else:
            try:
                y = np.array(replay(a, u.tolist())).reshape(u.shape)
            except NonFiniteValue as e:
                raise IncompleteLog(f"the plant replayed over u leaves finite range at "
                                    f"k={e.step}, agent {e.agent}: {e}") from None
            at = np.arange(-(-a // stride) * stride, b, stride)  # the logged rows
            bad = y[at - a].view(np.int64) != log.y[at // stride].view(np.int64)
            what = "the plant replayed over u differs from the logged y_next"
        if bad.any():
            x, i = np.argwhere(bad)[0].tolist()
            raise IncompleteLog(f"{what} at k={at[x] + 1}, agent {i + 1}")
        yield Block(np.arange(a + 1, b + 1), u, y, noise,
                    observations(y, noise, log.scenario.topology)[1], *gain_field(u, gains, lap),
                    peak[np.searchsorted(log.events[:, 0], np.arange(a, b), side="right")])


# ---------------------------------------------------------------------------
# regression field and noise decomposition

def gain_field(u: np.ndarray, gains, lap: Ranks) -> tuple[np.ndarray, np.ndarray]:
    """Gains h(u) and consensus field g(u) = -L h(u) for a (rows, n) block of u.

    h is evaluated one agent's column at a time; g_i = sum_j p_ij h_j - d_i h_i,
    the sum a neighbour_sum and d_i the weighted degree lap.d.
    """
    h = np.column_stack([gains[i](u[:, i]) for i in range(u.shape[1])])
    return h, neighbour_sum(lap, h.T[lap.j]) - lap.d * h


def regression_g(u: np.ndarray, gains, lap: Ranks) -> np.ndarray:
    """Consensus vector field g_i = sum_j p_ij (h_j(u_j) - h_i(u_i)) at one point."""
    u = np.asarray(u, dtype=float)
    n = len(lap.d)
    if u.shape != (n,) or len(gains) != n:
        raise DimensionMismatch(f"u shape {u.shape}, {len(gains)} gains, {n} agents")
    return gain_field(u[None], gains, lap)[1][0]


def _decompose(block: Block, lap: Ranks):
    """(e1, e2, e3, O - g, bound) on the rows of a block, each (rows, n).

    e1 = sum_j p_ij eps_ij           (pure observation noise)
    e2 = d_i (h_i(u_{i,k}) - y_{i,k+1})   (own output off steady state)
    e3 = sum_j p_ij (y_{j,k+1} - h_j(u_{j,k}))
    Each sum over j is a neighbour_sum, as are O's and g's, over lap, whose
    edge columns are those of the log's pairs; d_i is lap.d, agent i's weights
    summed in the same order.

    bound, gamma_t S capped at the largest float, bounds the float sides'
    difference, 0 in exact arithmetic with d_i the exact sum_j p_ij:
    gamma_t = t u / (1 - t u), u = 2^-53, t = 2 d_max + 8 (d_max the largest
    degree), S = sum_j p_ij (|eps_ij| + |y_j| + |h_j|) + d_i (|h_i| + |y_i|).
    Why (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    sections 3.1 and 4.2): a term through r roundings, barring underflow, is
    itself times 1 + theta, |theta| <= gamma_r. A sum from 0.0 of d terms rounds
    each at most d - 1 times (adding 0.0 is exact), as does d_i. A term of an
    agent of degree d meets at most d + 3 roundings on either side, 2d + 5 on
    both (gamma_a + gamma_b <= gamma_{a+b}). With err's subtraction (1 + u), S's
    own sum (at least 1 - gamma_{d+3} times S) and the bound's two roundings:
    gamma_{2d+8} (1 - u)^2 (1 - gamma_{d+3}) >= (1 + u) gamma_{2d+5} for d < 10^7.
    """
    y, h = block.y, block.h
    eps = block.noise.T[lap.c]  # per edge, (edges, rows)
    e1 = neighbour_sum(lap, eps)
    e3 = neighbour_sum(lap, (y - h).T[lap.j])
    e2 = lap.d * (h - y)
    size = np.abs(y) + np.abs(h)
    S = neighbour_sum(lap, np.abs(eps) + size.T[lap.j]) + lap.d * size
    t = 2 * len(lap.counts) + 8  # one count per rank: len(lap.counts) is d_max
    bound = np.minimum(t * _U / (1 - t * _U) * S, np.finfo(float).max)  # an infinite err fails
    return e1, e2, e3, block.O - block.g, bound


def decomposition_check(block: Block, lap: Ranks) -> tuple:
    """The decomposition verdict on the rows of a block: ((e1, e2, e3, O - g),
    err = |e1 + e2 + e3 - (O - g)|, ok = err <= _decompose's bound) per cell.
    An all-zero cell passes; a NaN or an infinite err fails."""
    e1, e2, e3, rhs, bound = _decompose(block, lap)
    err = np.abs(e1 + e2 + e3 - rhs)
    return (e1, e2, e3, rhs), err, err <= bound


def noise_decomposition(log: TrajectoryLog, k: int, i: int, gains,
                        lap: Ranks) -> tuple[float, float, float]:
    """Split O_{i,k+1} - g_i(u_k) into noise, own-transient, neighbor-transient:
    _decompose's e1, e2, e3 at step k, agent i (1..n, else IndexOutOfRange).
    A cell decomposition_check fails raises IdentityViolation, located at
    (k, agent, lhs, rhs)."""
    if not 1 <= i <= log.u.shape[1]:
        raise IndexOutOfRange(f"agent {i} outside 1..{log.u.shape[1]}")
    if k - 1 not in log.logged_rows:
        raise StepNotLogged(f"step {k} not in the log (stride {log.log_stride})")
    r = k - 1
    y = log.y[r // log.log_stride:r // log.log_stride + 1]
    if np.isnan(y).any():
        raise StepNotLogged(f"step {k} has no output record")
    # the noise and O of this one row, never the whole horizon's
    noise = log.scenario._edge_noise(r, 1)
    u = log.u[r:r + 1]
    block = Block(np.array([k]), u, y, noise, observations(y, noise, log.scenario.topology)[1],
                  *gain_field(u, gains, lap))
    terms, _, ok = decomposition_check(block, lap)
    e1, e2, e3, rhs = (float(t[0, i - 1]) for t in terms)
    if not ok[0, i - 1]:
        lhs = e1 + e2 + e3
        raise IdentityViolation(
            f"decomposition identity violated at k={k}, agent {i}: {lhs} vs {rhs}",
            location=(k, i, lhs, rhs))
    return e1, e2, e3


# ---------------------------------------------------------------------------
# truncation windows

def truncation_times(log: TrajectoryLog) -> TruncationTimes:
    """First-passage tables of the logged truncation counts.

    An agent first reaches m at its first event (round k, so step k + 1)
    whose count is m or more. In one pass over the events: each event's step
    is the least at its (count, agent) cell (np.minimum.at), and a running
    minimum from the top level down carries it to every level below. r, the
    first passage of any agent, is the minimum over the agents. An event of
    a negative count or of an agent outside 1..n, which would land in another
    cell, raises IdentityViolation located at (k, agent, count).
    """
    K, n = log.u.shape
    k, agent, count = log.events[log.events[:, 0] < K].T
    bad = np.flatnonzero((count < 0) | (agent < 1) | (agent > n))
    if len(bad):
        k, agent, count = (int(v[bad[0]]) for v in (k, agent, count))
        raise IdentityViolation(
            f"count event (k={k + 1}, agent {agent}, count {count}) names an agent "
            f"outside 1..{n} or a negative count", location=(k + 1, agent, count))
    top = int(count.max(initial=0))
    r_agent = np.full((top + 2, n), INF)
    np.minimum.at(r_agent, (count, agent - 1), k + 1.0)
    r_agent = np.minimum.accumulate(r_agent[::-1], axis=0)[::-1]
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

def build_auxiliary(block: Block, times: TruncationTimes, u_star) -> AuxiliarySequences:
    """Relabel a block of a log through the log's truncation windows (times):
    in an agent's catch-up window [r(m), min(r_agent(m), r(m+1))), before it
    reaches the count m of the global window [r(m), r(m+1)), ubar and obar
    (its effective observation) are the reset point and 0, else u and the
    logged O. Step s is in the window of the last m with r(m) <= s, sigma_bar."""
    catchup = block.k[:, None] < times.r_agent[block.sigma_bar]
    return AuxiliarySequences(k=block.k, ubar=np.where(catchup, u_star, block.u),
                              obar=np.where(catchup, 0.0, block.O), sigma_bar=block.sigma_bar,
                              u_star=u_star, catchup_mask=catchup)


def catchup_first_failure(block: Block, catchup: np.ndarray, before: tuple | None,
                          event_keys: np.ndarray, u_star) -> tuple | None:
    """(k, agent, |difference|) of the first catch-up cell of a block, at step
    k + 1, whose u is not what round k wrote, or None; the relabeling puts
    u_star there, so the replay reads none. Round k wrote u_star after a
    count event, else the kept candidate u + (1/k) O of step k; before is
    the (u, O) of the step before the block, and event_keys the events'
    k n + agent - 1, ascending."""
    cells = np.flatnonzero(catchup)  # row-major: the first is the earliest (k, agent)
    if not len(cells):
        return None
    n, flat, k0 = len(u_star), block.u.reshape(-1), block.k[0] - 1
    r, i = np.divmod(cells, n)
    u, O, k = flat[cells - n], block.O[r - 1, i], r + k0
    if r[0] == 0:  # step 1 is in no catch-up window: a block with such cells has one before
        first = np.searchsorted(r, 1)
        u[:first], O[:first] = before[0][i[:first]], before[1][i[:first]]
    key = cells + k0 * n
    event = event_keys[np.searchsorted(event_keys, key).clip(max=len(event_keys) - 1)] == key
    want, got = np.where(event, u_star[i], u + (1.0 / k) * O), flat[cells]
    bad = np.flatnonzero(want != got)  # a NaN never matches
    if len(bad):
        return int(k[bad[0]]), int(i[bad[0]]) + 1, float(abs(want - got)[bad[0]])
    return None


@dataclass(frozen=True)
class RecursionCheck:
    max_abs_residual: float  # a diagnostic: the verdict is exact
    passed: bool  # every replayed estimate == the logged one, and sigma_consistent
    sigma_consistent: bool
    first_failure: tuple | None = None  # (k, agent, residual) of the first miss
    last: tuple = ()  # the last row's (replayed estimate, reset, sigma_bar)


def first_failure(err: np.ndarray, ok: np.ndarray, k0: int = 1) -> tuple | None:
    """(k, agent, value) of the first cell of a (rows, n) array of errors,
    in row-major order, where ok is False, row r being round k = k0 + r;
    None if ok holds on every cell."""
    if ok.all():
        return None
    r, i = np.argwhere(~ok)[0].tolist()
    return int(k0) + r, i + 1, float(err[r, i])


def verify_centralized_recursion(aux: AuxiliarySequences, sched: Schedule,
                                 before: RecursionCheck | None = None,
                                 catchup: tuple | None = None) -> RecursionCheck:
    """Replay the relabeled run as one centralized truncation recursion.

    From each row: candidate = ubar + (1/k) obar per agent; unless every
    |candidate| is below ln(sigma_bar + c_M) (a NaN is not), every agent
    resets to its u_star and sigma_bar increments, else the candidates carry
    forward.
    It passes iff every replayed next estimate == the logged one (NaN never
    does; a reset point -0.0 replays as -0.0 + (1/k) 0.0 = 0.0) and the
    sigma_bar path matches the indicator; it names the first round and agent
    whose estimate differs, and the largest deviation as a diagnostic.
    catchup, the block's catchup_first_failure, fails it too, and the earlier
    of the two first failures is named; the deviation stays the replay's.
    before, the check of the rows before the block, carries its last row
    into the replay, and the result covers both.
    """
    cand = aux.ubar + (1.0 / aux.k)[:, None] * aux.obar
    # the schedule's table, which the round reads: math.log, whose bits
    # np.log does not always match, so a candidate on the bound is decided alike
    bound = np.array(sched.bounds(int(aux.sigma_bar.max(initial=0))))[aux.sigma_bar]
    # kept iff every |candidate| is below the bound, as the round keeps one
    # iff -M < cand < M: a NaN candidate is truncated
    ind = ~(np.abs(cand) < bound[:, None]).all(axis=1)
    pred = np.where(ind[:, None], aux.u_star[None, :], cand)
    sbar, k0, nxt = aux.sigma_bar, aux.k[0], aux.ubar[1:]
    if before is not None:
        p, i, s = before.last
        pred, ind, sbar = np.vstack([p, pred]), np.append(i, ind), np.append(s, sbar)
        k0, nxt = k0 - 1, aux.ubar
    diff = np.abs(pred[:-1] - nxt)
    resid = float(diff.max(initial=0.0))
    sigma_ok = bool(np.array_equal(sbar[1:], sbar[:-1] + ind[:-1].astype(sbar.dtype)))
    failure = first_failure(diff, pred[:-1] == nxt, k0)
    if catchup is not None and (failure is None or catchup[:2] < failure[:2]):
        failure = catchup
    if before is not None:
        resid = float(np.maximum(before.max_abs_residual, resid))
        sigma_ok = sigma_ok and before.sigma_consistent
        failure = before.first_failure or failure
    return RecursionCheck(max_abs_residual=resid, passed=failure is None and sigma_ok,
                          sigma_consistent=sigma_ok, first_failure=failure,
                          last=(pred[-1], ind[-1], sbar[-1]))


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


def at_roots(gains, roots: np.ndarray) -> list:
    """Each gain at its root (gain_roots): within rounding of its zero."""
    return [g(a) for g, a in zip(gains, roots)]


def _lyapunov(u: np.ndarray, h: np.ndarray, gains, roots: np.ndarray, h_roots) -> np.ndarray:
    """V at each point of u, (..., n), given h = the gains at u, their roots
    and the gains at their roots (at_roots).

    V(u) = sum_i of the integral of h_i from its zero up to u_i, by one
    Simpson panel per component, exact for the polynomial gain catalog
    (degree <= 3).
    """
    v = np.zeros(u.shape[:-1])
    for i, (g, a, ha) in enumerate(zip(gains, roots, h_roots)):
        b = u[..., i]
        mid = 0.5 * (a + b)
        v += (b - a) / 6.0 * (ha + 4.0 * g(mid) + h[..., i])
    return v


def lyapunov_v(u: np.ndarray, gains) -> float:
    """Sum of integrals of each gain from its zero up to u_i.

    Nonnegative by monotonicity; its gradient is the gain vector h(u).
    """
    u = np.asarray(u, dtype=float)
    if u.shape != (len(gains),):
        raise DimensionMismatch(f"u shape {u.shape}, {len(gains)} gains")
    h = np.array([g(u[i]) for i, g in enumerate(gains)])
    roots = gain_roots(gains)
    return float(_lyapunov(u, h, gains, roots, at_roots(gains, roots)))


@dataclass
class RunMetrics:
    k: np.ndarray
    spread_y: np.ndarray
    residual: np.ndarray
    sigma_bar: np.ndarray
    v: np.ndarray


def consensus_metrics(block: Block, gains, roots: np.ndarray, h_roots) -> RunMetrics:
    """Per-step consensus diagnostics of the rows of a block (log_blocks).

    spread_y is the max pairwise gap of the outputs produced in the round;
    residual is the sup norm of L h(u_k) = -g; v is _lyapunov's, from the gains'
    roots and the gains at them (at_roots), found once per log.
    """
    # as in full_verification, a diverged run's values overflow to inf or NaN
    with np.errstate(over="ignore", invalid="ignore"):
        residual = np.abs(block.g).max(axis=1)
        spread = block.y.max(axis=1) - block.y.min(axis=1)
        v = _lyapunov(block.u, block.h, gains, roots, h_roots)
    return RunMetrics(k=block.k, spread_y=spread, residual=residual,
                      sigma_bar=block.sigma_bar, v=v)


def geometric_rows(K: int, points: int) -> np.ndarray:
    """0-based rows of about `points` steps spaced geometrically over 1..K."""
    ks = np.rint(np.geomspace(1, K, num=min(points, K))).astype(int)
    return ks[np.diff(ks, prepend=0) > 0] - 1  # np.unique's, without its import of numpy.ma


# ---------------------------------------------------------------------------
# bundled verification

def full_verification(log: TrajectoryLog, gains, topology: Topology, each_block=None):
    """Run every identity check on one log.

    Pass 1 reads the count events: a count outside 0..k-1 at step k raises
    IdentityViolation located at (k, agent, count); then eq26 and eq28.
    Pass 2 hands each block of log_blocks to each_block if given, then runs
    the relabeling, the replay (catchup_first_failure too) and the decomposition.
    Returns (report, extras): report carries the four headline fields
    {lemma3_residual, eq26_ok, eq28_ok, decomposition_max_err}; extras carry
    supporting diagnostics for human output, among them the first failing
    (k, T, lo, m, hi) of the eq28 grid (EQ28_GRID_K, EQ28_GRID_T) and the
    first (k, agent, error) that decomposition_check fails, each or None.
    """
    # a count rises by at most 1 per round from 0, so the count an event sets
    # in round k, which holds from step k + 1, is in 0..k; checked before
    # truncation_times sizes its tables by the largest count
    k, agent, count = log.events.T
    bad = np.flatnonzero((count < 0) | (count > k))
    if len(bad):
        k, agent, count = log.events[bad[0]].tolist()
        raise IdentityViolation(
            f"truncation count {count} at k={k + 1}, agent {agent} is outside 0..{k}",
            location=(k + 1, agent, count))
    times = truncation_times(log)
    d = diameter(topology)
    eq26 = check_window_bound(times, d, log.horizon)
    eq28_failure = _eq28_first_failure(EQ28_GRID_K, EQ28_GRID_T)

    lap = laplacian(topology)
    sched = Schedule(c_M=log.scenario.controller.c_M)
    u_star = np.array(log.scenario.controller.u_star)
    event_keys = log.events[:, 0] * log.u.shape[1] + log.events[:, 1] - 1
    rec, before, decomp, decomp_failure = None, None, 0.0, None
    # the gains overflow on a diverged run's inputs; the inf and NaN values
    # that follow fail the checks they reach, without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        for block in log_blocks(log, gains, lap):
            if each_block is not None:
                each_block(block)
            aux = build_auxiliary(block, times, u_star)
            rec = verify_centralized_recursion(aux, sched, rec, catchup_first_failure(
                block, aux.catchup_mask, before, event_keys, u_star))
            _, err, ok = decomposition_check(block, lap)
            # np.maximum, not max: a NaN anywhere is the maximum
            decomp = np.maximum(decomp, err.max())
            decomp_failure = decomp_failure or first_failure(err, ok, block.k[0])
            before = block.u[-1], block.O[-1]

    report = {
        "lemma3_residual": rec.max_abs_residual,
        "eq26_ok": eq26,
        "eq28_ok": eq28_failure is None,
        "decomposition_max_err": float(decomp),
    }
    extras = {
        "recursion": rec,
        "sigma_consistent": rec.sigma_consistent,
        "diameter": d,
        "truncation_top": times.top,
        "eq28_first_failure": eq28_failure,
        "decomposition_first_failure": decomp_failure,
    }
    return report, extras
