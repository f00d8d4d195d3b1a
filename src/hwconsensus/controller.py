"""Distributed root-seeking control law with expanding truncations.

Per round k each agent: pools the largest truncation count seen in its
closed neighborhood, aggregates weighted observation differences, and either
(a) adopts a larger pooled count -- in which case the round is a pure
restart: the estimate returns to the reset point u* and no correction step
or truncation test happens until the next round -- or (b) runs the usual
stochastic-approximation update with step 1/k, truncating back to u* and
incrementing its count whenever the candidate leaves the expanding bound
M_sigma = ln(sigma + c_M).

emit_round writes that round for every agent as Python source, once: it is
the one implementation, compiled by advance() for flat lists and by
harness.run's round kernel for a whole run. Either keeps only the next
(u, sigma); the round kernel also keeps the count events. Pooling reads the
counts as they stood at the start of the round, so the result does not
depend on the order in which agents are visited; a round pools again only
after a count changed, as the pooled counts are otherwise the last ones. The
counts, the round's pooled counts, working estimates and aggregated
observations are functions of (u, count events, y) and the noise seed,
derived for a whole log at once by analysis.TrajectoryLog.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

from .errors import ValidationError


@dataclass(frozen=True)
class Schedule:
    """Truncation bounds M_sigma = ln(sigma + c_M); advance forms the step
    sizes a_k = 1/k itself.

    The bounds come from one table per schedule: ln(sigma + c_M) is computed
    once per sigma, the first time a caller needs it.
    """

    c_M: float
    _bounds: list = field(default_factory=list, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (self.c_M > 0 and math.isfinite(self.c_M)):
            raise ValidationError(f"c_M must be positive and finite, got {self.c_M!r}")

    def bounds(self, top: int) -> list:
        """The table M_0, M_1, ..., at least up to M_top."""
        table = self._bounds
        for sigma in range(len(table), top + 1):
            table.append(math.log(sigma + self.c_M))
        return table

    def bound(self, sigma: int) -> float:
        return self.bounds(sigma)[sigma]


def round_shape(nbrs: list) -> tuple:
    """What the source of a round depends on: per agent, its neighbours as
    (edge column, neighbour index) pairs in nbrs order; the weights are values."""
    return tuple(tuple((c, j) for c, j, _ in nb) for nb in nbrs)


def emit_round(shape: tuple) -> list:
    """Python source of one round of the control law for every agent: the
    one implementation of the round, which advance and the round kernel of
    harness.run compile.

    The lines read the round k, each agent i's estimate u{i}, count s{i},
    output y{i} and reset point us{i}, and for each edge column c its noise
    e{c} and weight w{c}; they overwrite u{i} and s{i} with the next round's
    values, and hand each count they assign to events as [k, agent, count],
    agent 1-based: the fired count (the pooled one + 1) and the pooled count
    a restart adopts. Each agent's pooled count p{i} is read from the counts
    as they stood at the start of the round; then the agent restarts, or
    corrects against the bound m{i} = M[p{i}]: a candidate is kept iff
    n{i} < cand < m{i}, n{i} = -m{i}, which decides as abs(cand) < m{i} on
    every float, signed zeros, infinities and NaN included. The counts
    change only where a line hands one to events, and each such line sets
    pool, so the p{i}, with their bounds, are pooled again only in a round
    that follows one with an event, else they are the last round's, read
    from the same counts: the caller sets pool true before the first round.
    M is the bound table, which covers the largest count and only grows by
    appending: the caller sets it, and a fire, the only way the largest
    count grows, extends it with bounds(s{i}). o = O_i = 0.0 + sum_j
    w_ij (y_j + e_ij - y_i) is summed in nbrs order, one statement per 1000
    terms, as a deeper left-nested sum does not compile. The source holds
    only these names and integers (every index is formatted as one).
    """
    lines = ["a = 1.0 / k", "if pool:", "    pool = False"]
    for i, nb in enumerate(shape):
        lines.append(f"    p{i} = s{i}")
        for _, j in nb:
            lines += [f"    if s{j:d} > p{i}:", f"        p{i} = s{j:d}"]
        lines += [f"    m{i} = M[p{i}]", f"    n{i} = -m{i}"]
    for i, nb in enumerate(shape):
        terms = [f" + w{c:d} * (y{j:d} + e{c:d} - y{i})" for c, j in nb]
        lines += [f"if p{i} > s{i}:",
                  f"    u{i} = us{i}",
                  f"    s{i} = p{i}",
                  f"    events([k, {i + 1:d}, s{i}])",
                  "    pool = True",
                  "else:",
                  *(f"    o = {'o' if x else '0.0'}{''.join(terms[x:x + 1000])}"
                    for x in range(0, len(terms) or 1, 1000)),
                  f"    cand = u{i} + a * o",
                  f"    if n{i} < cand < m{i}:",
                  f"        u{i} = cand",
                  "    else:",
                  f"        u{i} = us{i}",
                  f"        s{i} = p{i} + 1",
                  f"        events([k, {i + 1:d}, s{i}])",
                  "        pool = True",
                  f"        M = bounds(s{i})"]
    return lines


@functools.lru_cache(maxsize=64)
def _compiled_advance(shape: tuple):
    """emit_round as a function of advance's arguments (sched.bounds as
    bounds, the table M up to the largest count), compiled once per
    round_shape and process."""
    n = len(shape)
    agents = range(n)

    def names(prefix):
        return ", ".join(f"{prefix}{i}" for i in agents)

    src = ["def advance(u, sigma, ys, eps_row, nbrs, u_star, k, bounds):",
           f"    [{names('u')}] = u",
           f"    [{names('s')}] = sigma",
           f"    [{names('y')}] = ys",
           f"    [{names('us')}] = u_star"]
    for i, nb in enumerate(shape):
        for t, (c, _) in enumerate(nb):
            src += [f"    e{c:d} = eps_row[{c:d}]", f"    w{c:d} = nbrs[{i}][{t}][2]"]
    src += ["    M = bounds(max(sigma))", "    events = _discard", "    pool = True"]
    src += ["    " + x for x in emit_round(shape)]
    src += [f"    u[:] = [{names('u')}]", f"    sigma[:] = [{names('s')}]"]
    namespace = {"_discard": lambda event: None}  # advance keeps no count events
    exec(compile("\n".join(src) + "\n", "<round>", "exec"), namespace)
    return namespace["advance"]


def advance(u: list, sigma: list, ys: list, eps_row: list, nbrs: list, u_star: list,
            k: int, sched: Schedule) -> None:
    """One round of the control law for every agent, in place.

    u and sigma hold each agent's estimate and count and are overwritten
    with the next round's values. ys[i] is agent i's plant output this round,
    eps_row[c] the noise on directed edge column c, and nbrs[i] lists agent
    i's neighbors as (edge column, neighbor index, weight) triples in the
    order their terms are summed: O_i = sum_j w_ij (z_ij - y_i) with the
    observation z_ij = y_j + eps_ij.

    A candidate u + (1/k) O is kept iff strictly inside M_sigma; hitting or
    crossing the bound resets to u* and increments the count. A restart
    round does not apply O, so it does not form it. The round is compiled
    from emit_round once per round_shape and process.
    """
    _compiled_advance(round_shape(nbrs))(u, sigma, ys, eps_row, nbrs, u_star, k, sched.bounds)
