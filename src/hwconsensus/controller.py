"""Distributed root-seeking control law with expanding truncations.

Per round k each agent: pools the largest truncation count seen in its
closed neighborhood, aggregates weighted observation differences, and either
(a) adopts a larger pooled count -- in which case the round is a pure
restart: the estimate returns to the reset point u* and no correction step
or truncation test happens until the next round -- or (b) runs the usual
stochastic-approximation update with step 1/k, truncating back to u* and
incrementing its count whenever the candidate leaves the expanding bound
M_sigma = ln(sigma + c_M).

advance() runs that round for every agent at once on flat lists and keeps
only the next (u, sigma). Pooling reads the counts as they stood at the
start of the round, so the result does not depend on the order in which
agents are visited. The round's pooled counts, working estimates and
aggregated observations are functions of (u, sigma, y, eps) and are derived
for a whole log at once by analysis.round_columns.
"""

from __future__ import annotations

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
    round does not apply O, so it does not form it.
    """
    top = max(sigma)
    if min(sigma) == top:
        # nothing to pool; agent i writes only sigma[i], after reading it
        pooled = sigma
    else:
        pooled = []
        for i, nb in enumerate(nbrs):
            sp = sigma[i]
            for _, j, _ in nb:
                if sigma[j] > sp:
                    sp = sigma[j]
            pooled.append(sp)

    a = 1.0 / k
    M = sched.bounds(top)
    for i, nb in enumerate(nbrs):
        sp = pooled[i]
        if sp > sigma[i]:
            u[i] = u_star[i]
            sigma[i] = sp
            continue
        y = ys[i]
        O = 0.0
        for c, j, w in nb:
            O += w * (ys[j] + eps_row[c] - y)
        cand = u[i] + a * O
        if abs(cand) < M[sp]:
            u[i] = cand
        else:
            u[i] = u_star[i]
            sigma[i] = sp + 1
