"""Distributed root-seeking control law with expanding truncations.

Per round k each agent: pools the largest truncation count seen in its
closed neighborhood, aggregates weighted observation differences, and either
(a) adopts a larger pooled count -- in which case the round is a pure
restart: the estimate returns to the reset point u* and no correction step
or truncation test happens until the next round -- or (b) runs the usual
stochastic-approximation update with step 1/k, truncating back to u* and
incrementing its count whenever the candidate leaves the expanding bound
M_sigma = ln(sigma + c_M).

advance() runs that round for every agent at once on flat lists. Pooling
reads the counts as they stood at the start of the round, so the result does
not depend on the order in which agents are visited.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ValidationError


@dataclass(frozen=True)
class Schedule:
    """Step sizes a_k = 1/k and truncation bounds M_sigma = ln(sigma + c_M)."""

    c_M: float

    def __post_init__(self):
        if not (self.c_M > 0 and math.isfinite(self.c_M)):
            raise ValidationError(f"c_M must be positive and finite, got {self.c_M!r}")

    def a(self, k: int) -> float:
        return 1.0 / k

    def bound(self, sigma: int) -> float:
        return math.log(sigma + self.c_M)


def advance(u: list, sigma: list, ys: list, z: list, nbrs: list, u_star: list,
            k: int, sched: Schedule) -> tuple[list, list, list]:
    """One round of the control law for every agent, in place.

    u and sigma hold each agent's estimate and count and are overwritten
    with the next round's values. ys[i] is agent i's plant output this round,
    z[c] the observation on directed edge column c, and nbrs[i] lists agent
    i's neighbors as (edge column, neighbor index, weight) triples in the
    order their terms are summed. Returns the round's pooled counts, working
    estimates (own u if the count is current, else u*) and aggregated
    observations O_i = sum_j w_ij (z_ij - y_i).

    A candidate u + (1/k) O is kept iff strictly inside M_sigma; hitting or
    crossing the bound resets to u* and increments the count. A restart
    round records O but does not apply it.
    """
    sigma_prime = []
    for i, nb in enumerate(nbrs):
        sp = sigma[i]
        for _, j, _ in nb:
            if sigma[j] > sp:
                sp = sigma[j]
        sigma_prime.append(sp)

    a = sched.a(k)
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
            if abs(cand) < sched.bound(sp):
                u[i] = cand
            else:
                u[i] = u_star[i]
                sigma[i] = sp + 1
        u_prime.append(up)
        obs.append(O)
    return sigma_prime, u_prime, obs
