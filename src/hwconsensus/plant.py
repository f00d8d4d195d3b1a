"""Single-agent open-loop dynamics.

An agent is a SISO block-oriented system: a static nonlinearity f composed
with a linear difference equation given by monic-constant polynomials
C(z) = 1 + c_1 z + ... + c_p z^p and D(z) = 1 + d_1 z + ... + d_q z^q in the
backward shift. A "hammerstein" agent applies f first (v = f(u), then
C(z) y_{k+1} = D(z) v_k); a "wiener" agent applies it last
(C(z) v_{k+1} = D(z) u_k, then y = f(v)).

The difference-equation stepper is the canonical simulator: stepper(plant)
compiles one agent's step once, and step() is a single call of it. A
state-space companion realization is provided purely as a cross-checking
oracle; the two must agree to 1e-10 per step on any input sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .errors import (
    NonFiniteValue,
    RootSolverFailure,
    ValidationError,
    ZeroDCGain,
)

HAMMERSTEIN = "hammerstein"
WIENER = "wiener"


@dataclass(frozen=True)
class Polynomial:
    """Coefficient list [1, a_1, ..., a_deg]; constant term pinned to 1."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ValidationError("polynomial needs at least the constant coefficient")
        if self.coeffs[0] != 1:
            raise ValidationError(f"constant coefficient must be 1, got {self.coeffs[0]!r}")
        if not all(np.isfinite(c) for c in self.coeffs):
            raise ValidationError(f"non-finite coefficient in {self.coeffs!r}")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def tail(self) -> tuple[float, ...]:
        """(a_1, ..., a_deg), empty for degree 0."""
        return self.coeffs[1:]


def poly(coeffs) -> Polynomial:
    return Polynomial(tuple(float(c) for c in coeffs))


def eval_at_one(p: Polynomial) -> float:
    """Sum of coefficients, the operator's DC gain numerator/denominator."""
    return float(sum(p.coeffs))


# ---------------------------------------------------------------------------
# static nonlinearity catalog

@dataclass(frozen=True)
class Nonlinearity:
    name: str
    params: tuple[tuple[str, float], ...]  # sorted (key, value) pairs
    fn: object = field(compare=False, repr=False)

    def __call__(self, u):
        return self.fn(u)

    def params_dict(self) -> dict:
        return dict(self.params)


# module-level evaluators bound by partial, so a built plant pickles (batch workers)
def _identity_eval(u):
    return u


def _affine_eval(beta, gamma, u):
    return beta * u + gamma


def _cubic_affine_eval(alpha, beta, gamma, u):
    return alpha * u ** 3 + beta * u + gamma


def _shifted_cube_eval(gamma, u):
    return (u - gamma) ** 3


# name -> (required param names, evaluator taking them in that order before u).
# Closed catalog; no expression parsing anywhere.
_CATALOG: dict[str, tuple[tuple[str, ...], object]] = {
    "identity": ((), _identity_eval),
    "affine": (("beta", "gamma"), _affine_eval),
    "cubic_affine": (("alpha", "beta", "gamma"), _cubic_affine_eval),
    "shifted_cube": (("gamma",), _shifted_cube_eval),
}


def make_nonlinearity(name: str, params: dict) -> Nonlinearity:
    if name not in _CATALOG:
        raise ValidationError(
            f"unknown nonlinearity {name!r}; known: {sorted(_CATALOG)}")
    wanted, evaluator = _CATALOG[name]
    given = set(params)
    if given != set(wanted):
        raise ValidationError(
            f"nonlinearity {name!r} takes params {sorted(wanted)}, got {sorted(given)}")
    vals = [float(params[k]) for k in wanted]
    if not all(np.isfinite(v) for v in vals):
        raise ValidationError(f"non-finite parameter for nonlinearity {name!r}")
    return Nonlinearity(name=name,
                        params=tuple(sorted(zip(wanted, vals))),
                        fn=partial(evaluator, *vals) if vals else evaluator)


# ---------------------------------------------------------------------------
# plants

@dataclass
class AgentPlant:
    kind: str
    C: Polynomial
    D: Polynomial
    f: Nonlinearity
    # histories, newest first, zero-filled before time 1
    y_hist: list = field(default_factory=list)
    v_hist: list = field(default_factory=list)
    u_hist: list = field(default_factory=list)  # wiener only

    def copy(self) -> "AgentPlant":
        return replace(self, y_hist=list(self.y_hist),
                       v_hist=list(self.v_hist), u_hist=list(self.u_hist))


def make_plant(kind: str, C: Polynomial, D: Polynomial, f: Nonlinearity) -> AgentPlant:
    if kind not in (HAMMERSTEIN, WIENER):
        raise ValidationError(f"kind must be {HAMMERSTEIN!r} or {WIENER!r}, got {kind!r}")
    p, q = C.degree, D.degree
    if kind == HAMMERSTEIN:
        return AgentPlant(kind, C, D, f, y_hist=[0.0] * p, v_hist=[0.0] * q)
    return AgentPlant(kind, C, D, f, y_hist=[], v_hist=[0.0] * p, u_hist=[0.0] * q)


def stepper(plant: AgentPlant):
    """The plant's one-step map u -> next output, compiled once.

    hammerstein: v_k = f(u_k); y_{k+1} = -sum c_s y_{k+1-s} + v_k + sum d_r v_{k-r}
    wiener:      v_{k+1} = -sum c_s v_{k+1-s} + u_k + sum d_r u_{k-r}; y = f(v_{k+1})

    The returned function binds f's evaluator, the plant's history lists and
    each coefficient of C's and D's tails paired with the history position it
    multiplies. It rotates the lists in place, newest first, so they stay the
    plant's state (rebinding one of them afterwards leaves the function
    stepping the old list). The -c terms are summed before the +d terms, in
    history order. A v or y that is not finite raises NonFiniteValue after
    the histories have moved; an f that overflows (Python's ** raises
    OverflowError rather than return inf) raises it before they move.
    """
    f = plant.f.fn
    y_hist, v_hist, u_hist = plant.y_hist, plant.v_hist, plant.u_hist
    c_hist, d_hist = (y_hist, v_hist) if plant.kind == HAMMERSTEIN else (v_hist, u_hist)
    # (coefficient, history position) pairs, as far as both reach
    c_terms = tuple(zip(plant.C.tail, range(len(c_hist))))
    d_terms = tuple(zip(plant.D.tail, range(len(d_hist))))
    isfinite = math.isfinite

    if plant.kind == HAMMERSTEIN:
        def step_hammerstein(u: float) -> float:
            try:
                v = f(u)
            except OverflowError:
                raise NonFiniteValue(f"nonlinearity overflows at {u!r}") from None
            acc = v
            for c, x in c_terms:
                acc -= c * y_hist[x]
            for d, x in d_terms:
                acc += d * v_hist[x]
            y = acc
            v_hist.insert(0, v)
            v_hist.pop()
            y_hist.insert(0, y)
            y_hist.pop()
            if not (isfinite(v) and isfinite(y)):
                raise NonFiniteValue(f"plant output left finite range (v={v!r}, y={y!r})")
            return y
        return step_hammerstein

    def step_wiener(u: float) -> float:
        acc = u
        for c, x in c_terms:
            acc -= c * v_hist[x]
        for d, x in d_terms:
            acc += d * u_hist[x]
        v = acc
        try:
            y = f(v)
        except OverflowError:
            raise NonFiniteValue(f"nonlinearity overflows at {v!r}") from None
        v_hist.insert(0, v)
        v_hist.pop()
        u_hist.insert(0, u)
        u_hist.pop()
        if not (isfinite(v) and isfinite(y)):
            raise NonFiniteValue(f"plant output left finite range (v={v!r}, y={y!r})")
        return y
    return step_wiener


def step(plant: AgentPlant, u: float) -> float:
    """Advance one step under input u, returning the next output (see stepper)."""
    return stepper(plant)(u)


# ---------------------------------------------------------------------------
# state-space cross-oracle

@dataclass
class StateSpaceRealization:
    A: np.ndarray
    B: np.ndarray
    G1: np.ndarray
    X: np.ndarray


def build_state_space(C: Polynomial, D: Polynomial) -> StateSpaceRealization:
    """Companion realization of the linear block, dimension max(p, q) + 1.

    A has -c_s down its first column (zero-padded past degree p) and an
    identity superdiagonal; B = [1, d_1, ..., d_{n-1}]; output row picks the
    first state: out_k = (A X_{k-1} + B w_{k-1})[0].
    """
    p, q = C.degree, D.degree
    n = max(p, q) + 1
    A = np.zeros((n, n))
    for s in range(1, p + 1):
        A[s - 1, 0] = -C.coeffs[s]
    for r in range(n - 1):
        A[r, r + 1] = 1.0
    B = np.zeros(n)
    B[0] = 1.0
    for r in range(1, q + 1):
        B[r] = D.coeffs[r]
    G1 = np.zeros(n)
    G1[0] = 1.0
    return StateSpaceRealization(A=A, B=B, G1=G1, X=np.zeros(n))


def step_state_space(ss: StateSpaceRealization, w: float) -> float:
    ss.X = ss.A @ ss.X + ss.B * w
    return float(ss.G1 @ ss.X)


# ---------------------------------------------------------------------------
# stability and gains

@dataclass(frozen=True)
class StabilityReport:
    stable: bool
    roots: tuple[complex, ...]


def check_stability(p: Polynomial, tol: float = 1e-9) -> StabilityReport:
    """All roots of p(z) strictly outside the closed unit disk by margin tol.

    Degree 0 is vacuously stable. Roots come from the companion eigenvalue
    problem (np.roots).
    """
    if p.degree == 0:
        return StabilityReport(stable=True, roots=())
    try:
        roots = np.roots(list(reversed(p.coeffs)))
    except np.linalg.LinAlgError as e:
        raise RootSolverFailure(f"root extraction failed for {p.coeffs!r}: {e}")
    if not np.all(np.isfinite(roots)):
        raise RootSolverFailure(f"non-finite roots for {p.coeffs!r}")
    stable = bool(np.all(np.abs(roots) > 1.0 + tol))
    return StabilityReport(stable=stable, roots=tuple(complex(r) for r in roots))


@dataclass(frozen=True)
class StaticGain:
    c: float
    d: float
    h: object = field(compare=False, repr=False)

    def __call__(self, u):
        return self.h(u)


def static_gain(plant: AgentPlant) -> StaticGain:
    """The steady-state input-to-output map h of one agent.

    hammerstein: h(u) = (d/c) f(u); wiener: h(u) = f((d/c) u), where
    c = C(1), d = D(1).
    """
    c = eval_at_one(plant.C)
    d = eval_at_one(plant.D)
    if abs(c) < 1e-12:
        raise ZeroDCGain(f"C(1) = {c} too close to zero")
    f = plant.f
    ratio = d / c
    if plant.kind == HAMMERSTEIN:
        h = lambda u: ratio * f(u)
    else:
        h = lambda u: f(ratio * u)
    return StaticGain(c=c, d=d, h=h)


def warm_plant(plant: AgentPlant, u: float) -> AgentPlant:
    """Copy of plant with histories set to the constant-input fixed point for u.

    Useful for robustness tests that need to start without the zero-state
    transient. hammerstein: v = f(u), y = v D(1)/C(1); wiener: v = u D(1)/C(1).
    """
    gain = static_gain(plant)
    ratio = gain.d / gain.c
    out = plant.copy()
    if plant.kind == HAMMERSTEIN:
        v = plant.f(u)
        y = ratio * v
        out.y_hist = [y] * len(out.y_hist)
        out.v_hist = [v] * len(out.v_hist)
    else:
        v = ratio * u
        out.v_hist = [v] * len(out.v_hist)
        out.u_hist = [u] * len(out.u_hist)
    return out


def steady_state_check(plant: AgentPlant, u: float, horizon: int, tol: float) -> bool:
    """Drive a copy with constant u; true iff the output settles on h(u)."""
    gain = static_gain(plant)
    advance_probe = stepper(plant.copy())
    y = None
    for _ in range(horizon):
        y = advance_probe(u)
    return abs(y - gain.h(u)) < tol


def is_strictly_increasing(h, lo: float = -50.0, hi: float = 50.0,
                           npoints: int = 10 ** 4) -> bool:
    """Strict monotonicity of a scalar map sampled on a uniform grid."""
    grid = np.linspace(lo, hi, npoints)
    vals = h(grid)
    return bool(np.all(np.diff(vals) > 0))
