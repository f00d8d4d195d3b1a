"""Single-agent open-loop dynamics.

An agent is a SISO block-oriented system: a static nonlinearity f composed
with a linear difference equation given by monic-constant polynomials
C(z) = 1 + c_1 z + ... + c_p z^p and D(z) = 1 + d_1 z + ... + d_q z^q in the
backward shift. A "hammerstein" agent applies f first (v = f(u), then
C(z) y_{k+1} = D(z) v_k); a "wiener" agent applies it last
(C(z) v_{k+1} = D(z) u_k, then y = f(v)).

f is one of a closed catalog of polynomial forms, each held once as text
over u and its parameter names. emit_step writes the difference equation as
Python source, once, with that text in place of a call of f: it is the one
implementation, compiled for a row of plants by emit_steps into steps(plants)
(a loop over rows of inputs: step() is one row of one plant, and verify
replays a strided log's outputs through it) and into harness.run's round
kernel. A state-space companion realization is provided purely as a
cross-checking oracle; the two must agree to 1e-10 per step on any input.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial

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

    def __reduce__(self):  # a pickle (batch workers) compiles fn anew
        return make_nonlinearity, (self.name, self.params_dict())


# name -> (param names, sorted as params keeps them; f(u) as expression text
# over u and those names), and each entry's parameter values -> (u -> f(u))
# compiled from that text. Closed catalog: no text from outside is evaluated.
_CATALOG: dict[str, tuple[tuple[str, ...], str]] = {
    "identity": ((), "u"),
    "affine": (("beta", "gamma"), "beta * u + gamma"),
    "cubic_affine": (("alpha", "beta", "gamma"), "alpha * u ** 3 + beta * u + gamma"),
    "shifted_cube": (("gamma",), "(u - gamma) ** 3"),
}

_EVALUATORS = {name: eval(f"lambda {', '.join(wanted)}: lambda u: {text}")
               for name, (wanted, text) in _CATALOG.items()}


def make_nonlinearity(name: str, params: dict) -> Nonlinearity:
    if name not in _CATALOG:
        raise ValidationError(
            f"unknown nonlinearity {name!r}; known: {sorted(_CATALOG)}")
    wanted = _CATALOG[name][0]
    if set(params) != set(wanted):
        raise ValidationError(
            f"nonlinearity {name!r} takes params {sorted(wanted)}, got {sorted(params)}")
    vals = [float(params[k]) for k in wanted]
    if not all(np.isfinite(v) for v in vals):
        raise ValidationError(f"non-finite parameter for nonlinearity {name!r}")
    return Nonlinearity(name=name, params=tuple(zip(wanted, vals)),
                        fn=_EVALUATORS[name](*vals))


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


def step_parts(plant: AgentPlant) -> tuple[tuple, tuple]:
    """(shape, values) of the plant's step. The shape is what its source
    depends on: (kind, f's catalog name, number of C terms, number of D
    terms, length of the C history, of the D history), a term being summed
    as far as both the tail and its history reach. The values are what it
    binds: f's parameter values, those terms' coefficients, and the
    histories C's and D's tails multiply, newest first: (y, v) for a
    hammerstein plant, (v, u) for a wiener one."""
    c_hist, d_hist = ((plant.y_hist, plant.v_hist) if plant.kind == HAMMERSTEIN
                      else (plant.v_hist, plant.u_hist))
    n_c, n_d = min(plant.C.degree, len(c_hist)), min(plant.D.degree, len(d_hist))
    return ((plant.kind, plant.f.name, n_c, n_d, len(c_hist), len(d_hist)),
            (tuple(x for _, x in plant.f.params), plant.C.tail[:n_c], plant.D.tail[:n_d],
             c_hist, d_hist))


def step_names(shape: tuple, i: int) -> tuple:
    """The local names emit_step uses for plant i: f's parameters, the C and
    D coefficients, and the C and D histories (newest first)."""
    _, name, n_c, n_d, len_c, len_d = shape
    return ([f"f{i:d}_{p}" for p in _CATALOG[name][0]],
            [f"c{i:d}_{s:d}" for s in range(1, n_c + 1)],
            [f"d{i:d}_{r:d}" for r in range(1, n_d + 1)],
            [f"ch{i:d}_{x:d}" for x in range(len_c)], [f"dh{i:d}_{x:d}" for x in range(len_d)])


def emit_step(shape: tuple, i: int) -> list:
    """Python source of one step of plant i, agent i + 1, of this shape: the
    one implementation of the difference equation (see emit_steps).

    hammerstein: v_k = f(u_k); y_{k+1} = -sum c_s y_{k+1-s} + v_k + sum d_r v_{k-r}
    wiener:      v_{k+1} = -sum c_s v_{k+1-s} + u_k + sum d_r u_{k-r}; y = f(v_{k+1})

    The lines read the input u{i}, the step k and the locals of step_names,
    write the output y{i} (and v{i}), and rotate the histories, newest
    first. f is its catalog text over the parameter locals, in place of a
    call. The -c terms are subtracted before the +d terms are added, in
    history order. An f that overflows (Python's ** raises OverflowError
    rather than return inf) records its input as over[i + 1] and outputs
    inf; the histories move as for any output, and emit_check finds it. The
    source holds only these names and integers (every index is formatted as
    one).
    """
    kind = shape[0]
    if kind not in (HAMMERSTEIN, WIENER):
        raise ValidationError(f"kind must be {HAMMERSTEIN!r} or {WIENER!r}, got {kind!r}")
    fp, cs, ds, ch, dh = step_names(shape, i)
    u, v, y = f"u{i:d}", f"v{i:d}", f"y{i:d}"

    def apply(out, x):
        names = dict(zip(_CATALOG[shape[1]][0], fp), u=x)
        expr = re.sub(r"[a-z_]\w*", lambda m: names[m.group()], _CATALOG[shape[1]][1])
        return ["try:", f"    {out} = {expr}", "except OverflowError:",
                f"    over[{i + 1:d}] = {x}", f"    {out} = inf"]

    def rotate(hist, new):
        return [f"{hist[x]} = {hist[x - 1] if x else new}" for x in reversed(range(len(hist)))]

    first, (c_new, d_new) = (v, (y, v)) if kind == HAMMERSTEIN else (u, (v, u))
    linear = "".join([first] + [f" - {c} * {h}" for c, h in zip(cs, ch)]
                     + [f" + {d} * {h}" for d, h in zip(ds, dh)])
    if kind == HAMMERSTEIN:
        lines = apply(v, u) + [f"{y} = {linear}"]
    else:
        lines = [f"{v} = {linear}"] + apply(y, v)
    return lines + rotate(ch, c_new) + rotate(dh, d_new)


def emit_check(count: int) -> list:
    """Python source testing the outputs of plants 0..count-1 at once: a float
    sum is finite only if every term is; only a sum that is not calls nonfinite.
    The sum is a balanced tree, so its depth is logarithmic in count."""
    terms = vy = [f"{c}{a:d}" for a in range(count) for c in "vy"]
    while len(terms) > 1:
        terms = [f"({a} + {b})" for a, b in zip(terms[::2], terms[1::2])] + terms[len(terms) & ~1:]
    return [f"if not isfinite{terms[0]}:", f"    nonfinite(k, over, {', '.join(vy)})"]


def emit_steps(shapes: tuple) -> list:
    """Python source of one row of steps, at step k, of plants of these
    shapes: emit_step for each, then one emit_check of all their outputs."""
    return [x for i, s in enumerate(shapes) for x in emit_step(s, i)] + emit_check(len(shapes))


def nonfinite(step: int, over: dict, *vy) -> None:
    """Raise NonFiniteValue at step and the first agent of vy = (v0, y0, v1,
    y1, ...) whose f overflowed (over maps the agent to f's input) or whose v
    or y is not finite. Return if there is none: a sum of finite values
    overflowed."""
    for a, (v, y) in enumerate(zip(vy[::2], vy[1::2]), start=1):
        if a in over:
            raise NonFiniteValue(f"nonlinearity overflows at {over[a]!r}", step, a)
        if not (math.isfinite(v) and math.isfinite(y)):
            raise NonFiniteValue(f"plant output left finite range (v={v!r}, y={y!r})", step, a)


def compile_steps(source: str, filename: str, name: str):
    """The function name that source defines, compiled under filename beside
    the names emit_steps reads: isfinite, nonfinite and inf."""
    namespace = {"isfinite": math.isfinite, "nonfinite": nonfinite, "inf": math.inf}
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]


@lru_cache(maxsize=64)
def _compiled_steps(shapes: tuple):
    """steps(k0, rows, parts), emit_steps in a loop over rows, for parts the
    plants' step_parts values; compiled once per tuple of shapes and process.
    Too many plants for CPython's compiler are a ValidationError."""
    names = [step_names(shape, i) for i, shape in enumerate(shapes)]
    us, ys = (", ".join(f"{c}{i:d}" for i in range(len(shapes))) for c in "uy")
    # the history lists are read once and written back in place as the last
    # row left them, also when it raised
    store = [f"parts[{i:d}][{j:d}][:] = {', '.join(x[j])}," for i, x in enumerate(names)
             for j in (3, 4) if x[j]]
    src = ["def steps(k0, rows, parts):",
           *["    " + ", ".join(f"[{', '.join(p)}]" for p in x) + f" = parts[{i:d}]"
             for i, x in enumerate(names)],
           "    out, over = [], {}",
           "    try:",
           f"        for k, [{us}] in enumerate(rows, k0 + 1):",
           *["            " + x for x in emit_steps(shapes)],
           f"            out += {ys},",
           "    finally:",
           *["        " + x for x in store or ["pass"]],
           "    return out"]
    try:
        return compile_steps("\n".join(src) + "\n", "<steps>", "steps")
    except (RecursionError, MemoryError) as e:
        raise ValidationError(f"the plant steps of {len(shapes)} agents do not compile "
                              f"({type(e).__name__})") from None


def steps(plants: list):
    """The plants' loop f(k0, rows) -> their outputs, row after row in one
    list, each row one input per plant at steps k0 + 1, k0 + 2, ... f keeps
    the plants' history lists as their state, newest first. An f that
    overflows, or a v or y that is not finite, raises NonFiniteValue at its
    (step, agent) after the whole row's histories moved."""
    shapes, values = zip(*map(step_parts, plants))
    return partial(_compiled_steps(shapes), parts=values)


def step(plant: AgentPlant, u: float) -> float:
    """Advance one step under input u, returning the next output (see steps)."""
    return steps([plant])(0, [(u,)])[0]


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

    Degree 0 is vacuously stable. p is stable when every root rho of the
    monic z^d p(1/z) (np.roots, which divides by its leading 1 only) has
    |rho| (1 + tol) < 1; p's roots are reported as 1/rho for rho != 0.
    """
    if p.degree == 0:
        return StabilityReport(stable=True, roots=())
    try:
        rho = np.roots(p.coeffs)
    except np.linalg.LinAlgError as e:
        raise RootSolverFailure(f"root extraction failed for {p.coeffs!r}: {e}")
    if not np.all(np.isfinite(rho)):
        raise RootSolverFailure(f"non-finite roots for {p.coeffs!r}")
    stable = bool(np.all(np.abs(rho) * (1.0 + tol) < 1.0))
    with np.errstate(over="ignore"):
        roots = 1.0 / rho[rho != 0]
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


def _sign(x: float) -> int:
    return (x > 0) - (x < 0)


# each catalog entry's rule for a strictly increasing h, from s, the sign of
# r = D(1)/C(1), and p, f's parameters (see gain_increases)
_INCREASING = {
    "identity": lambda s, p: s > 0,
    "affine": lambda s, p: s != 0 and _sign(p["beta"]) == s,
    "cubic_affine": lambda s, p: (s != 0 and _sign(p["alpha"]) in (0, s)
                                  and _sign(p["beta"]) in (0, s)
                                  and (p["alpha"] != 0 or p["beta"] != 0)),
    "shifted_cube": lambda s, p: s > 0,
}


def gain_increases(plant: AgentPlant) -> bool:
    """Whether the plant's static gain h is strictly increasing, decided
    exactly from signs.

    h is r f(u) (hammerstein) or f(r u) (wiener), r = D(1)/C(1) the gain's
    own float, so h' is r f' at u or at r u: h is strictly increasing iff
    r f' >= 0 everywhere and r f' vanishes on no interval. For the catalog:
    identity (f' = 1) and shifted_cube (f' = 3 (u - gamma)^2) need r > 0;
    affine (f' = beta) needs r and beta of one sign; cubic_affine
    (f' = 3 alpha u^2 + beta) needs alpha and beta each zero or of r's sign,
    and not both zero. Signs are compared, never products, so no underflow
    decides; an r that is not finite is no gain.
    """
    gain = static_gain(plant)
    r = gain.d / gain.c
    return math.isfinite(r) and _INCREASING[plant.f.name](_sign(r), plant.f.params_dict())


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
    y = steps([plant.copy()])(0, [(u,)] * horizon)[-1]
    return abs(y - gain.h(u)) < tol
