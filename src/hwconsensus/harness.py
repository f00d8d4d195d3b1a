"""Scenario configuration, the synchronous simulation loop, and persistence.

A scenario bundles a topology, per-agent plants, the controller constants,
and a noise spec. Runs are deterministic functions of (scenario, seed): one
round applies every agent's current input to its plant, exchanges noisy
output observations and truncation counts as a snapshot, then advances every
controller. The complete per-round record goes into a TrajectoryLog.

File layout of a saved run directory:
  trajectory.csv  k,agent,u,sigma,sigma_prime,u_prime,y_next,O_next
  edges.csv       k,i,j,z,eps            (observer i, observed j)
  summary.json    headline numbers, recomputable from the log
  meta.json       label, horizon, stride, seed, scenario and its hash
Floats are written with repr() so reading them back is value-exact.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
import warnings
from array import array
from dataclasses import dataclass, replace

import numpy as np

from . import analysis
from .controller import Schedule, advance
from .errors import IncompleteLog, NonFiniteValue, ValidationError
from .graph import Topology, build_topology, is_connected, laplacian
from .noise import NoiseSpec, make_noise_spec, stream_for
from .plant import (
    HAMMERSTEIN,
    WIENER,
    AgentPlant,
    Nonlinearity,
    Polynomial,
    check_stability,
    is_strictly_increasing,
    make_nonlinearity,
    make_plant,
    poly,
    static_gain,
    step,
)

VERIFY_MAX_HORIZON = 200_000  # stride-1 logging refuses longer runs
LOG_COLUMNS = ("u", "sigma", "sigma_prime", "u_prime", "y_next", "O_next", "z", "eps")


@dataclass(frozen=True)
class AgentSpec:
    kind: str
    C: Polynomial
    D: Polynomial
    f: Nonlinearity

    def build(self) -> AgentPlant:
        return make_plant(self.kind, self.C, self.D, self.f)


@dataclass(frozen=True)
class ControllerSpec:
    u_star: tuple
    c_M: float
    initial_u: tuple


@dataclass(frozen=True)
class Scenario:
    label: str
    horizon: int
    log_stride: int
    topology: Topology
    agents: tuple
    controller: ControllerSpec
    noise: NoiseSpec

    @property
    def n(self) -> int:
        return len(self.agents)

    def gains(self):
        return [static_gain(a.build()) for a in self.agents]


# ---------------------------------------------------------------------------
# dict / JSON round trip

def _require_keys(d: dict, required, optional=(), where="scenario"):
    if not isinstance(d, dict):
        raise ValidationError(f"{where} must be an object, got {type(d).__name__}")
    unknown = set(d) - set(required) - set(optional)
    if unknown:
        raise ValidationError(f"unknown key(s) {sorted(unknown)} in {where}")
    missing = set(required) - set(d)
    if missing:
        raise ValidationError(f"missing key(s) {sorted(missing)} in {where}")


def scenario_from_dict(doc: dict) -> Scenario:
    _require_keys(doc, ("label", "horizon", "topology", "agents", "controller", "noise"),
                  optional=("log_stride",))
    label = str(doc["label"])
    horizon = doc["horizon"]
    if not isinstance(horizon, int) or horizon < 1:
        raise ValidationError(f"horizon must be a positive integer, got {horizon!r}")
    stride = doc.get("log_stride", 1)
    if not isinstance(stride, int) or stride < 1:
        raise ValidationError(f"log_stride must be a positive integer, got {stride!r}")

    agents = []
    if not isinstance(doc["agents"], list) or len(doc["agents"]) < 2:
        raise ValidationError("agents must be a list of at least 2 entries")
    for idx, a in enumerate(doc["agents"], start=1):
        _require_keys(a, ("kind", "C", "D", "f"), where=f"agents[{idx}]")
        _require_keys(a["f"], ("name", "params"), where=f"agents[{idx}].f")
        agents.append(AgentSpec(
            kind=a["kind"],
            C=poly(a["C"]),
            D=poly(a["D"]),
            f=make_nonlinearity(a["f"]["name"], a["f"]["params"]),
        ))
        if a["kind"] not in (HAMMERSTEIN, WIENER):
            raise ValidationError(
                f"agents[{idx}].kind must be {HAMMERSTEIN!r} or {WIENER!r}")
    n = len(agents)

    topo = build_topology(n, [tuple(e) for e in doc["topology"]])

    c = doc["controller"]
    _require_keys(c, ("u_star", "c_M"), optional=("initial_u",), where="controller")
    u_star = tuple(float(x) for x in c["u_star"])
    if len(u_star) != n:
        raise ValidationError(f"u_star has {len(u_star)} entries for {n} agents")
    initial = c.get("initial_u")
    initial_u = u_star if initial is None else tuple(float(x) for x in initial)
    if len(initial_u) != n:
        raise ValidationError(f"initial_u has {len(initial_u)} entries for {n} agents")
    if not all(math.isfinite(x) for x in u_star + initial_u):
        raise ValidationError("u_star and initial_u must be finite")

    nz = doc["noise"]
    _require_keys(nz, ("dist", "params", "seed"), where="noise")
    spec = make_noise_spec(nz["dist"], nz["params"], nz["seed"])

    return Scenario(label=label, horizon=horizon, log_stride=stride,
                    topology=topo, agents=tuple(agents),
                    controller=ControllerSpec(u_star=u_star, c_M=float(c["c_M"]),
                                              initial_u=initial_u),
                    noise=spec)


def scenario_to_dict(s: Scenario) -> dict:
    return {
        "label": s.label,
        "horizon": s.horizon,
        "log_stride": s.log_stride,
        "topology": [[i, j, w] for (i, j, w) in s.topology.edge_list()],
        "agents": [
            {"kind": a.kind, "C": list(a.C.coeffs), "D": list(a.D.coeffs),
             "f": {"name": a.f.name, "params": a.f.params_dict()}}
            for a in s.agents
        ],
        "controller": {"u_star": list(s.controller.u_star),
                       "c_M": s.controller.c_M,
                       "initial_u": list(s.controller.initial_u)},
        "noise": {"dist": s.noise.dist, "params": s.noise.params_dict(),
                  "seed": s.noise.seed},
    }


def scenario_hash(s: Scenario) -> str:
    blob = json.dumps(scenario_to_dict(s), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def load_scenario(path: str) -> Scenario:
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValidationError(f"scenario file {path} is not valid JSON: {e}")
    return scenario_from_dict(doc)


def validate_scenario(s: Scenario) -> None:
    """Reject scenarios outside the model class before any simulation.

    Checks: connected topology, every C stable with margin 1e-9, every
    static gain strictly increasing on a sampled grid, reset points strictly
    inside the base truncation bound, and the stride-1 logging cap.
    """
    if not is_connected(s.topology):
        raise ValidationError("topology is not connected")
    if s.topology.n != s.n:
        raise ValidationError("topology size differs from agent count")
    for idx, a in enumerate(s.agents, start=1):
        rep = check_stability(a.C, tol=1e-9)
        if not rep.stable:
            mods = sorted(abs(r) for r in rep.roots)
            raise ValidationError(
                f"agent {idx}: C has a root of modulus {mods[0]:.6f} inside the "
                f"stability margin")
        gain = static_gain(a.build())
        if not is_strictly_increasing(gain.h):
            raise ValidationError(f"agent {idx}: static gain is not strictly increasing")
    m0 = math.log(s.controller.c_M)
    worst = max(abs(x) for x in s.controller.u_star)
    if not worst < m0:
        raise ValidationError(
            f"ln(c_M) = {m0:.6f} must exceed max |u_star| = {worst:.6f}")
    if s.log_stride == 1 and s.horizon > VERIFY_MAX_HORIZON:
        raise ValidationError(
            f"stride-1 logging is capped at {VERIFY_MAX_HORIZON} steps; "
            f"use log_stride > 1 for horizon {s.horizon}")


# ---------------------------------------------------------------------------
# built-in scenarios

_BUILTIN_C = {
    1: [1, 0.2, 0.0, 0.6],
    2: [1, 0.6, 0.5, 0.4],
    3: [1, -0.15, 0.0, 0.5],
    4: [1, 0.76, 0.5, 0.6],
}
_BUILTIN_D = {
    1: [1, -0.3, -1.2],
    2: [1, -1.0, -2.0],
    3: [1, 0.2, -0.4],
    4: [1, 0.5],
}
_BUILTIN_F = {
    1: ("cubic_affine", {"alpha": -1.0, "beta": -1.0, "gamma": 0.0}),
    2: ("affine", {"beta": -2.0, "gamma": 1.0}),
    3: ("shifted_cube", {"gamma": 1.0}),
    4: ("cubic_affine", {"alpha": 1.0, "beta": 0.0, "gamma": 1.0}),
}
_BUILTIN_KINDS = {
    1: (HAMMERSTEIN,) * 4,
    2: (WIENER,) * 4,
    3: (WIENER, WIENER, HAMMERSTEIN, HAMMERSTEIN),
}
BUILTIN_EDGES = [(1, 2, 1.0), (1, 4, 1.0), (2, 3, 1.0), (2, 4, 1.0)]


def builtin_case(case: int, horizon: int = 100_000, seed: int = 1,
                 noise_off: bool = False, log_stride: int = 1) -> Scenario:
    """The three standard four-agent benchmark scenarios.

    Case 1: all hammerstein; case 2: all wiener; case 3: agents 1-2 wiener,
    3-4 hammerstein. Unit-weight square-with-chord topology, reset points
    (1,2,3,4), c_M = 55, all initial values zero, unit-variance gaussian
    observation noise on every directed edge.
    """
    if case not in (1, 2, 3):
        raise ValidationError(f"case must be 1, 2 or 3, got {case!r}")
    agents = tuple(
        AgentSpec(kind=_BUILTIN_KINDS[case][i - 1],
                  C=poly(_BUILTIN_C[i]), D=poly(_BUILTIN_D[i]),
                  f=make_nonlinearity(*_BUILTIN_F[i]))
        for i in (1, 2, 3, 4)
    )
    dist, params = ("zero", {}) if noise_off else ("gaussian", {"variance": 1.0})
    return Scenario(
        label=f"case{case}", horizon=horizon, log_stride=log_stride,
        topology=build_topology(4, BUILTIN_EDGES), agents=agents,
        controller=ControllerSpec(u_star=(1.0, 2.0, 3.0, 4.0), c_M=55.0,
                                  initial_u=(0.0, 0.0, 0.0, 0.0)),
        noise=make_noise_spec(dist, params, seed),
    )


# ---------------------------------------------------------------------------
# the loop

@dataclass
class RunResult:
    scenario: Scenario
    seed: int
    log: analysis.TrajectoryLog
    summary: dict


def directed_pairs(t: Topology) -> list:
    return sorted((i, j) for i in range(1, t.n + 1) for j in t.neighbors(i))


def summarize(log: analysis.TrajectoryLog, gains, lap, wall_time: float) -> dict:
    """Headline numbers; every field except wall_time derives from the log."""
    n = log.u.shape[1]
    fired = [0] * n
    for i in range(n):
        fired[i] = int(np.count_nonzero(
            log.sigma[1:, i] == log.sigma_prime[:-1, i] + 1))
    h_last = np.array([gains[i](log.u[-1, i]) for i in range(n)])
    res = float(np.max(np.abs(lap.L @ h_last)))
    spread = None
    full = ~np.isnan(log.y_next).any(axis=1)
    if full.any():
        last_y = log.y_next[np.nonzero(full)[0][-1]]
        spread = float(last_y.max() - last_y.min())
    return {
        "final_spread": spread,
        "final_residual": res,
        "total_truncations": fired,
        "sigma_bar_final": int(log.sigma_bar[-1]),
        "wall_time": wall_time,
    }


def run(s: Scenario, master_seed: int | None = None,
        initial_plants: list | None = None) -> RunResult:
    """Simulate one scenario to its horizon; deterministic in (s, seed).

    initial_plants overrides the zero-history plants (robustness tests); the
    caller's objects are copied, never mutated.
    """
    validate_scenario(s)
    t0 = time.perf_counter()
    seed = s.noise.seed if master_seed is None else int(master_seed)
    nz = replace(s.noise, seed=seed)

    n = s.n
    K = s.horizon
    stride = s.log_stride
    topo = s.topology
    lap = laplacian(topo)
    pairs = directed_pairs(topo)
    gains = [static_gain(a.build()) for a in s.agents]

    if initial_plants is None:
        plants = [a.build() for a in s.agents]
    else:
        if len(initial_plants) != n:
            raise ValidationError(
                f"initial_plants has {len(initial_plants)} entries for {n} agents")
        plants = [p.copy() for p in initial_plants]
    sched = Schedule(c_M=s.controller.c_M)
    u = list(s.controller.initial_u)
    sigma = [0] * n
    u_star = list(s.controller.u_star)
    col = {p: c for c, p in enumerate(pairs)}
    nbrs = [[(col[(i, j)], j - 1, topo.weight(i, j)) for j in topo.neighbors(i)]
            for i in range(1, n + 1)]
    observed = [j - 1 for _, j in pairs]
    eps = np.column_stack([stream_for(nz, i, j, topo).draw(K) for (i, j) in pairs])

    # rows go to flat buffers, one per log column, viewed as (rows, width)
    # arrays at the end
    m = len(pairs)
    bufs = [array("q" if name.startswith("sigma") else "d") for name in LOG_COLUMNS]
    widths = [m if name in ("z", "eps") else n for name in LOG_COLUMNS]
    nan_n, nan_m = [math.nan] * n, [math.nan] * m

    def make_log() -> analysis.TrajectoryLog:
        rows = len(bufs[0]) // n
        cols = {name: np.frombuffer(buf, dtype=buf.typecode).reshape(rows, w)
                for name, buf, w in zip(LOG_COLUMNS, bufs, widths)}
        return analysis.TrajectoryLog(
            n=n, horizon=rows, log_stride=stride, pairs=pairs, **cols,
            u_star=np.array(s.controller.u_star), c_M=s.controller.c_M,
            label=s.label, scenario_hash=scenario_hash(s), seed=seed)

    for k in range(1, K + 1):
        ys = []
        try:
            for p, x in zip(plants, u):
                ys.append(step(p, x))
        except NonFiniteValue as e:
            err = NonFiniteValue(str(e), step=k, agent=len(ys) + 1)
            partial = make_log()
            err.partial = RunResult(scenario=s, seed=seed, log=partial,
                                    summary=summarize(partial, gains, lap,
                                                      time.perf_counter() - t0)
                                    if k > 1 else {"aborted_at": k})
            raise err from e
        e_row = eps[k - 1].tolist()
        z = [ys[j] + x for j, x in zip(observed, e_row)]
        u0, sigma0 = u[:], sigma[:]
        sp, up, O = advance(u, sigma, ys, z, nbrs, u_star, k, sched)
        if (k - 1) % stride:
            # strided logs keep the estimate/count columns only
            ys = O = nan_n
            z = e_row = nan_m
        for buf, row in zip(bufs, (u0, sigma0, sp, up, ys, O, z, e_row)):
            buf.extend(row)

    log = make_log()
    return RunResult(scenario=s, seed=seed, log=log,
                     summary=summarize(log, gains, lap, time.perf_counter() - t0))


def batch(s: Scenario, seeds, workers: int = 1) -> list:
    """Independent runs over the given seeds, results in seed order."""
    seeds = list(seeds)
    if not seeds:
        raise ValidationError("batch needs at least one seed")
    if len(set(seeds)) != len(seeds):
        warnings.warn("duplicate seeds produce duplicate identical runs")
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        doc = scenario_to_dict(s)
        with ProcessPoolExecutor(max_workers=workers) as ex:
            return list(ex.map(_batch_worker, [(doc, sd) for sd in seeds]))
    return [run(s, sd) for sd in seeds]


def _batch_worker(args):
    doc, seed = args
    return run(scenario_from_dict(doc), seed)


# ---------------------------------------------------------------------------
# persistence

def save_run(result: RunResult, outdir: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    log = result.log
    K, n = log.u.shape

    U = log.u.tolist()
    S = log.sigma.tolist()
    SP = log.sigma_prime.tolist()
    UP = log.u_prime.tolist()
    Y = log.y_next.tolist()
    Ob = log.O_next.tolist()
    rows = ["k,agent,u,sigma,sigma_prime,u_prime,y_next,O_next"]
    for r in range(K):
        k = r + 1
        for i in range(n):
            y, O = Y[r][i], Ob[r][i]
            ys = repr(y) if y == y else ""
            Os = repr(O) if O == O else ""
            rows.append(f"{k},{i + 1},{U[r][i]!r},{S[r][i]},"
                        f"{SP[r][i]},{UP[r][i]!r},{ys},{Os}")
    with open(os.path.join(outdir, "trajectory.csv"), "w", newline="") as fh:
        fh.write("\n".join(rows) + "\n")

    Z = log.z.tolist()
    E = log.eps.tolist()
    rows = ["k,i,j,z,eps"]
    for r in range(K):
        zr = Z[r]
        if log.pairs and all(x != x for x in zr):
            continue
        k = r + 1
        for c, (i, j) in enumerate(log.pairs):
            rows.append(f"{k},{i},{j},{zr[c]!r},{E[r][c]!r}")
    with open(os.path.join(outdir, "edges.csv"), "w", newline="") as fh:
        fh.write("\n".join(rows) + "\n")

    with open(os.path.join(outdir, "summary.json"), "w") as fh:
        json.dump({"label": result.scenario.label, "seed": result.seed,
                   **result.summary}, fh, indent=2)
        fh.write("\n")

    meta = {
        "label": result.scenario.label,
        "horizon": log.horizon,
        "log_stride": log.log_stride,
        "seed": result.seed,
        "scenario_hash": log.scenario_hash,
        "scenario": scenario_to_dict(result.scenario),
    }
    with open(os.path.join(outdir, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")


def _read_cells(path: str, header: str, K: int, every: int, labels: list,
                locate, store) -> None:
    """Parse one log CSV whose rows each fill one cell of a K x len(labels) grid.

    locate(fields) -> (row, column) names a row's cell and store(row, column,
    fields) writes its values. Every cell on rows 0, every, 2*every, ...
    below K must be filled exactly once and no other cell at all; anything
    else -- a malformed row, a step out of range or off the stride, a
    repeated cell, a missing one -- raises IncompleteLog naming the file and
    the line or cell.
    """
    name = os.path.basename(path)
    width = len(labels)
    nfields = header.count(",") + 1
    seen = bytearray(K * width)
    with open(path) as fh:
        got = fh.readline().rstrip("\n")
        if got != header:
            raise IncompleteLog(f"{name}: unexpected header {got!r}")
        for lineno, line in enumerate(fh, start=2):
            try:
                parts = line.rstrip("\n").split(",")
                if len(parts) != nfields:
                    raise ValueError(f"{len(parts)} fields, expected {nfields}")
                r, c = locate(parts)
                if not (0 <= r < K and r % every == 0):
                    raise ValueError(f"step {r + 1} is not a logged step of 1..{K}")
                cell = r * width + c
                if seen[cell]:
                    raise ValueError(f"second row for step {r + 1}, {labels[c]}")
                seen[cell] = 1
                store(r, c, parts)
            except ValueError as e:
                raise IncompleteLog(f"{name} line {lineno}: {e}") from None
    missing = np.argwhere(np.frombuffer(seen, dtype=np.uint8).reshape(K, width)[::every] == 0)
    if len(missing):
        r, c = missing[0]
        raise IncompleteLog(f"{name}: no row for step {r * every + 1}, {labels[c]}")


def load_run(rundir: str):
    """Read a saved run back as (TrajectoryLog, Scenario).

    Raises IncompleteLog, with the file and the line or cell, for a meta.json
    whose embedded scenario does not match its scenario_hash and for log
    files with malformed, duplicated, missing or out-of-range rows.
    """
    meta_path = os.path.join(rundir, "meta.json")
    if not os.path.exists(meta_path):
        raise FileNotFoundError(f"no meta.json under {rundir}")
    with open(meta_path) as fh:
        meta = json.load(fh)
    missing = {"label", "horizon", "log_stride", "seed", "scenario_hash",
               "scenario"} - set(meta)
    if missing:
        raise IncompleteLog(f"meta.json lacks {sorted(missing)}")
    s = scenario_from_dict(meta["scenario"])
    if scenario_hash(s) != meta["scenario_hash"]:
        raise IncompleteLog("meta.json: the embedded scenario does not match its "
                            f"scenario_hash {meta['scenario_hash']!r}")
    K = meta["horizon"]
    stride = meta["log_stride"]
    if not (isinstance(K, int) and 0 <= K <= s.horizon and stride == s.log_stride):
        raise IncompleteLog(f"meta.json: horizon {K!r} and log_stride {stride!r} do "
                            f"not fit the scenario ({s.horizon}, {s.log_stride})")
    n = s.n
    pairs = directed_pairs(s.topology)
    col_of = {p: c for c, p in enumerate(pairs)}

    u = np.empty((K, n))
    sig = np.empty((K, n), dtype=np.int64)
    sigp = np.empty((K, n), dtype=np.int64)
    up = np.empty((K, n))
    y = np.full((K, n), np.nan)
    O = np.full((K, n), np.nan)

    def agent_cell(parts):
        i = int(parts[1])
        if not 1 <= i <= n:
            raise ValueError(f"agent {i} outside 1..{n}")
        return int(parts[0]) - 1, i - 1

    def store_agent(r, i, parts):
        u[r, i] = float(parts[2])
        sig[r, i] = int(parts[3])
        sigp[r, i] = int(parts[4])
        up[r, i] = float(parts[5])
        if parts[6]:
            y[r, i] = float(parts[6])
        if parts[7]:
            O[r, i] = float(parts[7])

    _read_cells(os.path.join(rundir, "trajectory.csv"),
                "k,agent,u,sigma,sigma_prime,u_prime,y_next,O_next", K, 1,
                [f"agent {i}" for i in range(1, n + 1)], agent_cell, store_agent)

    z = np.full((K, len(pairs)), np.nan)
    eps = np.full((K, len(pairs)), np.nan)

    def edge_cell(parts):
        p = (int(parts[1]), int(parts[2]))
        if p not in col_of:
            raise ValueError(f"{p} is not a directed edge of the scenario")
        return int(parts[0]) - 1, col_of[p]

    def store_edge(r, c, parts):
        z[r, c] = float(parts[3])
        eps[r, c] = float(parts[4])

    _read_cells(os.path.join(rundir, "edges.csv"), "k,i,j,z,eps", K, stride,
                [f"edge {p}" for p in pairs], edge_cell, store_edge)

    log = analysis.TrajectoryLog(
        n=n, horizon=K, log_stride=stride, pairs=pairs,
        u=u, sigma=sig, sigma_prime=sigp, u_prime=up, y_next=y, O_next=O,
        z=z, eps=eps, u_star=np.array(s.controller.u_star),
        c_M=s.controller.c_M, label=meta["label"],
        scenario_hash=meta["scenario_hash"], seed=meta["seed"])
    return log, s
