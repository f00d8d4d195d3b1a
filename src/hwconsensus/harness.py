"""Scenario configuration, the synchronous simulation loop, and persistence.

A scenario bundles a topology, per-agent plants, the controller constants,
and a noise spec. Runs are deterministic functions of (scenario, seed): one
round applies every agent's current input to its plant, exchanges noisy
output observations and truncation counts as a snapshot, then advances every
controller. The complete per-round record goes into a TrajectoryLog.

File layout of a saved run directory:
  trajectory.csv  k,agent,u,sigma,sigma_prime,u_prime,y_next,O_next
                  one row per step k, agents 1..n within each step
  edges.csv       k,i,j,z,eps            (observer i, observed j)
                  logged steps only, each with its pairs in directed_pairs order
  summary.json    headline numbers, a function of the log; null if not finite
  meta.json       horizon (rows written), seed, scenario and its hash
Floats are written with repr() so reading them back is value-exact. save_run
writes the one row order above and load_run accepts no other.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
import warnings
from array import array
from contextlib import contextmanager
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
    stepper,
)

VERIFY_MAX_HORIZON = 200_000  # stride-1 logging refuses longer runs
LOG_COLUMNS = ("u", "sigma", "sigma_prime", "u_prime", "y_next", "O_next", "z", "eps")
NOISE_BLOCK_STEPS = 1024  # noise rows turned into Python floats at a time by run


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


@contextmanager
def _section(where: str):
    """Raise a TypeError or ValueError of the block as a ValidationError naming where."""
    try:
        yield
    except (TypeError, ValueError) as e:  # a ValidationError is a ValueError too
        raise ValidationError(f"{where}: {e}") from None


def scenario_from_dict(doc: dict) -> Scenario:
    _require_keys(doc, ("label", "horizon", "topology", "agents", "controller", "noise"),
                  optional=("log_stride",))
    label = doc["label"]
    if not isinstance(label, str):
        raise ValidationError(f"label must be a string, got {label!r}")
    horizon, stride = doc["horizon"], doc.get("log_stride", 1)
    for name, value in (("horizon", horizon), ("log_stride", stride)):
        # JSON true is a Python int equal to 1: only an int is a count
        if type(value) is not int or value < 1:
            raise ValidationError(f"{name} must be a positive integer, got {value!r}")

    agents = []
    if not isinstance(doc["agents"], list) or len(doc["agents"]) < 2:
        raise ValidationError("agents must be a list of at least 2 entries")
    for idx, a in enumerate(doc["agents"], start=1):
        _require_keys(a, ("kind", "C", "D", "f"), where=f"agents[{idx}]")
        _require_keys(a["f"], ("name", "params"), where=f"agents[{idx}].f")
        with _section(f"agents[{idx}]"):
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

    with _section("topology"):
        topo = build_topology(n, [tuple(e) for e in doc["topology"]])

    c = doc["controller"]
    _require_keys(c, ("u_star", "c_M"), optional=("initial_u",), where="controller")
    with _section("controller"):
        u_star = tuple(float(x) for x in c["u_star"])
        initial = c.get("initial_u")
        initial_u = u_star if initial is None else tuple(float(x) for x in initial)
        c_M = float(c["c_M"])
    if len(u_star) != n:
        raise ValidationError(f"u_star has {len(u_star)} entries for {n} agents")
    if len(initial_u) != n:
        raise ValidationError(f"initial_u has {len(initial_u)} entries for {n} agents")
    if not all(math.isfinite(x) for x in u_star + initial_u):
        raise ValidationError("u_star and initial_u must be finite")

    nz = doc["noise"]
    _require_keys(nz, ("dist", "params", "seed"), where="noise")
    with _section("noise"):
        spec = make_noise_spec(nz["dist"], nz["params"], nz["seed"])

    return Scenario(label=label, horizon=horizon, log_stride=stride,
                    topology=topo, agents=tuple(agents),
                    controller=ControllerSpec(u_star=u_star, c_M=c_M, initial_u=initial_u),
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

    Checks: a horizon and a log stride of at least 1, a finite positive c_M,
    connected topology, every C stable with margin 1e-9, every static gain
    strictly increasing on a sampled grid, reset points strictly inside the
    base truncation bound, and the stride-1 logging cap.
    """
    for name, value in (("horizon", s.horizon), ("log_stride", s.log_stride)):
        if value < 1:
            raise ValidationError(f"{name} must be at least 1, got {value!r}")
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
    # Schedule rejects a c_M that is not finite and positive; bound(0) = ln(c_M)
    m0 = Schedule(c_M=s.controller.c_M).bound(0)
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
    wall_time: float


def directed_pairs(t: Topology) -> list:
    return sorted((i, j) for i in range(1, t.n + 1) for j in t.neighbors(i))


def _new_log(s: Scenario, seed: int, columns: dict) -> analysis.TrajectoryLog:
    """The log of a run of s under the noise seed, from its LOG_COLUMNS arrays."""
    return analysis.TrajectoryLog(
        log_stride=s.log_stride, pairs=directed_pairs(s.topology), **columns,
        u_star=np.array(s.controller.u_star), c_M=s.controller.c_M,
        scenario_hash=scenario_hash(s), seed=seed)


def summarize(log: analysis.TrajectoryLog, gains, lap) -> dict:
    """Headline numbers, a function of the log (at least one row) alone."""
    fired = np.count_nonzero(log.sigma[1:] == log.sigma_prime[:-1] + 1, axis=0).tolist()
    last_y = log.y_next[log.logged_rows[-1]]
    # a diverged run's residual or spread overflows; it is reported as null,
    # as JSON has no inf
    with np.errstate(over="ignore", invalid="ignore"):
        h_last = np.array([g(x) for g, x in zip(gains, log.u[-1])])
        res = float(np.max(np.abs(lap.L @ h_last)))
        spread = float(last_y.max() - last_y.min())
    return {
        "final_spread": spread if math.isfinite(spread) else None,
        "final_residual": res if math.isfinite(res) else None,
        "total_truncations": fired,
        "sigma_bar_final": int(log.sigma_bar[-1]),
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
    gains = s.gains()

    if initial_plants is None:
        plants = [a.build() for a in s.agents]
    else:
        if len(initial_plants) != n:
            raise ValidationError(
                f"initial_plants has {len(initial_plants)} entries for {n} agents")
        plants = [p.copy() for p in initial_plants]
    steps = [stepper(p) for p in plants]
    sched = Schedule(c_M=s.controller.c_M)
    u = list(s.controller.initial_u)
    sigma = [0] * n
    u_star = list(s.controller.u_star)
    nbrs = analysis.neighbour_columns(topo, pairs)
    eps = np.column_stack([stream_for(nz, i, j, topo).draw(K) for (i, j) in pairs])
    # the noise rows as Python floats, converted one block of steps at a time
    eps_rows = (row for a in range(0, K, NOISE_BLOCK_STEPS)
                for row in eps[a:a + NOISE_BLOCK_STEPS].tolist())

    # the loop keeps what only it knows: u and sigma on every step, y on the
    # logged steps; the other log columns are derived from them afterwards
    u_buf, sigma_buf, y_buf = array("d"), array("q"), array("d")

    def make_log() -> analysis.TrajectoryLog:
        rows = len(u_buf) // n
        u_col = np.frombuffer(u_buf).reshape(rows, n)
        sigma_col = np.frombuffer(sigma_buf, dtype=np.int64).reshape(rows, n)
        y = np.frombuffer(y_buf).reshape(-1, n)
        # a view of the logged rows' noise, not a copy
        return _new_log(s, seed, {"u": u_col, "sigma": sigma_col, **analysis.round_columns(
            u_col, sigma_col, y, eps[:rows:stride], nbrs, np.array(u_star), stride)})

    for k, e_row in zip(range(1, K + 1), eps_rows):
        ys = []
        try:
            for plant_step, x in zip(steps, u):
                ys.append(plant_step(x))
        except NonFiniteValue as e:
            err = NonFiniteValue(str(e), step=k, agent=len(ys) + 1)
            partial = make_log()
            err.partial = RunResult(scenario=s, seed=seed, log=partial,
                                    summary=summarize(partial, gains, lap)
                                    if k > 1 else {"aborted_at": k},
                                    wall_time=time.perf_counter() - t0)
            raise err from e
        # the round's starting u and sigma are logged before advance overwrites them
        u_buf.fromlist(u)
        sigma_buf.fromlist(sigma)
        if not (k - 1) % stride:
            y_buf.fromlist(ys)
        advance(u, sigma, ys, e_row, nbrs, u_star, k, sched)

    log = make_log()
    return RunResult(scenario=s, seed=seed, log=log, summary=summarize(log, gains, lap),
                     wall_time=time.perf_counter() - t0)


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

# Steps formatted per write: the writer never holds more than this many
# steps' rows as strings, whatever the horizon.
SAVE_BLOCK_STEPS = 1024

# The two log files, one record per line: k, then the key fields that name
# the grid column (agent, or the directed edge i, j), then the values.
TRAJECTORY_FIELDS = np.dtype([
    ("k", np.int64), ("agent", np.int64), ("u", np.float64), ("sigma", np.int64),
    ("sigma_prime", np.int64), ("u_prime", np.float64), ("y_next", np.float64),
    ("O_next", np.float64)])
EDGE_FIELDS = np.dtype([("k", np.int64), ("i", np.int64), ("j", np.int64),
                        ("z", np.float64), ("eps", np.float64)])


def format_cells(values, blank_nan: bool = False) -> list:
    """repr() of every entry of an array in row-major order, NaN as '' if blank_nan.

    With blank_nan, repr runs only on the entries that are not NaN. An
    integer array whose values span no more numbers than it has entries (the
    counts) takes each cell from a table with one repr per number in the span.
    """
    values = np.asarray(values).ravel()
    if values.dtype.kind == "i" and len(values):
        lo, hi = int(values.min()), int(values.max())
        if hi - lo < len(values):
            table = np.array(list(map(repr, range(lo, hi + 1))), dtype=object)
            return table[values - lo].tolist()
    if not blank_nan:
        return list(map(repr, values.tolist()))
    cells = [""] * len(values)
    _fill_cells(cells, values, np.flatnonzero(~np.isnan(values)))
    return cells


def _fill_cells(cells: list, values: np.ndarray, idx: np.ndarray) -> None:
    """cells[x] = repr(values[x]) for each x in idx (values flat)."""
    for x, cell in zip(idx.tolist(), map(repr, values[idx].tolist())):
        cells[x] = cell


def _step_cells(steps, width: int) -> list:
    """repr() of each step, each repeated width times: the k column."""
    return [cell for cell in map(repr, steps) for _ in range(width)]


def write_csv(path: str, header: str, blocks) -> None:
    """Write the header, then a row per position of each block's cell columns."""
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for columns in blocks:
            rows = list(map(",".join, zip(*columns)))
            if rows:
                fh.write("\n".join(rows) + "\n")


def _trajectory_blocks(log: analysis.TrajectoryLog):
    K, n = log.u.shape
    agents = format_cells(np.arange(1, n + 1))
    for a in range(0, K, SAVE_BLOCK_STEPS):
        b = min(a + SAVE_BLOCK_STEPS, K)
        u, u_prime = log.u[a:b].ravel(), log.u_prime[a:b].ravel()
        u_cells = format_cells(u)
        # u' is u itself on every round without a restart; repr depends only
        # on the bits, so a bit-equal cell is copied, not formatted again
        up_cells = list(u_cells)
        _fill_cells(up_cells, u_prime,
                    np.flatnonzero(u_prime.view(np.int64) != u.view(np.int64)))
        yield (_step_cells(range(a + 1, b + 1), n), agents * (b - a), u_cells,
               format_cells(log.sigma[a:b]), format_cells(log.sigma_prime[a:b]), up_cells,
               format_cells(log.y_next[a:b], blank_nan=True),
               format_cells(log.O_next[a:b], blank_nan=True))


def _edge_blocks(log: analysis.TrajectoryLog):
    m = len(log.pairs)
    observers = format_cells([i for i, _ in log.pairs])
    observed = format_cells([j for _, j in log.pairs])
    # steps off the stride have no observations and no rows
    steps = log.logged_rows
    for a in range(0, len(steps), SAVE_BLOCK_STEPS):
        rows = steps[a:a + SAVE_BLOCK_STEPS]
        yield (_step_cells((rows + 1).tolist(), m), observers * len(rows),
               observed * len(rows), format_cells(log.z[rows]), format_cells(log.eps[rows]))


def save_run(result: RunResult, outdir: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    log = result.log
    write_csv(os.path.join(outdir, "trajectory.csv"), ",".join(TRAJECTORY_FIELDS.names),
              _trajectory_blocks(log))
    write_csv(os.path.join(outdir, "edges.csv"), ",".join(EDGE_FIELDS.names),
              _edge_blocks(log))

    write_json(os.path.join(outdir, "summary.json"),
               {"label": result.scenario.label, "seed": result.seed, **result.summary})
    write_json(os.path.join(outdir, "meta.json"),
               {"horizon": log.horizon, "seed": result.seed,
                "scenario_hash": log.scenario_hash,
                "scenario": scenario_to_dict(result.scenario)})


def write_json(path: str, doc: dict) -> None:
    """doc as indented strict JSON, a non-finite float value written as null."""
    doc = {key: None if isinstance(value, float) and not math.isfinite(value) else value
           for key, value in doc.items()}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, allow_nan=False)
        fh.write("\n")


def _float_or_nan(text: str) -> float:
    # strided logs leave the output cells of steps off the stride blank
    return float(text) if text else math.nan


def _int64(text: str) -> int:
    value = int(text)
    if not -2 ** 63 <= value < 2 ** 63:
        raise ValueError(f"{text!r} does not fit in 64 bits")
    return value


def _count_lines(fh) -> int:
    lines, last = 0, "\n"
    for chunk in iter(lambda: fh.read(1 << 20), ""):
        lines += chunk.count("\n")
        last = chunk[-1]
    return lines + (last != "\n")


def _convert_lines(fh, fields: np.dtype, kinds: list):
    """The records before the first line int() and float() do not convert and
    (its index, reason), or every record and None."""
    rows = []
    for idx, line in enumerate(fh):
        parts = line.rstrip("\n").split(",")
        try:
            if len(parts) != len(kinds):
                raise ValueError(f"{len(parts)} fields, expected {len(kinds)}")
            # numpy's parser, unlike int() and float(), rejects '1_0' and non-ASCII digits
            for part in parts:
                if "_" in part or not part.isascii():
                    raise ValueError(f"{part!r} is not a plain ASCII number")
            rows.append(tuple(kind(part) for kind, part in zip(kinds, parts)))
        except ValueError as e:
            return np.array(rows, fields), (idx, str(e))
    return np.array(rows, fields), None


def _describe(keys: list, x: int) -> str:
    k, *cell = (int(v[x]) for v in keys)
    return f"step {k}, " + (f"agent {cell[0]}" if len(cell) == 1 else f"edge {tuple(cell)}")


def _read_log(path: str, fields: np.dtype, K: int, rows: np.ndarray, cells: list,
              blank=()) -> dict:
    """Read one log CSV in the one row order save_run writes.

    For each grid row r of `rows` in turn, one record of `fields` per entry of
    `cells`: k = r + 1, the cell's key fields (agent, or the edge i, j), the
    values; fields named in `blank` read an empty cell as NaN. The first line
    that does not convert or whose key differs, an extra line or a missing
    one raises IncompleteLog naming the file and the line or row. Returns
    one (K, len(cells)) grid per value field, NaN or 0 off `rows`.
    """
    name = os.path.basename(path)
    converters = {fields.names.index(f): _float_or_nan for f in blank}
    with open(path, encoding="utf-8") as fh:
        try:
            got = fh.readline().rstrip("\n")
            start = fh.tell()
            # decodes the whole file, so the reads below cannot fail to decode
            lines = _count_lines(fh)
        except UnicodeDecodeError as e:
            raise IncompleteLog(f"{name}: not UTF-8 text: {e}") from None
        if got != ",".join(fields.names):
            raise IncompleteLog(f"{name}: unexpected header {got!r}")
        fh.seek(start)
        try:
            # numpy 1.x reads an int field that int() rejects ('3.5', '1e1',
            # one beyond int64) through float with only a DeprecationWarning;
            # raised as an error, it sends the file to the line-by-line path
            with warnings.catch_warnings():
                warnings.simplefilter("error", DeprecationWarning)
                rec = (np.loadtxt(fh, fields, delimiter=",", comments=None,
                                  converters=converters, ndmin=1)
                       if lines else np.empty(0, fields))
            failure = (None if len(rec) == lines
                       else f"{name}: numpy read {len(rec)} of {lines} lines")
        except (ValueError, DeprecationWarning) as e:
            failure = f"{name}: {e}"
        if failure:
            # locate the first line int() and float() do not convert; with
            # none, numpy's message stands
            kinds = [converters.get(c, _int64 if fields[c].kind == "i" else float)
                     for c in range(len(fields))]
            fh.seek(start)
            rec, located = _convert_lines(fh, fields, kinds)
            if located:
                failure = f"{name} line {located[0] + 2}: {located[1]}"

    width = len(cells)
    want = [np.repeat(rows + 1, width),
            *(np.tile(key, len(rows)) for key in np.array(cells).T)]
    have = [rec[f] for f in fields.names[:len(want)]]
    common = min(len(rec), len(want[0]))
    differ = np.zeros(common, dtype=bool)
    for got, expected in zip(have, want):
        differ |= got[:common] != expected[:common]
    x = int(np.argmax(differ)) if differ.any() else common
    if x < len(rec):  # a key that differs, or a line after the last expected
        where = (f"where {_describe(want, x)} belongs" if x < len(want[0])
                 else "after the last logged step")
        raise IncompleteLog(f"{name} line {x + 2}: {_describe(have, x)} {where}")
    if failure:
        raise IncompleteLog(failure)
    if len(rec) < len(want[0]):
        raise IncompleteLog(f"{name}: no row for {_describe(want, len(rec))}")

    grids = {f: np.full((K, width), np.nan if fields[f].kind == "f" else 0, fields[f])
             for f in fields.names[len(want):]}
    for f, grid in grids.items():
        grid[rows] = rec[f].reshape(len(rows), width)
    return grids


def load_run(rundir: str):
    """Read a saved run back as (TrajectoryLog, Scenario).

    Raises IncompleteLog, with the file and the line or row, for a meta.json
    that is not a JSON object with every key it reads (others are ignored),
    whose embedded scenario is invalid or does not match its scenario_hash,
    whose horizon is not a step count from 1 to the scenario's or whose seed
    is not an integer, and for log files that are not the rows save_run
    writes in its order. A missing meta.json or log file raises FileNotFoundError.
    """
    with open(os.path.join(rundir, "meta.json")) as fh:
        try:
            meta = json.load(fh)
        except ValueError as e:
            raise IncompleteLog(f"meta.json is not valid JSON: {e}") from None
    if not isinstance(meta, dict):
        raise IncompleteLog(f"meta.json holds a {type(meta).__name__}, not an object")
    missing = {"horizon", "seed", "scenario_hash", "scenario"} - set(meta)
    if missing:
        raise IncompleteLog(f"meta.json lacks {sorted(missing)}")
    try:
        s = scenario_from_dict(meta["scenario"])
    except ValidationError as e:
        raise IncompleteLog(f"meta.json: invalid scenario: {e}") from None
    if scenario_hash(s) != meta["scenario_hash"]:
        raise IncompleteLog("meta.json: the embedded scenario does not match its "
                            f"scenario_hash {meta['scenario_hash']!r}")
    K, seed = meta["horizon"], meta["seed"]
    # JSON true is a Python int equal to 1: only an int is a count or a seed
    if not (type(K) is int and 1 <= K <= s.horizon):
        raise IncompleteLog(f"meta.json: horizon {K!r} is not a step count from 1 "
                            f"to the scenario's {s.horizon}")
    if type(seed) is not int:
        raise IncompleteLog(f"meta.json: seed {seed!r} is not an integer")
    cols = _read_log(os.path.join(rundir, "trajectory.csv"), TRAJECTORY_FIELDS, K,
                     np.arange(K), [(i,) for i in range(1, s.n + 1)],
                     blank=("y_next", "O_next"))
    cols.update(_read_log(os.path.join(rundir, "edges.csv"), EDGE_FIELDS, K,
                          analysis.logged_rows(K, s.log_stride), directed_pairs(s.topology)))
    return _new_log(s, seed, cols), s
