"""Scenario configuration, the synchronous simulation loop, and persistence.

A scenario bundles a topology, per-agent plants, the controller constants,
and a noise spec with its seed. Runs are deterministic functions of the
scenario: one round applies every agent's current input to its plant,
exchanges noisy output observations and truncation counts as a snapshot,
then advances every controller. The complete per-round record goes into a
TrajectoryLog.

File layout of a saved run directory:
  log.npz         what the round loop keeps, as npy arrays (np.savez,
                  uncompressed): u (K, n) float64 and sigma (K, n) int64 on
                  every step, y (L, n) and eps (L, m) float64 on the L logged
                  steps; load_run derives the other log columns from them
  summary.json    headline numbers, a function of the log; null if not finite
  meta.json       the scenario that ran (its noise seed included) and its hash,
                  and each array's dtype, shape and SHA-256; the shape of u
                  gives the rows written, K
csvout.export_csv writes a log as text (trajectory.csv and edges.csv)."""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import time
import tokenize
import warnings
import zipfile
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


@functools.lru_cache(maxsize=256)
def _agent_failure(a: AgentSpec) -> str | None:
    """Why an agent is outside the model class (C unstable, static gain not
    strictly increasing), or None. A spec is frozen, so each distinct one is
    checked once per process."""
    rep = check_stability(a.C, tol=1e-9)
    if not rep.stable:
        mods = sorted(abs(r) for r in rep.roots)
        return f"C has a root of modulus {mods[0]:.6f} inside the stability margin"
    if not is_strictly_increasing(static_gain(a.build()).h):
        return "static gain is not strictly increasing"
    return None


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
        failure = _agent_failure(a)
        if failure:
            raise ValidationError(f"agent {idx}: {failure}")
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
    scenario: Scenario  # the scenario that ran, its noise seed included
    log: analysis.TrajectoryLog
    summary: dict
    wall_time: float

    @property
    def seed(self) -> int:
        return self.scenario.noise.seed


def directed_pairs(t: Topology) -> list:
    return sorted((i, j) for i in range(1, t.n + 1) for j in t.neighbors(i))


def _new_log(s: Scenario, u: np.ndarray, sigma: np.ndarray, y: np.ndarray,
             eps: np.ndarray) -> analysis.TrajectoryLog:
    """The log of a run of s, from what its round loop keeps: u and sigma on
    every row, the outputs y and the noise eps on the logged rows. The other
    LOG_COLUMNS are derived by analysis.round_columns."""
    pairs = directed_pairs(s.topology)
    u_star = np.array(s.controller.u_star)
    return analysis.TrajectoryLog(
        log_stride=s.log_stride, pairs=pairs, u=u, sigma=sigma,
        **analysis.round_columns(u, sigma, y, eps, analysis.neighbour_columns(s.topology, pairs),
                                 u_star, s.log_stride),
        u_star=u_star, c_M=s.controller.c_M)


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
    """Simulate one scenario to its horizon; deterministic in s.

    master_seed, when given, replaces the scenario's noise seed, and the
    result carries the scenario with that seed. initial_plants overrides the
    zero-history plants (robustness tests); the caller's objects are copied,
    never mutated.
    """
    validate_scenario(s)
    t0 = time.perf_counter()
    if master_seed is not None:
        s = replace(s, noise=replace(s.noise, seed=int(master_seed)))

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
    eps = np.column_stack([stream_for(s.noise, i, j, topo).draw(K) for (i, j) in pairs])
    # the noise rows as Python floats, converted one block of steps at a time
    eps_rows = (row for a in range(0, K, NOISE_BLOCK_STEPS)
                for row in eps[a:a + NOISE_BLOCK_STEPS].tolist())

    # the loop keeps what only it knows: u and sigma on every step, y on the
    # logged steps; the other log columns are derived from them afterwards
    u_buf, sigma_buf, y_buf = array("d"), array("q"), array("d")

    def make_log() -> analysis.TrajectoryLog:
        rows = len(u_buf) // n
        # the logged rows' noise is a view, not a copy
        return _new_log(s, np.frombuffer(u_buf).reshape(rows, n),
                        np.frombuffer(sigma_buf, dtype=np.int64).reshape(rows, n),
                        np.frombuffer(y_buf).reshape(-1, n), eps[:rows:stride])

    for k, e_row in zip(range(1, K + 1), eps_rows):
        ys = []
        try:
            for plant_step, x in zip(steps, u):
                ys.append(plant_step(x))
        except NonFiniteValue as e:
            err = NonFiniteValue(str(e), step=k, agent=len(ys) + 1)
            partial = make_log()
            err.partial = RunResult(scenario=s, log=partial,
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
    return RunResult(scenario=s, log=log, summary=summarize(log, gains, lap),
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

LOG_FILE = "log.npz"

# what numpy and zipfile raise reading a corrupt archive: a bad zip structure
# or CRC-32, a zip feature or an encryption flag they do not support, a bad npy
# header or short data, a header claiming a shape larger than memory
_UNREADABLE = (zipfile.BadZipFile, NotImplementedError, RuntimeError, ValueError, OSError,
               EOFError, tokenize.TokenError, MemoryError)


def _stored_arrays(log: analysis.TrajectoryLog) -> dict:
    """What the round loop keeps of a run: the arrays of log.npz."""
    rows = log.logged_rows
    return {"u": log.u, "sigma": log.sigma, "y": log.y_next[rows], "eps": log.eps[rows]}


def _array_records(arrays: dict) -> dict:
    """Each array's dtype, shape and SHA-256 of its bytes, as meta.json records them."""
    return {name: {"dtype": a.dtype.str, "shape": list(a.shape),
                   "sha256": hashlib.sha256(np.ascontiguousarray(a)).hexdigest()}
            for name, a in arrays.items()}


def save_run(result: RunResult, outdir: str) -> None:
    os.makedirs(outdir, exist_ok=True)
    arrays = _stored_arrays(result.log)
    # np.savez writes fixed zip timestamps: a replayed run saves the same bytes
    np.savez(os.path.join(outdir, LOG_FILE), **arrays)
    write_json(os.path.join(outdir, "summary.json"), result.summary)
    write_json(os.path.join(outdir, "meta.json"),
               {"scenario_hash": scenario_hash(result.scenario),
                "scenario": scenario_to_dict(result.scenario),
                "arrays": _array_records(arrays)})


def write_json(path: str, doc: dict) -> None:
    """doc as indented strict JSON, a non-finite float value written as null."""
    doc = {key: None if isinstance(value, float) and not math.isfinite(value) else value
           for key, value in doc.items()}
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, allow_nan=False)
        fh.write("\n")


_NO_RECORD = "does not match its dtype, shape and SHA-256 in meta.json"


def _read_store(fh, s: Scenario, records) -> dict:
    """The arrays of an open log.npz of a run of s, checked in turn for the
    exact set of names, the dtypes, the shapes, then the records of meta.json.
    The rows K are the rows meta.json records for u, from 1 to s.horizon."""
    try:
        K = records["u"]["shape"][0]
    except (TypeError, KeyError, IndexError):
        raise IncompleteLog(f"{LOG_FILE}: array u {_NO_RECORD}") from None
    # JSON true is a Python int equal to 1: only an int is a count
    if not (type(K) is int and 1 <= K <= s.horizon):
        raise IncompleteLog(f"{LOG_FILE}: array u has {K!r} rows in meta.json, not a step "
                            f"count from 1 to the scenario's {s.horizon}")
    F, I = np.dtype(np.float64), np.dtype(np.int64)
    L, n, m = len(analysis.logged_rows(K, s.log_stride)), s.n, len(directed_pairs(s.topology))
    want = {"u": (F, (K, n)), "sigma": (I, (K, n)), "y": (F, (L, n)), "eps": (F, (L, m))}
    try:
        npz = np.load(fh, allow_pickle=False)
    except _UNREADABLE as e:
        raise IncompleteLog(f"{LOG_FILE} is not an npz archive: {e}") from None
    if not isinstance(npz, np.lib.npyio.NpzFile):
        raise IncompleteLog(f"{LOG_FILE} is not an npz archive: it holds one npy array")
    with npz:
        # the zip members, not npz.files: a member without .npy reads as bytes
        members, expected = sorted(npz.zip.namelist()), sorted(f"{name}.npy" for name in want)
        if members != expected:
            raise IncompleteLog(f"{LOG_FILE} holds {members}, expected {expected}")
        arrays = {}
        for name in want:
            try:
                arrays[name] = npz[name]
            except _UNREADABLE as e:
                raise IncompleteLog(f"{LOG_FILE}: array {name}: {e}") from None
            # a .npy member without the npy magic reads as bytes too
            if not isinstance(arrays[name], np.ndarray):
                raise IncompleteLog(f"{LOG_FILE}: array {name}: {name}.npy is not an npy file")
    for i, check in enumerate(("dtype", "shape")):
        for name, a in arrays.items():
            if getattr(a, check) != want[name][i]:
                raise IncompleteLog(f"{LOG_FILE}: array {name} has {check} "
                                    f"{getattr(a, check)}, expected {want[name][i]}")
    for name, record in _array_records(arrays).items():
        if records.get(name) != record:
            raise IncompleteLog(f"{LOG_FILE}: array {name} {_NO_RECORD}")
    return arrays


def load_run(rundir: str):
    """Read a saved run back as (TrajectoryLog, Scenario): the scenario that
    ran, its noise seed included, and the log built from the stored arrays as
    run builds it.

    Raises IncompleteLog, naming the file or the array, for a meta.json that
    is not a JSON object with every key it reads (others, such as the horizon
    and seed older run directories hold, are ignored), whose embedded
    scenario is invalid or does not match its scenario_hash, or whose record
    of u does not give a step count K from 1 to the scenario's horizon, and
    for a log.npz that is not an npz archive of exactly the arrays save_run
    writes, with their dtypes, the shapes of K rows of that scenario, and the
    dtypes, shapes and SHA-256 digests meta.json records.
    A missing meta.json or log.npz raises FileNotFoundError.
    """
    with open(os.path.join(rundir, "meta.json")) as fh, \
            open(os.path.join(rundir, LOG_FILE), "rb") as store:
        try:
            meta = json.load(fh)
        except ValueError as e:
            raise IncompleteLog(f"meta.json is not valid JSON: {e}") from None
        if not isinstance(meta, dict):
            raise IncompleteLog(f"meta.json holds a {type(meta).__name__}, not an object")
        missing = {"scenario_hash", "scenario", "arrays"} - set(meta)
        if missing:
            raise IncompleteLog(f"meta.json lacks {sorted(missing)}")
        try:
            s = scenario_from_dict(meta["scenario"])
        except ValidationError as e:
            raise IncompleteLog(f"meta.json: invalid scenario: {e}") from None
        if scenario_hash(s) != meta["scenario_hash"]:
            raise IncompleteLog("meta.json: the embedded scenario does not match its "
                                f"scenario_hash {meta['scenario_hash']!r}")
        arrays = _read_store(store, s, meta["arrays"])
    return _new_log(s, **arrays), s
