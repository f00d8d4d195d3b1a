"""Scenario configuration, the synchronous simulation loop, and persistence.

A scenario bundles a topology, per-agent plants, the controller constants,
and a noise spec with its seed. Runs are deterministic functions of the
scenario: one round applies every agent's current input to its plant,
exchanges noisy output observations and truncation counts as a snapshot,
then advances every controller. run executes all rounds in one compiled
function, the round kernel, generated from plant.emit_steps and
controller.emit_round. What it keeps of the rounds is the run's
TrajectoryLog, which derives the other columns.

File layout of a saved run directory:
  log.npz         what only the round loop knows, as npy arrays (np.savez,
                  uncompressed): u (K, n) float64 on every step, the count
                  events (E, 3) int64 as (k, agent, count) rows, and y (L, n)
                  float64 on the L logged steps: the TrajectoryLog load_run
                  reads back. The noise is redrawn from the seed
  summary.json    headline numbers, a function of the log; null if not finite
  meta.json       the scenario that ran (its noise seed included) and its hash,
                  and each array's dtype, shape and SHA-256; the shape of u
                  gives the rows written, K
csvout.export_csv writes a log as text (trajectory.csv, edges.csv and events.csv)."""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import struct
import time
import tokenize
import warnings
import zipfile
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace

import numpy as np

from . import analysis
from .controller import Schedule, emit_round, round_shape
from .errors import IncompleteLog, NonFiniteValue, ValidationError
from .graph import (
    Topology,
    build_topology,
    directed_pairs,
    is_connected,
    laplacian,
    neighbour_columns,
    stream_keys,
)
from .noise import NoiseSpec, edge_blocks, edge_noise, make_noise_spec
from .plant import (
    HAMMERSTEIN,
    WIENER,
    AgentPlant,
    Nonlinearity,
    Polynomial,
    check_stability,
    compile_steps,
    emit_steps,
    gain_increases,
    make_nonlinearity,
    make_plant,
    poly,
    static_gain,
    step_names,
    step_parts,
)


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

    # what the scenario fixes is derived once, when first read; a copy, an
    # unpickled scenario or one with another noise seed derives its own
    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @property
    def n(self) -> int:
        return len(self.agents)

    def gains(self):
        """A new list of the agents' static gains, built once."""
        return list(self._gains)

    @functools.cached_property
    def _gains(self) -> tuple:
        return tuple(static_gain(a.build()) for a in self.agents)

    @functools.cached_property
    def _round(self) -> tuple:
        """validate_scenario, then _round_call of the zero-history plants. A
        scenario that fails validation keeps nothing and raises on every read."""
        validate_scenario(self)
        return _round_call(self, [a.build() for a in self.agents])

    @functools.cached_property
    def _edge_noise(self):
        """noise.edge_noise of the directed edges under the noise seed: a run
        and the log it returns draw with its stream seeds, mixed once from
        the topology's stream keys, so another seed mixes only itself in."""
        return edge_noise(self.noise, stream_keys(self.topology))


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
    if not gain_increases(a.build()):
        return "static gain is not strictly increasing"
    return None


def validate_scenario(s: Scenario) -> None:
    """Reject scenarios outside the model class before any simulation.

    Checks: a horizon and a log stride of at least 1, a finite positive c_M,
    connected topology, every C stable with margin 1e-9, every static gain
    strictly increasing (decided from signs, plant.gain_increases), and
    reset points strictly inside the base truncation bound. Any horizon is
    accepted at any stride: verify checks every log one block of rows at a
    time.
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

class _Summary:
    """RunResult.summary: the summary given, or else summarize(log), derived
    when first read and kept. As the default of a dataclass field, the
    descriptor is handed the value __init__ is given (None if none is)."""

    def __get__(self, result, owner=None):
        if result is None:
            return None  # the field's default
        if result._summary is None:
            result._summary = summarize(result.log)
        return result._summary

    def __set__(self, result, value):
        result._summary = value


@dataclass
class RunResult:
    """A run's log, its summary (summarize of the log unless one is given)
    and the wall time of its round loop in seconds."""

    log: analysis.TrajectoryLog
    summary: dict = _Summary()
    wall_time: float = 0.0

    @property
    def scenario(self) -> Scenario:
        return self.log.scenario  # the scenario that ran, its noise seed included

    @property
    def seed(self) -> int:
        return self.scenario.noise.seed


def summarize(log: analysis.TrajectoryLog) -> dict:
    """Headline numbers, a function of the log (at least one row) alone.

    total_truncations (each agent's truncations) and sigma_bar_final (the
    largest count) read rounds 1..K-1, whose next count the log's rows hold."""
    (K, n), ev = log.u.shape, log.events
    fired = np.bincount(ev[analysis.fired(log) & (ev[:, 0] < K), 1] - 1, minlength=n).tolist()
    last_y = log.y[-1]
    # a diverged run's residual or spread overflows; it is reported as null,
    # as JSON has no inf
    with np.errstate(over="ignore", invalid="ignore"):
        lap = laplacian(log.scenario.topology)  # |L h| = |g|, the verifier's own sum
        res = float(np.abs(analysis.gain_field(log.u[-1:], log.scenario.gains(), lap)[1]).max())
        spread = float(last_y.max() - last_y.min())
    return {
        "final_spread": spread if math.isfinite(spread) else None,
        "final_residual": res if math.isfinite(res) else None,
        "total_truncations": fired,
        "sigma_bar_final": int(ev[ev[:, 0] < K, 2].max(initial=0)),
    }


def _check_initial_plants(s: Scenario, plants) -> None:
    """Each initial plant must be the plant its agent builds, up to the
    history values: the same kind, C, D, nonlinearity and history lengths."""
    if len(plants) != s.n:
        raise ValidationError(f"initial_plants has {len(plants)} entries for {s.n} agents")
    for idx, (p, a) in enumerate(zip(plants, s.agents), start=1):
        if not isinstance(p, AgentPlant):
            raise ValidationError(f"initial_plants[{idx}] is a {type(p).__name__}, "
                                  "not an AgentPlant")
        built = a.build()
        for name in ("kind", "C", "D", "f"):
            if getattr(p, name) != getattr(a, name):
                raise ValidationError(f"agent {idx}: the initial plant's {name} "
                                      f"{getattr(p, name)!r} is not the scenario's "
                                      f"{getattr(a, name)!r}")
        for name in ("y_hist", "v_hist", "u_hist"):
            if len(getattr(p, name)) != len(getattr(built, name)):
                raise ValidationError(f"agent {idx}: the initial plant's {name} has "
                                      f"{len(getattr(p, name))} entries, not "
                                      f"{len(getattr(built, name))}")


def _kernel_source(plant_shapes: tuple, nbr_shape: tuple) -> str:
    """The round kernel's source for plants of these step shapes on a
    network of this round shape: the row of plant steps of plant.emit_steps
    and the round of controller.emit_round, unrolled over the agents in one
    loop over the rounds. It reads the noise of each (first 0-based step,
    block) of noise.edge_blocks, in the blocks of noise.row_blocks, a row
    at a time, straight from the block's buffer, and packs each logged
    row of u and y into its buffer at the next row's byte offset. The source
    holds fixed names and integers only; every scenario value is an argument."""
    n, m = len(plant_shapes), sum(len(nb) for nb in nbr_shape)

    def names(prefix, count=n):
        return ", ".join(f"{prefix}{x}" for x in range(count))

    # each value is a parameter, not unpacked before the loop: tracemalloc finds the line
    # of each object the loop creates by scanning the code from its start
    params = [x for i, shape in enumerate(plant_shapes) for part in step_names(shape, i)
              for x in part] + [f"{p}{x}" for p, count in (("u", n), ("us", n), ("w", m))
                                for x in range(count)]
    lines = ["def kernel(stride, blocks, pack, row, log_u, log_y, events, bounds, "
             f"{', '.join(params)}):",
             f"    {' = '.join(f's{i}' for i in range(n))} = 0",
             "    M = bounds(0)",
             "    pool = True",
             "    at_u = at_y = 0",
             "    over = {}",
             "    for t0, block in blocks:",
             f"        for k, [{names('e', m)}] in enumerate("
             f"zip(*[iter(memoryview(block.ravel()))] * {m:d}), t0 + 1):"]
    lines += ["            " + x for x in emit_steps(plant_shapes)]
    # the round's starting u is logged before the round overwrites it
    lines += [f"            pack(log_u, at_u, {names('u')})",
              "            at_u += row",
              "            if not (k - 1) % stride:",
              f"                pack(log_y, at_y, {names('y')})",
              "                at_y += row"]
    lines += ["            " + x for x in emit_round(nbr_shape)]
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=32)
def _round_kernel(plant_shapes: tuple, nbr_shape: tuple):
    """_kernel_source compiled, once per shape and process. A network too
    large for CPython's compiler is a ValidationError naming its size."""
    try:
        return compile_steps(_kernel_source(plant_shapes, nbr_shape), "<round kernel>", "kernel")
    except (RecursionError, MemoryError) as e:
        raise ValidationError(
            f"the round kernel of {len(plant_shapes)} agents and "
            f"{sum(map(len, nbr_shape))} directed edges does not compile "
            f"({type(e).__name__})") from None


def _round_call(s: Scenario, plants) -> tuple:
    """(kernel, arguments): the round kernel of these plants on s's network,
    and the scenario values it reads after its first eight arguments, flat:
    the plants' step values, initial_u, u_star and the edge weights."""
    shapes, values = zip(*(step_parts(p) for p in plants))
    topo = s.topology
    kernel = _round_kernel(shapes, round_shape(neighbour_columns(topo)))
    return kernel, (*[x for parts in values for part in parts for x in part],
                    *s.controller.initial_u, *s.controller.u_star,
                    *[topo.weight(i, j) for (i, j) in directed_pairs(topo)])


def run(s: Scenario, master_seed: int | None = None,
        initial_plants: list | None = None) -> RunResult:
    """Simulate one scenario to its horizon; deterministic in s.

    master_seed, when given, replaces the scenario's noise seed, and the
    result carries the scenario with that seed. initial_plants overrides the
    zero-history plants (robustness tests): one plant per agent, the plant
    the agent builds but for its history values. The caller's objects are
    read, never mutated; the log keeps copies, to replay its outputs from.

    All K rounds run in one compiled function, the round kernel: the plant
    steps and the control round of every agent as straight-line code,
    compiled once per network shape and process. A scenario validates
    itself and finds its kernel and the kernel's arguments once, at its
    first run; runs of it under other seeds read them too. A plant output
    that is not finite raises NonFiniteValue with its (step, agent) and the
    run up to the round before it as .partial.
    """
    kernel, args = s._round
    if master_seed is not None:
        s = replace(s, noise=make_noise_spec(s.noise.dist, s.noise.params_dict(), master_seed))

    n, K, stride = s.n, s.horizon, s.log_stride
    if initial_plants is not None:
        _check_initial_plants(s, initial_plants)
        initial_plants = tuple(p.copy() for p in initial_plants)
        kernel, args = _round_call(s, initial_plants)

    # the loop keeps what only it knows: u on every step, the count events,
    # y on the logged steps, each of u and y in an array of its final shape
    # that the loop packs row by row
    try:
        u, y, event_buf = np.empty((K, n)), np.empty((-(-K // stride), n)), array("q")
    except (ValueError, MemoryError):  # numpy's "array is too big" or an allocation failure
        raise ValidationError(f"a log of {K} steps of {n} agents cannot be allocated") from None
    row = struct.Struct(f"{n:d}d")

    def make_log(u, y) -> analysis.TrajectoryLog:
        return analysis.TrajectoryLog(s, u, np.frombuffer(event_buf, dtype=np.int64).reshape(-1, 3),
                                      y, initial_plants)

    t0 = time.perf_counter()
    try:
        # one block of noise at a time, never the whole horizon's
        kernel(stride, edge_blocks(s._edge_noise, K, max(n, 2 * len(s.topology.weights))),
               row.pack_into, row.size, memoryview(u), memoryview(y), event_buf.fromlist,
               Schedule(c_M=s.controller.c_M).bounds, *args)
    except NonFiniteValue as e:
        wall_time = time.perf_counter() - t0
        rows = e.step - 1  # the partial log keeps copies of its rows, not the whole arrays
        e.partial = RunResult(log=make_log(u[:rows].copy(), y[:-(-rows // stride)].copy()),
                              wall_time=wall_time,
                              summary={"aborted_at": e.step} if e.step == 1 else None)
        raise
    wall_time = time.perf_counter() - t0
    return RunResult(log=make_log(u, y), wall_time=wall_time)


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


def _array_records(arrays: dict) -> dict:
    """Each array's dtype, shape and SHA-256 of its bytes, as meta.json records them."""
    return {name: {"dtype": a.dtype.str, "shape": list(a.shape),
                   "sha256": hashlib.sha256(np.ascontiguousarray(a)).hexdigest()}
            for name, a in arrays.items()}


def save_run(result: RunResult, outdir: str) -> None:
    log = result.log
    if log.log_stride > 1 and any(np.array(p.y_hist + p.v_hist + p.u_hist).view(np.int64).any()
                                  for p in log.plants or ()):  # a set bit: not +0.0
        raise ValidationError("a strided run from plants with non-zero histories cannot be saved: "
                              "log.npz holds no histories to replay its unlogged outputs from")
    os.makedirs(outdir, exist_ok=True)
    arrays = {"u": log.u, "events": log.events, "y": log.y}
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
STORE = ("events", "u", "y")  # the arrays of log.npz


def _recorded_rows(records, name: str):
    """The rows meta.json records for array name, as it records them."""
    try:
        return records[name]["shape"][0]
    except (TypeError, KeyError, IndexError):
        raise IncompleteLog(f"{LOG_FILE}: array {name} {_NO_RECORD}") from None


def _read_store(fh, s: Scenario, records) -> dict:
    """The arrays of an open log.npz of a run of s, checked in turn for the
    exact set of names STORE, the dtypes, the shapes, then the records of
    meta.json. The rows K are the rows meta.json records for u, from 1 to
    s.horizon, and those of the events the rows it records for them."""
    K = _recorded_rows(records, "u")
    # JSON true is a Python int equal to 1: only an int is a count
    if not (type(K) is int and 1 <= K <= s.horizon):
        raise IncompleteLog(f"{LOG_FILE}: array u has {K!r} rows in meta.json, not a step "
                            f"count from 1 to the scenario's {s.horizon}")
    try:
        npz = np.load(fh, allow_pickle=False)
    except _UNREADABLE as e:
        raise IncompleteLog(f"{LOG_FILE} is not an npz archive: {e}") from None
    if not isinstance(npz, np.lib.npyio.NpzFile):
        raise IncompleteLog(f"{LOG_FILE} is not an npz archive: it holds one npy array")
    with npz:
        # the zip members, not npz.files: a member without .npy reads as bytes
        members = sorted(npz.zip.namelist())
        expected = [f"{name}.npy" for name in STORE]
        if members != expected:
            raise IncompleteLog(f"{LOG_FILE} holds {members}, expected {expected}")
        arrays = {}
        for name in STORE:
            try:
                arrays[name] = npz[name]
            except _UNREADABLE as e:
                raise IncompleteLog(f"{LOG_FILE}: array {name}: {e}") from None
            # a .npy member without the npy magic reads as bytes too
            if not isinstance(arrays[name], np.ndarray):
                raise IncompleteLog(f"{LOG_FILE}: array {name}: {name}.npy is not an npy file")
    E = _recorded_rows(records, "events")
    if not (type(E) is int and E >= 0):
        raise IncompleteLog(f"{LOG_FILE}: array events {_NO_RECORD}")
    F, L = np.dtype(np.float64), -(-K // s.log_stride)  # the logged rows, as run keeps y
    want = {"u": (F, (K, s.n)), "y": (F, (L, s.n)), "events": (np.dtype(np.int64), (E, 3))}
    for i, check in enumerate(("dtype", "shape")):
        for name, a in arrays.items():
            if getattr(a, check) != want[name][i]:
                raise IncompleteLog(f"{LOG_FILE}: array {name} has {check} "
                                    f"{getattr(a, check)}, expected {want[name][i]}")
    for name, record in _array_records(arrays).items():
        if records.get(name) != record:
            raise IncompleteLog(f"{LOG_FILE}: array {name} {_NO_RECORD}")
    return arrays


def _check_events(events: np.ndarray, K: int, n: int) -> None:
    """Reject count events the round kernel cannot have written: a k outside
    1..K, an agent outside 1..n, a row not after the one before it in
    (k, agent) order, or a count not above the agent's previous one, the
    initial count 0 before its first. The first such row is named."""
    k, agent, count = events.T
    # per row, the row of the same agent's previous event, or -1
    prev = np.full(len(events), -1)
    by_agent = np.argsort(agent, kind="stable")
    same = agent[by_agent[1:]] == agent[by_agent[:-1]]
    prev[by_agent[1:][same]] = by_agent[:-1][same]
    later = np.ones(len(events), dtype=bool)
    later[1:] = (k[1:] > k[:-1]) | ((k[1:] == k[:-1]) & (agent[1:] > agent[:-1]))
    rises = count > np.where(prev < 0, 0, count[prev])
    bad = np.flatnonzero((k < 1) | (k > K) | (agent < 1) | (agent > n) | ~later | ~rises)
    if not len(bad):
        return
    x = int(bad[0])
    kx, ax, cx = events[x].tolist()
    where = f"{LOG_FILE}: array events: the event (k={kx}, agent {ax}, count {cx})"
    if not 1 <= kx <= K:
        raise IncompleteLog(f"{where} has a step outside 1..{K}")
    if not 1 <= ax <= n:
        raise IncompleteLog(f"{where} names an agent outside 1..{n}")
    if not later[x]:
        raise IncompleteLog(f"{where} is out of order after (k={k[x - 1]}, agent {agent[x - 1]})")
    since = ("the initial count 0" if prev[x] < 0
             else f"the agent's count {count[prev[x]]} at k={k[prev[x]]}")
    raise IncompleteLog(f"{where} does not rise from {since}")


def load_run(rundir: str):
    """Read a saved run back as (TrajectoryLog, Scenario): the scenario that
    ran, its noise seed included, and the log of it and the stored arrays.

    Raises IncompleteLog, naming the file or the array, for a meta.json that
    is not a JSON object with every key it reads (others, such as the horizon
    and seed older run directories hold, are ignored), whose embedded
    scenario is invalid or does not match its scenario_hash, or whose record
    of u does not give a step count K from 1 to the scenario's horizon, and
    for a log.npz that is not an npz archive of exactly the arrays save_run
    writes, with their dtypes, the shapes of K rows of that scenario, and the
    dtypes, shapes and SHA-256 digests meta.json records, or whose count
    events _check_events rejects, naming the first.
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
    _check_events(arrays["events"], len(arrays["u"]), s.n)
    return analysis.TrajectoryLog(s, arrays["u"], arrays["events"], arrays["y"]), s
