"""The three benchmark workloads: seeded scenario generators and their jobs.

Every workload is a fixed list of jobs (one "cycle") derived from the
workload seed. The benchmark runs cycles until its time is up, so the same
jobs repeat and each repeat must reproduce the same log digest.

  case-pipeline  built-in cases 1-3, stride 1, noisy, each through the CLI as
                 run --out -> verify -> plotdata (how the paper is reproduced)
  long-strided   one generated 12-agent network of mixed plants, run through
                 the CLI with a long horizon and log stride > 1, not verified
  seed-ensemble  one generated heavy-truncation scenario over a pool of seeds,
                 simulated by harness.batch and verified in memory

Sizes are fixed across workload seeds, so the seed changes the inputs but
not the amount of work; only timing noise separates two seeds.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import random
import shutil
import time
from dataclasses import dataclass, field

from hwconsensus import analysis, cli, harness

import gate

CASE_HORIZON = 5_000
CASE_WARMUP_HORIZON = 300
PLOT_POINTS = 500

LONG_AGENTS = 12
LONG_EDGES = 18          # undirected; 36 directed noise streams
LONG_HORIZON = 6_000
LONG_STRIDE = 10
LONG_WARMUP_HORIZON = 500

ENSEMBLE_AGENTS = 5
ENSEMBLE_EDGES = 6
ENSEMBLE_HORIZON = 400
ENSEMBLE_POOL = 8        # master seeds per cycle
ENSEMBLE_CHUNK = 2       # seeds per harness.batch call

NONLINEARITIES = ("identity", "affine", "cubic_affine", "shifted_cube")

# verify's own pass thresholds (cli.cmd_verify), restated so the in-memory
# path of seed-ensemble is held to the same standard
RECURSION_THRESHOLD = 1e-9
DECOMPOSITION_THRESHOLD = 1e-10


class Workload:
    """Shared plumbing: a job's timed part runs under the tracer's root span
    when a tracer is attached; the checks after it run untraced."""

    name = ""
    whole_cycles = False  # stop measuring only at a cycle boundary
    tracer = None

    def timed(self, fn, *args):
        t0 = time.perf_counter()
        out = self.tracer.job(fn, *args) if self.tracer is not None else fn(*args)
        return out, time.perf_counter() - t0

    @contextlib.contextmanager
    def untraced(self):
        active = self.tracer is not None and self.tracer.active
        if active:
            self.tracer.active = False
        try:
            yield
        finally:
            if active:
                self.tracer.active = True


@dataclass
class Outcome:
    """One checked run of the program."""

    key: str
    seconds: float
    rounds: int
    log_bytes: int
    digest: str | None = None
    problems: list = field(default_factory=list)
    lemma3_residual: float | None = None
    reference_s: float | None = None  # reference loop time around the job

    @property
    def ok(self) -> bool:
        return not self.problems


# ---------------------------------------------------------------------------
# scenario generators

def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _connected_edges(rng: random.Random, n: int, count: int, weight) -> list:
    """A random spanning tree plus random extra edges, `count` edges in all."""
    order = list(range(1, n + 1))
    rng.shuffle(order)
    edges = set()
    for pos in range(1, n):
        a, b = order[pos], order[rng.randrange(pos)]
        edges.add((min(a, b), max(a, b)))
    others = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
              if (a, b) not in edges]
    rng.shuffle(others)
    edges.update(others[:count - len(edges)])
    return [[a, b, weight()] for a, b in sorted(edges)]


def _stable_c(rng: random.Random) -> list:
    """Degree-2 C(z) = (1 - a z)(1 - b z) with poles well inside the unit disk."""
    if rng.random() < 0.5:
        a = rng.choice((-1, 1)) * rng.uniform(0.1, 0.7)
        b = rng.choice((-1, 1)) * rng.uniform(0.1, 0.7)
        return [1.0, -(a + b), a * b]
    rho = rng.uniform(0.3, 0.75)
    theta = rng.uniform(0.2, math.pi - 0.2)
    return [1.0, -2.0 * rho * math.cos(theta), rho * rho]


def _positive_dc_d(rng: random.Random) -> list:
    """Degree-2 D(z) with D(1) > 0.2, so every static gain is increasing."""
    while True:
        d = [1.0, rng.uniform(-0.6, 0.6), rng.uniform(-0.6, 0.6)]
        if sum(d) > 0.2:
            return d


def _nonlinearity(rng: random.Random, name: str) -> dict:
    if name == "identity":
        params = {}
    elif name == "affine":
        params = {"beta": rng.uniform(0.5, 2.0), "gamma": rng.uniform(-1.0, 1.0)}
    elif name == "cubic_affine":
        params = {"alpha": rng.uniform(0.05, 0.5), "beta": rng.uniform(0.2, 1.5),
                  "gamma": rng.uniform(-1.0, 1.0)}
    else:
        params = {"gamma": rng.uniform(-1.0, 1.0)}
    return {"name": name, "params": params}


def long_strided_doc(seed: int) -> dict:
    """12 agents, half Hammerstein and half Wiener, each catalog
    nonlinearity on three agents, random stable C and positive-DC D."""
    rng = _rng("long-strided", seed)
    n = LONG_AGENTS
    kinds = ["hammerstein", "wiener"] * (n // 2)
    names = list(NONLINEARITIES) * (n // len(NONLINEARITIES))
    rng.shuffle(kinds)
    rng.shuffle(names)
    agents = [{"kind": kinds[i], "C": _stable_c(rng), "D": _positive_dc_d(rng),
               "f": _nonlinearity(rng, names[i])} for i in range(n)]
    return {
        "label": f"long-strided-{seed}",
        "horizon": LONG_HORIZON,
        "log_stride": LONG_STRIDE,
        "topology": _connected_edges(rng, n, LONG_EDGES,
                                     lambda: round(rng.uniform(0.5, 1.5), 3)),
        "agents": agents,
        "controller": {"u_star": [round(rng.uniform(-3.0, 3.0), 3) for _ in range(n)],
                       "c_M": 55.0, "initial_u": [0.0] * n},
        "noise": {"dist": "gaussian", "params": {"variance": 1.0},
                  "seed": rng.randrange(2 ** 31)},
    }


def seed_ensemble_doc(seed: int) -> dict:
    """Identity-gain agents, a small c_M and loud noise, so truncations and
    restarts happen throughout the short horizon."""
    rng = _rng("seed-ensemble", seed)
    n = ENSEMBLE_AGENTS
    c_M = round(rng.uniform(2.0, 3.0), 3)
    bound = 0.8 * math.log(c_M)
    ident = {"kind": "hammerstein", "C": [1], "D": [1],
             "f": {"name": "identity", "params": {}}}
    return {
        "label": f"seed-ensemble-{seed}",
        "horizon": ENSEMBLE_HORIZON,
        "log_stride": 1,
        "topology": _connected_edges(rng, n, ENSEMBLE_EDGES, lambda: 1.0),
        "agents": [dict(ident) for _ in range(n)],
        "controller": {"u_star": [round(rng.uniform(-bound, bound), 3) for _ in range(n)],
                       "c_M": c_M, "initial_u": [0.0] * n},
        "noise": {"dist": "gaussian",
                  "params": {"variance": round(rng.uniform(9.0, 25.0), 2)},
                  "seed": rng.randrange(2 ** 31)},
    }


def checked_scenario(doc: dict) -> harness.Scenario:
    """Parse and validate a generated scenario; a generator bug raises here."""
    s = harness.scenario_from_dict(doc)
    harness.validate_scenario(s)
    return s


# ---------------------------------------------------------------------------
# workloads

def _dir_bytes(path: str) -> int:
    return sum(e.stat().st_size for e in os.scandir(path) if e.is_file())


def _cli(argv) -> int:
    # the CLI narrates to stdout; the benchmark's stdout carries only results
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        return cli.main([str(a) for a in argv])


def _digest_saved(out: Outcome, rundir: str, horizon: int, stride: int) -> None:
    """Digest the log exactly as load_run reads it back."""
    log, _ = harness.load_run(rundir)
    if log.horizon != horizon or log.log_stride != stride:
        out.problems.append(
            f"loaded log has horizon {log.horizon}, stride {log.log_stride}; "
            f"expected {horizon}, {stride}")
    out.digest = gate.log_digest(log)


class CasePipeline(Workload):
    name = "case-pipeline"
    whole_cycles = True  # the three cases differ in cost

    def __init__(self, seed: int, workdir: str):
        rng = _rng(self.name, seed)
        self.noise_seeds = {case: rng.randrange(2 ** 31) for case in (1, 2, 3)}
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)

    def cycle(self) -> list:
        return [("case", c) for c in (1, 2, 3)]

    def warmup(self) -> list:
        return self._pipeline(1, CASE_WARMUP_HORIZON, "warmup")

    def execute(self, job) -> list:
        return self._pipeline(job[1], CASE_HORIZON, f"case{job[1]}")

    def _pipeline(self, case: int, horizon: int, key: str) -> list:
        rundir = os.path.join(self.workdir, key)
        shutil.rmtree(rundir, ignore_errors=True)

        def stages():
            codes = [_cli(["run", "--case", case, "--seed", self.noise_seeds[case],
                           "--horizon", horizon, "--out", rundir])]
            if codes[0] == 0:
                codes.append(_cli(["verify", "--log", rundir]))
            if codes[-1] == 0:
                codes.append(_cli(["plotdata", "--log", rundir, "--points", PLOT_POINTS]))
            return codes

        codes, seconds = self.timed(stages)
        out = Outcome(key=key, seconds=seconds, rounds=horizon, log_bytes=0)
        if codes != [0, 0, 0]:
            out.problems.append(f"CLI exit codes run/verify/plotdata: {codes}")
            return [out]
        with self.untraced():
            out.log_bytes = _dir_bytes(rundir)
            with open(os.path.join(rundir, "report.json")) as fh:
                report = json.load(fh)
            out.lemma3_residual = report["lemma3_residual"]
            out.problems += verdict_problems(report)
            for name in ("inputs.csv", "outputs.csv", "metrics.csv"):
                if os.path.getsize(os.path.join(rundir, name)) == 0:
                    out.problems.append(f"{name} is empty")
            _digest_saved(out, rundir, horizon, 1)
        return [out]


class LongStrided(Workload):
    name = "long-strided"

    def __init__(self, seed: int, workdir: str):
        doc = long_strided_doc(seed)
        checked_scenario(doc)
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.scenario_path = os.path.join(workdir, "scenario.json")
        with open(self.scenario_path, "w") as fh:
            json.dump(doc, fh, indent=1)

    def cycle(self) -> list:
        return [("long", LONG_HORIZON)]

    def warmup(self) -> list:
        return self._run(LONG_WARMUP_HORIZON, "warmup")

    def execute(self, job) -> list:
        return self._run(job[1], "long")

    def _run(self, horizon: int, key: str) -> list:
        rundir = os.path.join(self.workdir, key)
        shutil.rmtree(rundir, ignore_errors=True)
        code, seconds = self.timed(_cli, [
            "run", "--scenario", self.scenario_path, "--horizon", horizon,
            "--log-stride", LONG_STRIDE, "--out", rundir])
        out = Outcome(key=key, seconds=seconds, rounds=horizon, log_bytes=0)
        if code != 0:
            out.problems.append(f"CLI run exit code {code}")
            return [out]
        with self.untraced():
            out.log_bytes = _dir_bytes(rundir)
            _digest_saved(out, rundir, horizon, LONG_STRIDE)
        return [out]


class SeedEnsemble(Workload):
    name = "seed-ensemble"

    def __init__(self, seed: int, workdir: str):
        self.scenario = checked_scenario(seed_ensemble_doc(seed))
        rng = _rng(self.name + ":seeds", seed)
        self.pool = sorted(rng.sample(range(1, 2 ** 31), ENSEMBLE_POOL))

    def cycle(self) -> list:
        return [("batch", tuple(self.pool[i:i + ENSEMBLE_CHUNK]))
                for i in range(0, len(self.pool), ENSEMBLE_CHUNK)]

    def warmup(self) -> list:
        return self._batch(self.pool[:1], "warmup")

    def execute(self, job) -> list:
        return self._batch(job[1], None)

    def _verify(self, log):
        s = self.scenario
        return analysis.full_verification(log, s.gains(), s.topology)

    def _batch(self, seeds, key) -> list:
        s = self.scenario
        results, seconds = self.timed(
            lambda: harness.batch(s, list(seeds), workers=1))
        share = seconds / len(seeds)
        outs = []
        if len(results) != len(seeds):
            outs.append(Outcome(key=key or "batch", seconds=0.0, rounds=0, log_bytes=0,
                                problems=[f"batch returned {len(results)} runs "
                                          f"for {len(seeds)} seeds"]))
        for seed, res in zip(seeds, results):
            (report, extras), seconds = self.timed(self._verify, res.log)
            out = Outcome(key=key or f"seed{seed}", seconds=share + seconds,
                          rounds=s.horizon, log_bytes=gate.log_nbytes(res.log),
                          lemma3_residual=report["lemma3_residual"])
            with self.untraced():
                out.problems += verdict_problems(report)
                if not extras["sigma_consistent"]:
                    out.problems.append("centralized replay count path mismatch")
                if res.seed != seed:
                    out.problems.append(f"batch returned seed {res.seed} for {seed}")
                out.digest = gate.log_digest(res.log)
            outs.append(out)
        return outs


def verdict_problems(report: dict) -> list:
    """The four verify rows, checked explicitly (no assert: holds under -O)."""
    problems = []
    if not report["lemma3_residual"] < RECURSION_THRESHOLD:
        problems.append(f"centralized replay residual {report['lemma3_residual']!r}")
    if report["eq26_ok"] is not True:
        problems.append("truncation window bound failed")
    if report["eq28_ok"] is not True:
        problems.append("step-count bounds failed")
    if not report["decomposition_max_err"] < DECOMPOSITION_THRESHOLD:
        problems.append(f"noise decomposition error {report['decomposition_max_err']!r}")
    return problems


WORKLOADS = {w.name: w for w in (CasePipeline, LongStrided, SeedEnsemble)}
