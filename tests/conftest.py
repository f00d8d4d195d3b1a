"""Shared fixtures: cached benchmark runs and small synthetic scenarios.

The acceptance suite replays the three built-in cases over five seeds plus a
noise-free variant each. Runs are produced once per session, on first use,
and shared across test modules through the `runs` fixture.
"""

import dataclasses
import math
import os
import random

import numpy as np
import pytest

from hwconsensus import (
    AgentSpec,
    AuxiliarySequences,
    ControllerSpec,
    RunMetrics,
    Scenario,
    Topology,
    build_auxiliary,
    build_topology,
    builtin_case,
    consensus_metrics,
    eval_at_one,
    gain_roots,
    laplacian,
    make_nonlinearity,
    make_noise_spec,
    poly,
    run,
    scenario_from_dict,
    truncation_times,
)
from hwconsensus.analysis import at_roots, log_blocks

# stiff_case(1) as a scenario file, which CI runs and verifies
STIFF_CASE1 = os.path.join(os.path.dirname(__file__), "stiff_case1.json")
# five identity-gain agents, a small c_M and loud noise: truncations and
# restarts throughout the horizon, as in the benchmark's seed ensemble
RESTART_CASE = os.path.join(os.path.dirname(__file__), "restart_case.json")
# twelve agents, six Hammerstein and six Wiener plants over the four catalog
# nonlinearities, 36 directed edges; 2500 steps cross two noise blocks
MIXED_CASE = os.path.join(os.path.dirname(__file__), "mixed_case.json")

_CACHE = {}


def _get_run(case: int, seed: int, noise_off: bool = False, horizon: int = 100_000):
    key = (case, seed, noise_off, horizon)
    if key not in _CACHE:
        s = builtin_case(case, horizon=horizon, noise_off=noise_off)
        _CACHE[key] = run(s, master_seed=seed)
    return _CACHE[key]


@pytest.fixture(scope="session")
def runs():
    return _get_run


@pytest.fixture(scope="session")
def cases():
    return {c: builtin_case(c) for c in (1, 2, 3)}


class _ExplodingParameter(float):
    """A parameter value that raises OverflowError on its call-th use in
    arithmetic (as a factor or a subtrahend) and is its float otherwise."""

    def __new__(cls, value: float, call: int):
        self = super().__new__(cls, value)
        self.uses, self.call = 0, call
        return self

    def _use(self) -> float:
        self.uses += 1
        if self.uses == self.call:
            raise OverflowError("synthetic overflow")
        return float(self)

    def __mul__(self, other):
        return self._use() * other

    def __rsub__(self, other):
        return other - self._use()


def exploding_plants(s: Scenario, agent: int, call: int) -> list:
    """The zero-history plants of s, except that agent's (1-based)
    nonlinearity raises OverflowError on its call-th evaluation. Each plant
    evaluates f once per round, and each evaluation uses f's first parameter
    once, so run(s, initial_plants=...) aborts at round call, agent agent.
    The nonlinearity must have a parameter."""
    plants = [a.build() for a in s.agents]
    f = plants[agent - 1].f
    (name, value), *rest = f.params
    # make_nonlinearity would make the parameter a plain float
    plants[agent - 1].f = dataclasses.replace(
        f, params=((name, _ExplodingParameter(value, call)), *rest))
    return plants


def events_of(sigma: np.ndarray) -> np.ndarray:
    """The count events of a (K, n) sigma column: (k, agent, count) for
    every cell that differs from the one above it, the row above row 0 being
    all zeros, in (k, agent) order: a log's events written from its counts."""
    prev = np.zeros_like(sigma)
    prev[1:] = sigma[:-1]
    r, i = np.nonzero(sigma != prev)
    return np.column_stack([r, i + 1, sigma[r, i]]).astype(np.int64)


def network_scenario(n: int, edges, u_star=None) -> Scenario:
    """n identity agents on the 1-based (i, j, weight) edges, reset points
    u_star (zeros if None), stride 1, built without validation, so there may
    be one agent or isolated ones: the network and reset points a hand-made
    TrajectoryLog derives its columns from."""
    ident = AgentSpec("hammerstein", poly([1]), poly([1]), make_nonlinearity("identity", {}))
    u_star = tuple(map(float, u_star)) if u_star is not None else (0.0,) * n
    return Scenario(label="network", horizon=1, log_stride=1,
                    topology=Topology(n, {(min(i, j), max(i, j)): w for i, j, w in edges}),
                    agents=(ident,) * n,
                    controller=ControllerSpec(u_star=u_star, c_M=55.0, initial_u=u_star),
                    noise=make_noise_spec("zero", {}, 0))


def two_agent_scenario(horizon=2000, seed=5, dist="gaussian", params=None,
                       c_M=55.0, u_star=(1.0, 2.0), initial_u=None) -> Scenario:
    """Smallest possible network: two agents joined by one edge.

    initial_u None leaves the scenario default (start from the reset points).
    """
    controller = {"u_star": list(u_star), "c_M": c_M}
    if initial_u is not None:
        controller["initial_u"] = list(initial_u)
    doc = {
        "label": "pair",
        "horizon": horizon,
        "topology": [[1, 2, 1.0]],
        "agents": [
            {"kind": "hammerstein", "C": [1], "D": [1],
             "f": {"name": "identity", "params": {}}},
            {"kind": "hammerstein", "C": [1], "D": [1],
             "f": {"name": "identity", "params": {}}},
        ],
        "controller": controller,
        "noise": {"dist": dist,
                  "params": (params if params is not None
                             else {"variance": 1.0} if dist == "gaussian" else {}),
                  "seed": seed},
    }
    return scenario_from_dict(doc)


def ring_doc(n: int, horizon: int, log_stride: int) -> dict:
    """A ring of n agents, alternating Hammerstein and Wiener cubic_affine
    plants, with gaussian noise: a network whose size only its agent count
    sets (every agent has two neighbours)."""
    return {
        "label": f"ring-{n}", "horizon": horizon, "log_stride": log_stride,
        "topology": [[a, a % n + 1, 1.0] for a in range(1, n + 1)],
        "agents": [{"kind": ("hammerstein", "wiener")[a % 2], "C": [1, 0.2], "D": [1, 0.5],
                    "f": {"name": "cubic_affine",
                          "params": {"alpha": 0.1, "beta": 1.0, "gamma": 0.0}}}
                   for a in range(n)],
        "controller": {"u_star": [0.5] * n, "c_M": 3.0},
        "noise": {"dist": "gaussian", "params": {"variance": 1.0}, "seed": 3},
    }


def network_doc(n: int, horizon: int, seed: int = 3) -> dict:
    """ring_doc's plants on the ring plus 2n random chords, 3n edges of
    random weights: degrees from 2 up, so the neighbour ranks past the second
    cover some agents only."""
    rng = random.Random(seed)
    ring = {(min(a, a % n + 1), max(a, a % n + 1)) for a in range(1, n + 1)}
    chords = rng.sample([(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)
                         if (a, b) not in ring], 2 * n)
    doc = ring_doc(n, horizon, 1)
    doc["label"] = f"network-{n}"
    doc["topology"] = [[a, b, round(rng.uniform(0.5, 1.5), 3)]
                       for a, b in sorted(ring | set(chords))]
    return doc


def forced_truncation_scenarios():
    """Three synthetic setups whose small admissible bounds force resets.

    All use identity-gain plants so escapes are purely noise-driven; the
    reset points sit strictly inside ln(c_M).
    """
    ident = {"kind": "hammerstein", "C": [1], "D": [1],
             "f": {"name": "identity", "params": {}}}
    chain = {
        "label": "forced-chain",
        "horizon": 2000,
        "topology": [[1, 2, 1.0], [2, 3, 1.0], [3, 4, 1.0]],
        "agents": [dict(ident) for _ in range(4)],
        "controller": {"u_star": [0.1, 0.2, -0.1, 0.3], "c_M": 2.0,
                       "initial_u": [0.0, 0.0, 0.0, 0.0]},
        "noise": {"dist": "gaussian", "params": {"variance": 25.0}, "seed": 11},
    }
    square = {
        "label": "forced-square",
        "horizon": 2000,
        "topology": [[1, 2, 1.0], [1, 4, 1.0], [2, 3, 1.0], [2, 4, 1.0]],
        "agents": [dict(ident) for _ in range(4)],
        "controller": {"u_star": [0.5, 1.0, -0.5, 0.9], "c_M": 3.0,
                       "initial_u": [0.0, 0.0, 0.0, 0.0]},
        "noise": {"dist": "uniform", "params": {"a": 10.0}, "seed": 12},
    }
    pair = {
        "label": "forced-pair",
        "horizon": 2000,
        "topology": [[1, 2, 1.0]],
        "agents": [dict(ident) for _ in range(2)],
        "controller": {"u_star": [0.5, -0.5], "c_M": 2.0,
                       "initial_u": [0.0, 0.0]},
        "noise": {"dist": "gaussian", "params": {"variance": 9.0}, "seed": 13},
    }
    return [scenario_from_dict(d) for d in (chain, square, pair)]


def stiff_case(case: int) -> Scenario:
    """Built-in case `case` at horizon 2000 and noise seed 3, every
    nonlinearity replaced by affine of slope 1e5, signed as D(1)/C(1) so
    each gain increases: a correct run whose outputs reach 1e5, where the
    decomposition's rounding passes 1e-10."""
    s = builtin_case(case, horizon=2000, seed=3)
    agents = tuple(dataclasses.replace(a, f=make_nonlinearity("affine", {
        "beta": math.copysign(1e5, eval_at_one(a.D) / eval_at_one(a.C)), "gamma": 0.0}))
        for a in s.agents)
    return dataclasses.replace(s, label=f"stiff-case{case}", agents=agents)


def reweighted(topology: Topology, i: int, j: int) -> Topology:
    """topology with the weight of edge (i, j) off by 1 part in 10^6."""
    return build_topology(topology.n, [(a, b, w * (1 + 1e-6) if (a, b) == (i, j) else w)
                                       for a, b, w in topology.edge_list()])


def dense_laplacian(t: Topology) -> np.ndarray:
    """L = D - P of t as an (n, n) matrix built from its edge list: the
    reference for the degrees and neighbour ranks laplacian(t) holds."""
    L = np.zeros((t.n, t.n))
    for i, j, w in t.edge_list():
        L[i - 1, j - 1] = L[j - 1, i - 1] = -w
        L[i - 1, i - 1] += w
        L[j - 1, j - 1] += w
    return L


def whole_auxiliary(log, gains, topology) -> AuxiliarySequences:
    """build_auxiliary of every block of the log, joined: the relabeling of
    the whole log, which verify_centralized_recursion replays in one call."""
    lap = laplacian(topology)
    times, u_star = truncation_times(log), np.array(log.scenario.controller.u_star)
    parts = [build_auxiliary(b, times, u_star) for b in log_blocks(log, gains, lap)]

    def joined(name):
        return np.concatenate([getattr(p, name) for p in parts])

    return AuxiliarySequences(
        k=joined("k"), ubar=joined("ubar"), obar=joined("obar"), sigma_bar=joined("sigma_bar"),
        u_star=u_star, catchup_mask=joined("catchup_mask"))


def whole_metrics(log, gains, lap) -> RunMetrics:
    """consensus_metrics of every block of the log, joined: the metrics of
    every step of the log."""
    roots = gain_roots(gains)
    h_roots = at_roots(gains, roots)
    parts = [consensus_metrics(b, gains, roots, h_roots) for b in log_blocks(log, gains, lap)]
    return RunMetrics(**{f.name: np.concatenate([getattr(p, f.name) for p in parts])
                         for f in dataclasses.fields(RunMetrics)})
