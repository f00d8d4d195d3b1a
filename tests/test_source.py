import ast
import pathlib
import random
import re

import pytest

from hwconsensus import analysis, builtin_case, scenario_from_dict
from hwconsensus.controller import emit_round, round_shape
from hwconsensus.harness import _kernel_source
from hwconsensus.plant import step_parts

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "hwconsensus"
CODE_LIKE = "__import__('os').system('echo hi') #\"\"\" ; raise SystemExit"


def _asserts(tree: ast.AST, where: str) -> list:
    return [f"{where}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]


def test_no_assert_in_the_package():
    # python -O compiles assert statements away, so no check may be one
    paths = sorted(PACKAGE.glob("*.py"))
    assert "analysis.py" in [p.name for p in paths]
    found = [hit for p in paths
             for hit in _asserts(ast.parse(p.read_text(encoding="utf-8"), str(p)), p.name)]
    assert found == []


def _twelve_agents(label: str):
    """A network like the long-strided benchmark's: 12 agents, half of each
    kind, every catalog nonlinearity, 18 weighted edges."""
    rng = random.Random(12)
    names = ["identity", "affine", "cubic_affine", "shifted_cube"] * 3
    params = {"identity": {}, "affine": {"beta": 1.25, "gamma": 0.5},
              "cubic_affine": {"alpha": 0.25, "beta": 0.75, "gamma": -0.5},
              "shifted_cube": {"gamma": 0.125}}
    edges = {(b - 1, b) for b in range(2, 13)}
    while len(edges) < 18:
        a, b = sorted(rng.sample(range(1, 13), 2))
        edges.add((a, b))
    return scenario_from_dict({
        "label": label, "horizon": 6000, "log_stride": 10,
        "topology": [[a, b, 0.5 + a / 8] for a, b in sorted(edges)],
        "agents": [{"kind": ("hammerstein", "wiener")[i % 2], "C": [1.0, -0.4, 0.04],
                    "D": [1.0, 0.3, -0.2], "f": {"name": names[i], "params": params[names[i]]}}
                   for i in range(12)],
        "controller": {"u_star": [0.25 * i - 1.5 for i in range(12)], "c_M": 55.0,
                       "initial_u": [0.0] * 12},
        "noise": {"dist": "gaussian", "params": {"variance": 1.0}, "seed": 7}})


def _round_shape(s) -> tuple:
    return round_shape(analysis.neighbour_columns(s.topology))


def _source(s) -> str:
    plants = [a.build() for a in s.agents]
    return _kernel_source(tuple(step_parts(p)[0] for p in plants), _round_shape(s))


NETWORKS = pytest.mark.parametrize(
    "s", [builtin_case(1), builtin_case(2), builtin_case(3), _twelve_agents(CODE_LIKE)],
    ids=["case1", "case2", "case3", "twelve-agents"])


@NETWORKS
def test_the_round_writes_each_correction_once(s):
    # one branch per round: every agent pools, then restarts or corrects
    src = "\n".join(x.strip() for x in emit_round(_round_shape(s)))
    assert src.count("\ncand = ") == s.n
    assert re.findall(r"\b(?:top|mtop|Mt)\b|min\(", src) == []


@NETWORKS
def test_the_round_kernel_source_holds_no_assert_and_no_scenario_value(s):
    src = _source(s)
    tree = ast.parse(src)
    assert _asserts(tree, "kernel") == []
    assert CODE_LIKE not in src and s.label not in src
    # every scenario value is an argument: the only float literals are the
    # round's 0.0 and 1.0, the only strings the error messages' text
    floats = {node.value for node in ast.walk(tree)
              if isinstance(node, ast.Constant) and isinstance(node.value, float)}
    assert floats <= {0.0, 1.0}
    strings = {node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert strings <= {"nonlinearity overflows at ", "plant output left finite range (v=",
                       ", y=", ")"}


@NETWORKS
def test_the_round_kernel_calls_no_nonlinearity_and_tests_finiteness_once(s):
    # each f is written in place, and a round's outputs are tested as one sum
    src = _source(s)
    assert re.findall(r"\bf\d+\(", src) == []
    assert src.count("isfinite(") == 1 and src.count("\n    for ") == 1
