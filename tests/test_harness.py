import builtins
import copy
import dataclasses
import functools
import hashlib
import json
import math
import os
import pickle
import subprocess
import sys
import tempfile
import time
import tracemalloc
import types
import unittest.mock
import zipfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hwconsensus.graph as graph_module
import hwconsensus.harness as H
import hwconsensus.noise as noise_module
import hwconsensus.plant as plant_module
from hwconsensus import (
    Schedule,
    analysis,
    csvout,
    builtin_case,
    directed_pairs,
    laplacian,
    load_run,
    load_scenario,
    make_nonlinearity,
    make_plant,
    poly,
    run,
    save_run,
    scenario_from_dict,
    scenario_hash,
    scenario_to_dict,
    step,
    summarize,
    validate_scenario,
    warm_plant,
)
from hwconsensus.cli import main
from hwconsensus.errors import IncompleteLog, NonFiniteValue, ValidationError
from hwconsensus.harness import batch
from hwconsensus.plant import _CATALOG, HAMMERSTEIN, WIENER

from conftest import (
    DECREASING_CUBIC,
    MIXED_CASE,
    RESTART_CASE,
    events_of,
    exploding_plants,
    forced_truncation_scenarios,
    ring_doc,
    two_agent_scenario,
)
from test_controller import _reference_advance
from test_plant import _reference_step


# ---------------------------------------------------------------------------
# built-in benchmark scenarios

def test_builtin_structure_common_to_all_cases():
    for case in (1, 2, 3):
        s = builtin_case(case)
        assert s.label == f"case{case}"
        assert s.n == 4
        assert s.horizon == 100_000
        assert s.log_stride == 1
        assert s.controller.u_star == (1.0, 2.0, 3.0, 4.0)
        assert s.controller.c_M == 55.0
        assert s.controller.initial_u == (0.0, 0.0, 0.0, 0.0)
        assert s.noise.dist == "gaussian"
        assert s.noise.params_dict() == {"variance": 1.0}
        assert s.noise.seed == 1
        assert s.topology.edge_list() == [(1, 2, 1.0), (1, 4, 1.0),
                                          (2, 3, 1.0), (2, 4, 1.0)]


def test_builtin_kinds_per_case():
    assert [a.kind for a in builtin_case(1).agents] == ["hammerstein"] * 4
    assert [a.kind for a in builtin_case(2).agents] == ["wiener"] * 4
    assert [a.kind for a in builtin_case(3).agents] == [
        "wiener", "wiener", "hammerstein", "hammerstein"]


def test_builtin_case1_agent1_coefficients():
    a = builtin_case(1).agents[0]
    assert a.C.coeffs == (1.0, 0.2, 0.0, 0.6)
    assert a.D.coeffs == (1.0, -0.3, -1.2)
    # f(u) = -u^3 - u
    assert a.f(2.0) == -10.0
    assert a.f(0.0) == 0.0
    assert a.f(-1.0) == 2.0


def test_builtin_case3_agent3_coefficients():
    a = builtin_case(3).agents[2]
    assert a.kind == "hammerstein"
    assert a.C.coeffs == (1.0, -0.15, 0.0, 0.5)
    assert a.D.coeffs == (1.0, 0.2, -0.4)
    # f(u) = (u - 1)^3
    assert a.f(2.0) == 1.0
    assert a.f(0.0) == -1.0


def test_builtin_case2_agent4_coefficients():
    a = builtin_case(2).agents[3]
    assert a.kind == "wiener"
    assert a.C.coeffs == (1.0, 0.76, 0.5, 0.6)
    assert a.D.coeffs == (1.0, 0.5)
    # f(v) = v^3 + 1
    assert a.f(2.0) == 9.0
    assert a.f(-1.0) == 0.0


def test_builtin_every_case_distinct_coefficients():
    # the four agents keep the same linear blocks across cases
    for case in (2, 3):
        s = builtin_case(case)
        ref = builtin_case(1)
        for a, b in zip(s.agents, ref.agents):
            assert a.C.coeffs == b.C.coeffs
            assert a.D.coeffs == b.D.coeffs


def test_builtin_overrides_and_noise_off():
    s = builtin_case(2, horizon=500, seed=9, noise_off=True, log_stride=5)
    assert s.horizon == 500
    assert s.log_stride == 5
    assert s.noise.seed == 9
    assert s.noise.dist == "zero"
    assert s.noise.params_dict() == {}


def test_builtin_rejects_unknown_case():
    with pytest.raises(ValidationError):
        builtin_case(4)
    with pytest.raises(ValidationError):
        builtin_case(0)


def test_builtin_directed_pairs_sorted_both_directions():
    s = builtin_case(1)
    assert directed_pairs(s.topology) == [
        (1, 2), (1, 4), (2, 1), (2, 3), (2, 4), (3, 2), (4, 1), (4, 2)]


# ---------------------------------------------------------------------------
# dict / JSON round trip and strict key checking

def test_scenario_dict_round_trip_is_identity():
    s = builtin_case(2)
    d = scenario_to_dict(s)
    s2 = scenario_from_dict(d)
    assert scenario_to_dict(s2) == d
    assert scenario_hash(s2) == scenario_hash(s)


def test_scenario_hash_sensitive_to_content():
    s = builtin_case(1)
    d = scenario_to_dict(s)
    d2 = copy.deepcopy(d)
    d2["controller"]["c_M"] = 56.0
    assert scenario_hash(scenario_from_dict(d2)) != scenario_hash(s)


def test_load_scenario_file_round_trip(tmp_path):
    s = builtin_case(3, horizon=50)
    p = tmp_path / "case3.json"
    p.write_text(json.dumps(scenario_to_dict(s)))
    s2 = load_scenario(str(p))
    assert scenario_hash(s2) == scenario_hash(s)


def test_load_scenario_rejects_bad_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    with pytest.raises(ValidationError):
        load_scenario(str(p))


def _doc():
    return scenario_to_dict(two_agent_scenario(horizon=10, dist="zero"))


@pytest.mark.parametrize("mutate", [
    lambda d: d.__setitem__("typo", 1),
    lambda d: d["agents"][0].__setitem__("order", 3),
    lambda d: d["agents"][1]["f"].__setitem__("scale", 2.0),
    lambda d: d["controller"].__setitem__("gain", 0.5),
    lambda d: d["noise"].__setitem__("rho", 0.1),
])
def test_unknown_keys_rejected_at_every_level(mutate):
    d = _doc()
    mutate(d)
    with pytest.raises(ValidationError, match="unknown key"):
        scenario_from_dict(d)


@pytest.mark.parametrize("drop", ["label", "horizon", "topology", "agents",
                                  "controller", "noise"])
def test_missing_top_level_keys_rejected(drop):
    d = _doc()
    del d[drop]
    with pytest.raises(ValidationError, match="missing key"):
        scenario_from_dict(d)


def test_missing_nested_keys_rejected():
    d = _doc()
    del d["controller"]["c_M"]
    with pytest.raises(ValidationError, match="missing key"):
        scenario_from_dict(d)
    d = _doc()
    del d["agents"][0]["C"]
    with pytest.raises(ValidationError, match="missing key"):
        scenario_from_dict(d)


def test_from_dict_rejects_bad_shapes():
    d = _doc()
    d["horizon"] = 0
    with pytest.raises(ValidationError):
        scenario_from_dict(d)
    d = _doc()
    d["log_stride"] = -2
    with pytest.raises(ValidationError):
        scenario_from_dict(d)
    d = _doc()
    d["controller"]["u_star"] = [1.0, 2.0, 3.0]
    with pytest.raises(ValidationError):
        scenario_from_dict(d)
    d = _doc()
    d["controller"]["initial_u"] = [0.0]
    with pytest.raises(ValidationError):
        scenario_from_dict(d)
    d = _doc()
    d["agents"] = d["agents"][:1]
    with pytest.raises(ValidationError):
        scenario_from_dict(d)
    d = _doc()
    d["agents"][0]["kind"] = "volterra"
    with pytest.raises(ValidationError):
        scenario_from_dict(d)


def test_initial_u_defaults_to_reset_points():
    d = _doc()
    del d["controller"]["initial_u"]
    s = scenario_from_dict(d)
    assert s.controller.initial_u == s.controller.u_star


# ---------------------------------------------------------------------------
# scenario validation

def test_validate_rejects_unstable_linear_block():
    d = _doc()
    d["agents"][0]["C"] = [1, -2]  # root at 0.5, inside the unit disk
    with pytest.raises(ValidationError, match="stability"):
        validate_scenario(scenario_from_dict(d))


def test_validate_rejects_disconnected_topology():
    s = builtin_case(1, horizon=10)
    doc = scenario_to_dict(s)
    doc["topology"] = [[1, 2, 1.0], [3, 4, 1.0]]
    with pytest.raises(ValidationError, match="connected"):
        validate_scenario(scenario_from_dict(doc))


def test_validate_rejects_reset_point_outside_bound():
    # ln 50 = 3.912 < 4
    d = _doc()
    d["controller"]["u_star"] = [1.0, 4.0]
    d["controller"]["c_M"] = 50.0
    with pytest.raises(ValidationError, match="c_M"):
        validate_scenario(scenario_from_dict(d))


def test_validate_rejects_decreasing_gain():
    d = _doc()
    d["agents"][0]["f"] = {"name": "affine", "params": {"beta": -2.0, "gamma": 1.0}}
    with pytest.raises(ValidationError, match="increasing"):
        validate_scenario(scenario_from_dict(d))


def test_a_cubic_that_decreases_near_0_is_refused_naming_its_agent():
    # u^3 - 1e-6 u decreases on |u| < 5.8e-4 only: a grid of the gain's
    # values steps over that interval, the signs of alpha and beta do not
    s = load_scenario(DECREASING_CUBIC)
    H._agent_failure.cache_clear()
    with pytest.raises(ValidationError, match="^agent 1: static gain is not strictly increasing$"):
        validate_scenario(s)
    with pytest.raises(ValidationError, match="^agent 1: "):
        run(s)
    script = ("import sys; from hwconsensus import harness\n"
              "try:\n    harness.validate_scenario(harness.load_scenario(sys.argv[1]))\n"
              "except harness.ValidationError as e:\n    print(sys.flags.optimize, e)\n")
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-O", "-c", script, DECREASING_CUBIC], env=env,
                         capture_output=True, text=True, timeout=120)
    assert (out.returncode, out.stdout, out.stderr) == (
        0, "1 agent 1: static gain is not strictly increasing\n", "")


def test_each_distinct_agent_is_checked_once_per_process(monkeypatch):
    # a seed batch re-validates one scenario per seed; an AgentSpec is frozen,
    # so its stability and gain checks run once, and a failure is still raised
    # every time with its agent's index
    checked = []
    real = H.gain_increases
    monkeypatch.setattr(H, "gain_increases", lambda p: checked.append(p) or real(p))
    H._agent_failure.cache_clear()
    doc = scenario_to_dict(two_agent_scenario(horizon=20))
    doc["agents"][1]["C"] = [1, 0.25]
    batch(scenario_from_dict(doc), [1, 2, 3])
    assert len(checked) == 2  # two distinct specs
    doc["agents"][0]["C"] = [1, 0.0, 0.0, 1.0234567]  # roots inside the stability margin
    for _ in range(2):
        with pytest.raises(ValidationError, match="^agent 1: C has a root of modulus"):
            validate_scenario(scenario_from_dict(doc))


def test_validate_accepts_any_horizon_at_any_stride():
    # verify checks a log of any length and stride one block at a time, so
    # no horizon is refused for the logging it asks for
    d = _doc()
    for horizon, stride in ((200_001, 1), (10 ** 7, 1), (200_001, 10)):
        d["horizon"], d["log_stride"] = horizon, stride
        validate_scenario(scenario_from_dict(d))


# ---------------------------------------------------------------------------
# the loop

def test_run_deterministic_in_memory():
    s = builtin_case(1, horizon=300)
    a = run(s)
    b = run(s)
    assert np.array_equal(a.log.u, b.log.u)
    assert np.array_equal(a.log.sigma, b.log.sigma)
    assert np.array_equal(a.log.y_next, b.log.y_next)
    assert np.array_equal(a.log.z, b.log.z)


def test_run_deterministic_on_disk(tmp_path):
    s = builtin_case(2, horizon=250)
    da, db = tmp_path / "a", tmp_path / "b"
    save_run(run(s), str(da))
    # a day later: the zip members carry no save time
    with unittest.mock.patch("time.time", return_value=time.time() + 86400):
        save_run(run(s), str(db))
    for name in ("log.npz", "summary.json", "meta.json"):
        assert (da / name).read_bytes() == (db / name).read_bytes(), name


def test_master_seed_overrides_scenario_seed():
    s = builtin_case(1, horizon=100)
    base = run(s)
    other = run(s, master_seed=2)
    again = run(s, master_seed=1)
    # the result carries the scenario that ran; the caller's is unchanged
    assert other.seed == other.scenario.noise.seed == 2
    assert s.noise.seed == base.scenario.noise.seed == 1
    assert other.scenario == dataclasses.replace(
        s, noise=dataclasses.replace(s.noise, seed=2))
    assert not np.array_equal(base.log.eps, other.log.eps)
    assert np.array_equal(base.log.eps, again.log.eps)


def test_summary_recomputable_from_log():
    res = run(builtin_case(3, horizon=400))
    redone = summarize(res.log)
    for key in ("final_spread", "final_residual", "total_truncations",
                "sigma_bar_final"):
        assert redone[key] == res.summary[key]


def test_two_agent_identity_gain_sanity():
    # memoryless identity plants, zero noise: the loop is classical
    # first-order consensus with step 1/k. From (1, 2) one step swaps the
    # disagreement sign, the second lands both agents on the average, and
    # the estimates never move again. The pair average is preserved and the
    # bound never fires.
    s = two_agent_scenario(horizon=100_000, dist="zero")
    res = run(s)
    u = res.log.u
    assert abs(u[-1, 0] - u[-1, 1]) < 1e-3
    assert np.all(u[2:] == 1.5)
    assert np.allclose(u.sum(axis=1), 3.0, atol=0, rtol=0)
    assert res.summary["total_truncations"] == [0, 0]
    assert res.summary["final_spread"] == 0.0


# SHA-256 over every log column (name, shape, dtype, raw bytes, NaNs
# included), recorded before the round loop became one flat kernel; any
# change to the summation order, the truncation test or the logging layout
# moves these
GOLDEN_DIGESTS = {
    "case1-noisy-stride1": "3776a16e47e56e32d47196151c4f60cdec6bf6979181e42f0ff2aff4499d3bae",
    "case1-noisy-stride7": "5dd1b3a99a31bfdfbcf026f76879324fafe337eeb6e58027bdb7f70d8527972f",
    "case1-quiet-stride1": "223bfed77bf14ac5136bfe235f1407c28c2ec5686c4e5c66b9f94f3e9e8f3848",
    "case1-quiet-stride7": "acea747a8cd8bd4f1f148f8530ab0341dd9b5f53b613fda8efc05d26de609ed4",
    "case2-noisy-stride1": "723ceb6755c42339105acfcf5203273b3f9ca891a7d3c97561b1adaf1208bbbb",
    "case2-noisy-stride7": "88ae6d330c429c4def4e3b6a82d164b649a942d2ddd07bbd631813e589af4587",
    "case2-quiet-stride1": "a5251d0d8024af28d9fc4f06005214d4c1d019692134d7da03aa592e56b60616",
    "case2-quiet-stride7": "a5ad23ac5fa44fe1a3e8048209f316032b4ded6273251a5ae148ad310fea45aa",
    "case3-noisy-stride1": "ef1a0571833f971b52bacf42f0a0f8d119100e0080fc4c730905d3a0acda07df",
    "case3-noisy-stride7": "4480e39fb3feb83a5a2951248c42da9ad613635604ae797405de60b4d835288c",
    "case3-quiet-stride1": "39b19c1e81513ee4554b5f0ccad064118dadc75649fbf03c9c4178cb454db03e",
    "case3-quiet-stride7": "07710ffcbff52fe9e199f840ff8d0d3fee0e128dd8f96b3580c4829bc5f80357",
    "forced-chain": "e6fbeb171fc1a68c14c49f71ea2b5f2e7138d2b1b8f7c2ef9a54249690c4bc71",
    "forced-square": "3db4990f4c18b9d25a39e2c68c13454341fa1ee103eab5f833dad6679e1e0e6b",
    "forced-pair": "0d2c03a2405511c16133583a3e79ce438dddabeca328159c1ee3d5db831b8443",
}


def _golden_scenarios():
    out = {}
    for case in (1, 2, 3):
        for noise_off in (False, True):
            for stride in (1, 7):
                key = f"case{case}-{'quiet' if noise_off else 'noisy'}-stride{stride}"
                out[key] = builtin_case(case, horizon=2000, noise_off=noise_off,
                                        log_stride=stride)
    out.update((s.label, s) for s in forced_truncation_scenarios())
    return out


def _log_digest(log) -> str:
    h = hashlib.sha256()
    for name in ("u", "sigma", "sigma_prime", "u_prime", "y_next", "O_next", "z", "eps"):
        col = np.ascontiguousarray(getattr(log, name))
        h.update(f"{name}:{col.shape}:{col.dtype.str}:".encode())
        h.update(col.tobytes())
    return h.hexdigest()


def test_golden_log_digests():
    scenarios = _golden_scenarios()
    assert set(scenarios) == set(GOLDEN_DIGESTS)
    got = {key: _log_digest(run(s).log) for key, s in scenarios.items()}
    changed = sorted(key for key in got if got[key] != GOLDEN_DIGESTS[key])
    assert not changed, f"log digests changed for {changed}"


# SHA-256 of (trajectory.csv, edges.csv) as saved from the same runs,
# recorded before the writer became column-wise, when save_run wrote these
# files; they are now what `export` writes of the saved runs. Any change to
# the float formatting, the blank cells, the row order or the store's round
# trip moves these
GOLDEN_FILE_DIGESTS = {
    "case1-noisy-stride1": (
        "ef7f99e1ce42c1b3e1d48b7a5239556b910e7e284353329e9c7dd5bf9164b214",
        "f785455d91df9db67a13d3f01d9c3c4171075cd49fe78957caf1f6f861239087"),
    "case1-noisy-stride7": (
        "b15becbfd6519c2fb6a5ec2a483c06aa70ab17a5f08999ce54dbc28ae60e1079",
        "67a2c279753180f9e2329ca7d937e3539d2efb3e6dab4d115775d8cbcf15e002"),
    "case1-quiet-stride1": (
        "b21ccfd97bb3ac0529443eeec0dd8b28e4768abe016172533a2c21dc92135b74",
        "7e6f941cf3656f77b9e1e4c5a7bc3cb1a0b1ebb3d1634cdfeb45460a05e40ef9"),
    "case1-quiet-stride7": (
        "bfd8f9cbffed7033f5af5993c89868789f21e97853d31f61d63770e6242bafd3",
        "0f732612270cbf3afbf4661d0e32061207ecf23367545067e76c46a6f89a45f6"),
    "case2-noisy-stride1": (
        "276af8cd0c8b3c2ecf637271ea12006d505fdfd9b0c13411d6a00374501ea6c8",
        "2f64d2442f674925aee8f658fc2f703aa13d067f42fc1e37d8e29b0274768320"),
    "case2-noisy-stride7": (
        "5a3b2d6b412fed16a63368d75eba385f644db140065d94bdc90b3375f8c43622",
        "41efdc5a5db3a33673209797cf17c80eb5f30dc6538e34e1bc10e70c82ae2d00"),
    "case2-quiet-stride1": (
        "123cf8b356afb23a6b9f17cf39b75a37ec4bb12bdf76f6a45d66be1136cf966f",
        "b47225440df7b06219dd09b5bc05dde569cfe9bbc41bbe2b25d30872e9e25dbe"),
    "case2-quiet-stride7": (
        "a60c34e9c411551880a0d74d9a6375303b696eb8ff9415a1276a31554fe30e8a",
        "90a63db754f059960b2dc7c970e693f664eddf6a42cb7cc320274c1be2ef514e"),
    "case3-noisy-stride1": (
        "8398ef287b23b31dd265dcc08faf480c5087c8f8b89180b7bcc065babee94b00",
        "4b55f915f4e304154332b2bd874ad664af90f67ddd62cc3587174e61d2327dde"),
    "case3-noisy-stride7": (
        "f50bf42fa9d0c21f4bfced8c017e28965dafdf68e7a83e5c296343da0fa6a5d9",
        "c8010babf563b7dd11293ba5b55141b5d4467b9412239ed54e2b3200c4f49b54"),
    "case3-quiet-stride1": (
        "6b29ca3b3961256ccef42a783884bb3de0cd8569def82cfd8a328253027da5e2",
        "1b0fe4c37c239bfd0142aff73216a9943ccab8aad2de55af881537dec32bd983"),
    "case3-quiet-stride7": (
        "63082dca725e0ff7e168eb949713e3e16b50438102413587d704c74ceb390c49",
        "3953715c071960462071db92408ead142d71846fc12d302bae506bb12a7979c1"),
    "forced-chain": (
        "bb0d1849c8a3726dd8fba439bcd456c4f5b23ed1a0a19e13c3282a969fbff932",
        "d5808267365ca4cb68849ca2ce37f252b04d559b2d261ce408c535cdda4e47ce"),
    "forced-pair": (
        "48ba028ca39e28677f24fa9fac92d12943d6decc7a5000c1d947e2c0c5583518",
        "d18a87e562df31056844044445520ebd52bc255ea0c5869494f49de2b477b52c"),
    "forced-square": (
        "907ca90e30877a712c166f01ccac174ab2fe12d6e0c6a24100da4e3aa9f29e5f",
        "cf5a60e83099314d0ec20a9d24239f3173e590163aa0b046878a069c225d1897"),
}


def test_golden_saved_file_digests(tmp_path):
    scenarios = _golden_scenarios()
    assert set(scenarios) == set(GOLDEN_FILE_DIGESTS)
    changed = []
    for key, s in scenarios.items():
        d = tmp_path / key
        save_run(run(s), str(d))
        assert main(["export", "--log", str(d)]) == 0
        got = tuple(hashlib.sha256((d / name).read_bytes()).hexdigest()
                    for name in ("trajectory.csv", "edges.csv"))
        if got != GOLDEN_FILE_DIGESTS[key]:
            changed.append(key)
    assert not changed, f"saved file digests changed for {changed}"


def test_run_rejects_invalid_scenario():
    s = builtin_case(1, horizon=10)
    bad = dataclasses.replace(
        s, controller=dataclasses.replace(s.controller, c_M=50.0))
    with pytest.raises(ValidationError):
        run(bad)


def test_a_scenario_that_fails_validation_raises_on_every_run():
    # a scenario keeps nothing of a failed validation: each run raises anew
    s = builtin_case(1, horizon=10)
    bad = dataclasses.replace(s, controller=dataclasses.replace(s.controller, c_M=50.0))
    plants = [a.build() for a in bad.agents]
    for args in ((), (7,), (None, plants), (), (7,)):
        with pytest.raises(ValidationError, match=r"ln\(c_M\)"):
            run(bad, *args)
    assert "_round" not in vars(bad)


def test_a_scenario_prepares_its_round_once(monkeypatch):
    # validation, the zero-history plants, the kernel and its arguments are
    # derived at the first run and read by every later run, under any seed
    validated, built = [], []
    real_validate, real_build = H.validate_scenario, H.AgentSpec.build
    monkeypatch.setattr(H, "validate_scenario", lambda s: validated.append(s) or real_validate(s))
    monkeypatch.setattr(H.AgentSpec, "build", lambda a: built.append(a) or real_build(a))
    s = builtin_case(3, horizon=40)
    first = run(s)
    assert len(validated) == 1 and len(built) >= 4
    builds = len(built)
    again = [run(s), *batch(s, [5, 6]), run(s, 5)]
    assert len(validated) == 1 and len(built) == builds
    assert _bits(again[0].log.u) == _bits(first.log.u)
    assert _bits(again[1].log.u) == _bits(again[3].log.u)
    # a new scenario, or the scenario with another seed a run returns, derives its own
    assert _bits(run(builtin_case(3, horizon=40), 5).log.u) == _bits(again[1].log.u)
    assert len(validated) == 2
    run(again[1].scenario)
    assert len(validated) == 3


def test_a_run_and_its_log_mix_the_stream_seeds_once(monkeypatch):
    # the scenario a run returns, with its seed, holds the draw of its edges:
    # the run's blocks, the log's noise, verify and one step's decomposition
    # read it, and a loaded log, or another seed, mixes its own
    mixed = []
    real = H.edge_noise
    counted = lambda spec, keys: mixed.append(spec.seed) or real(spec, keys)  # noqa: E731
    for module in (H, noise_module, analysis):
        monkeypatch.setattr(module, "edge_noise", counted, raising=False)
    s = builtin_case(1, horizon=30, log_stride=3)
    res = run(s, 5)
    log = res.log
    analysis.full_verification(log, s.gains(), s.topology)
    analysis.noise_decomposition(log, 4, 2, s.gains(), laplacian(s.topology))
    assert mixed == [5]
    pairs = directed_pairs(s.topology)
    want = np.column_stack([real(res.scenario.noise, noise_module.pair_keys([p]))(0, 30)
                            for p in pairs])[::3]
    assert _bits(log.noise) == _bits(want)
    run(s, 6)
    assert mixed == [5, 6]


def test_a_topology_mixes_the_pairs_half_of_its_stream_seeds_once(monkeypatch):
    # mix((i << 32) | j) reads no noise seed: runs of one scenario under other
    # seeds, and their logs' noise, mix only the seed into the topology's keys
    keyed = []
    real = graph_module.pair_keys
    monkeypatch.setattr(graph_module, "pair_keys", lambda pairs: keyed.append(pairs) or real(pairs))
    s = builtin_case(1, horizon=30, log_stride=3)
    logs = [run(s, seed).log for seed in (5, 6, 7)]
    assert [log.noise.shape for log in logs] == [(10, 8)] * 3
    assert keyed == [tuple(directed_pairs(s.topology))]


def test_gains_are_built_once_and_handed_out_as_new_lists():
    s = builtin_case(2, horizon=10)
    gains = s.gains()
    assert gains is not s.gains() and all(a is b for a, b in zip(gains, s.gains()))
    gains.clear()
    assert len(s.gains()) == 4
    grid = np.linspace(-2.0, 2.0, 41)
    fresh = [plant_module.static_gain(a.build()) for a in s.agents]
    assert [_bits(g(grid)) for g in s.gains()] == [_bits(g(grid)) for g in fresh]


def test_a_pickled_scenario_and_result_after_a_run_run_alike():
    # what a scenario derives (a compiled kernel, gains) is not pickled: the
    # copy derives its own and runs bit for bit as the original
    s = builtin_case(1, horizon=60, log_stride=3)
    res = run(s)
    s.gains()
    assert res.scenario is s and {"_round", "_gains", "_edge_noise"} <= set(vars(s))
    for back in (pickle.loads(pickle.dumps(s)), pickle.loads(pickle.dumps(res)).scenario):
        assert back == s and not {"_round", "_gains", "_edge_noise"} & set(vars(back))
        again = run(back)
        for name in ("u", "events", "y"):
            assert getattr(again.log, name).tobytes() == getattr(res.log, name).tobytes()
    back = pickle.loads(pickle.dumps(res))
    assert back.log.u.tobytes() == res.log.u.tobytes() and back.summary == res.summary
    assert copy.deepcopy(s) == s and "_round" not in vars(copy.copy(s))


def test_run_initial_plants_length_checked():
    s = builtin_case(1, horizon=10)
    with pytest.raises(ValidationError):
        run(s, initial_plants=[s.agents[0].build()])


@pytest.mark.parametrize("seed", [7.9, True, "7"], ids=["float", "bool", "str"])
def test_run_rejects_a_seed_that_is_not_an_int(seed):
    # the check make_noise_spec applies to a scenario file's seed
    with pytest.raises(ValidationError, match="seed must be an integer"):
        run(builtin_case(1, horizon=20), seed)


def test_run_rejects_a_seed_outside_64_bits(tmp_path):
    # the noise streams read a seed as 64 bits, so 2**64 or -1 would alias a
    # seed in range: two scenarios, one run
    with pytest.raises(ValidationError, match=r"seed must be in 0\.\.2\*\*64 - 1, got 1844"):
        run(builtin_case(1, horizon=20), 2 ** 64)
    doc = scenario_to_dict(builtin_case(1, horizon=20))
    doc["noise"]["seed"] = -1
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match="seed must be in 0..2"):
        load_scenario(str(path))
    for seed in (0, 2 ** 64 - 1):
        assert run(builtin_case(1, horizon=20), seed).seed == seed


def _mismatched_plant(change):
    """Agent 2 of case 3 (wiener) built with one attribute changed."""
    s = builtin_case(3, horizon=10)
    plants = [a.build() for a in s.agents]
    p = plants[1]
    if change == "kind":
        plants[1] = make_plant(HAMMERSTEIN, p.C, p.D, p.f)
    elif change == "C":
        p.C = poly([1.0, 0.6, 0.5, 0.39])
    elif change == "D":
        p.D = poly([1.0, -1.0])
    elif change == "f-name":
        p.f = make_nonlinearity("cubic_affine", {"alpha": 0.0, "beta": -2.0, "gamma": 1.0})
    elif change == "f-params":
        p.f = make_nonlinearity("affine", {"beta": -2.0, "gamma": 1.5})
    elif change == "history":
        p.v_hist = p.v_hist + [0.0]
    elif change == "not-a-plant":
        plants[1] = s.agents[1]
    return s, plants


@pytest.mark.parametrize("change", ["kind", "C", "D", "f-name", "f-params", "history",
                                    "not-a-plant"])
def test_run_rejects_initial_plants_that_are_not_the_scenario(change):
    s, plants = _mismatched_plant(change)
    with pytest.raises(ValidationError, match=r"agent 2|initial_plants\[2\]"):
        run(s, initial_plants=plants)


def test_run_reads_initial_plants_without_mutating_them():
    s = builtin_case(3, horizon=10)
    plants = [warm_plant(a.build(), 0.5) for a in s.agents]
    before = [p.copy() for p in plants]
    warm = run(s, initial_plants=plants)
    assert plants == before
    assert not np.array_equal(warm.log.y_next, run(s).log.y_next)


def test_a_run_from_initial_plants_uses_its_own_plants():
    # the plants given are prepared for that run alone: the scenario's
    # zero-history round, prepared before or after, is left as it was
    s = builtin_case(3, horizon=30)
    zero = run(s)
    plants = [warm_plant(a.build(), 0.5) for a in s.agents]
    warm = run(s, 3, initial_plants=plants)
    fresh = run(builtin_case(3, horizon=30), 3, initial_plants=plants)
    assert _bits(warm.log.u) == _bits(fresh.log.u) and _bits(warm.log.y) == _bits(fresh.log.y)
    assert _bits(warm.log.y) != _bits(run(s, 3).log.y)
    assert _bits(run(s).log.y) == _bits(zero.log.y)
    other = builtin_case(3, horizon=30)
    run(other, initial_plants=plants)  # prepares the zero-history round too
    assert _bits(run(other).log.y) == _bits(zero.log.y)


@pytest.mark.parametrize("stride", [1, 5])
def test_a_run_from_initial_plants_verifies_at_any_stride(tmp_path, capsys, stride):
    # the log keeps copies of the plants the run started from, and a strided
    # log replays its unlogged outputs from them, not from zero histories
    s = builtin_case(1, horizon=50, log_stride=stride)
    plants = [warm_plant(a.build(), 1.0) for a in s.agents]
    res = run(s, initial_plants=plants)
    assert res.log.plants == tuple(plants) and res.log.plants[0] is not plants[0]
    for _ in range(2):  # the replay steps copies of them, so it can be repeated
        report, _ = analysis.full_verification(res.log, s.gains(), s.topology)
        assert report["lemma3_residual"] == 0.0
    d = tmp_path / "r"
    if stride == 1:
        # the stored outputs are read, not replayed: the saved run verifies
        save_run(res, str(d))
        assert main(["verify", "--log", str(d)]) == 0
        assert json.loads((d / "report.json").read_text())["lemma3_residual"] == 0.0
        assert sorted(p.name for p in d.iterdir()) == [
            "log.npz", "meta.json", "metrics.csv", "report.json", "summary.json"]
    else:
        # log.npz holds no histories, so a strided run is refused before any file
        with pytest.raises(ValidationError, match="non-zero histories cannot be saved"):
            save_run(res, str(d))
        assert not d.exists()


# ---------------------------------------------------------------------------
# the round kernel against the scalar references, on whole runs

_SMALL = st.one_of(st.just(0.0), st.floats(-0.3, 0.3))


@st.composite
def _kernel_scenarios(draw):
    """(scenario, initial plants or None): both plant kinds, C and D of
    degree 0-3 with zero coefficients, every nonlinearity, non-unit weights,
    a small c_M so counts are pooled and truncated, strides 1 and 3, warm
    plants, and now and then an initial input that overflows f or, through
    a D coefficient above 1, the next step's output."""
    n = draw(st.integers(2, 5))
    edges = {(draw(st.integers(1, b - 1)), b) for b in range(2, n + 1)}
    for a, b in draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)), max_size=4)):
        if a != b:
            edges.add((min(a, b), max(a, b)))
    agents = []
    for _ in range(n):
        name = draw(st.sampled_from(sorted(_CATALOG)))
        # |c_s| <= 0.3 for s <= 3 keeps C's roots outside the unit disk
        C = [1.0] + draw(st.lists(_SMALL, max_size=3))
        tail = draw(st.lists(st.one_of(st.just(0.0), st.floats(-2.0, 2.0)), max_size=3))
        if 1 + sum(tail) < 0.1 and (name in ("identity", "shifted_cube") or 1 + sum(tail) > -0.1):
            tail = [-d for d in tail]  # D(1) >= 0.1, or <= -0.1 for f decreasing
        sign = 1.0 if 1 + sum(tail) > 0 else -1.0
        params = {"identity": {}, "shifted_cube": {"gamma": draw(st.floats(-1, 1))},
                  "affine": {"beta": sign * draw(st.floats(0.2, 2.0)),
                             "gamma": draw(st.floats(-1, 1))},
                  "cubic_affine": {"alpha": sign * draw(st.floats(0.0, 0.5)),
                                   "beta": sign * draw(st.floats(0.2, 1.5)),
                                   "gamma": draw(st.floats(-1, 1))}}[name]
        agents.append({"kind": draw(st.sampled_from([HAMMERSTEIN, WIENER])), "C": C,
                       "D": [1.0] + tail, "f": {"name": name, "params": params}})
    c_M = draw(st.floats(1.2, 6.0))
    bound = math.log(c_M)
    initial = draw(st.lists(st.floats(-2, 2), min_size=n, max_size=n))
    if draw(st.integers(0, 2)) == 0:
        initial[draw(st.integers(0, n - 1))] = draw(st.sampled_from([5e102, 1e200, 1.5e308]))
    noise = draw(st.sampled_from([("gaussian", {"variance": 4.0}), ("uniform", {"a": 3.0}),
                                  ("gaussian", {"variance": 0.25}), ("zero", {})]))
    s = scenario_from_dict({
        "label": "kernel", "horizon": draw(st.integers(1, 60)),
        "log_stride": draw(st.sampled_from([1, 3])),
        "topology": [[a, b, draw(st.floats(0.1, 3.0))] for a, b in sorted(edges)],
        "agents": agents,
        "controller": {"u_star": [draw(st.floats(-0.9, 0.9)) * bound for _ in range(n)],
                       "c_M": c_M, "initial_u": initial},
        "noise": {"dist": noise[0], "params": noise[1], "seed": draw(st.integers(0, 99))}})
    try:
        validate_scenario(s)
    except ValidationError:
        assume(False)
    plants = None
    if draw(st.booleans()):
        plants = [warm_plant(a.build(), draw(st.floats(-1, 1))) for a in s.agents]
    return s, plants


def _reference_run(s, plants):
    """The rows of u and sigma, the logged outputs and the (step, agent) of
    an abort, or None, from _reference_step per agent and
    _reference_advance per round."""
    plants = [p.copy() for p in plants or [a.build() for a in s.agents]]
    pairs = directed_pairs(s.topology)
    nbrs = analysis.neighbour_columns(s.topology)
    # each edge's stream drawn on its own
    keys = noise_module.pair_keys(pairs)
    eps = np.column_stack([noise_module.edge_noise(s.noise, keys[c:c + 1])(0, s.horizon)
                           for c in range(len(pairs))]).tolist()
    sched = Schedule(c_M=s.controller.c_M)
    u, sigma = list(s.controller.initial_u), [0] * s.n
    us, sigmas, ys_logged = [], [], []
    for k in range(1, s.horizon + 1):
        ys = []
        for i, p in enumerate(plants):
            try:
                ys.append(_reference_step(p, u[i]))
            except (OverflowError, NonFiniteValue):
                return us, sigmas, ys_logged, (k, i + 1)
        us.append(list(u))
        sigmas.append(list(sigma))
        if (k - 1) % s.log_stride == 0:
            ys_logged.append(ys)
        z = [ys[j - 1] + e for (_, j), e in zip(pairs, eps[k - 1])]
        _reference_advance(u, sigma, ys, z, nbrs, list(s.controller.u_star), k, sched)
    return us, sigmas, ys_logged, None


def _bits(x):
    return np.asarray(x, dtype=float).reshape(-1).view(np.int64).tolist()


@settings(max_examples=120, deadline=None)
@given(_kernel_scenarios())
def test_run_matches_the_scalar_references_bit_for_bit(case):
    s, plants = case
    us, sigmas, ys, abort = _reference_run(s, plants)
    if abort is None:
        log = run(s, initial_plants=plants).log
    else:
        with pytest.raises(NonFiniteValue) as exc:
            run(s, initial_plants=plants)
        assert (exc.value.step, exc.value.agent) == abort
        if abort[0] == 1:
            return
        log = exc.value.partial.log
    assert _bits(log.u) == _bits(us)
    assert log.sigma.tolist() == sigmas
    assert _bits(log.y_next[log.logged_rows]) == _bits(ys)


def test_restart_case_runs_restart_and_verify_exactly():
    # the round kernel pools the counts again only after a round that
    # changed one; over seeds whose runs truncate and restart throughout,
    # the runs equal the reference, which pools every round, and verify
    s = load_scenario(RESTART_CASE)
    for seed in range(1, 11):
        res = run(s, seed)
        log = res.log
        assert not analysis.fired(log).all(), seed  # a restart adopts a pooled count
        us, sigmas, _, abort = _reference_run(res.scenario, None)
        assert abort is None
        assert _bits(log.u) == _bits(us), seed
        assert log.sigma.tolist() == sigmas, seed
        report, extras = analysis.full_verification(log, s.gains(), s.topology)
        assert report["lemma3_residual"] == 0.0 and extras["sigma_consistent"], seed
        assert res.summary == summarize(log)


@pytest.mark.parametrize("stride", [1, 10])
def test_mixed_case_runs_as_the_reference_and_verifies_exactly(stride):
    # the round kernel reads each noise row from its block, packs the logged
    # rows into their arrays and tests each candidate against its pooled
    # bound, across the noise-block boundaries at steps 1024 and 2048
    s = dataclasses.replace(load_scenario(MIXED_CASE), log_stride=stride)
    assert s.horizon > 2 * noise_module.BLOCK_ROWS
    assert [a for a, _ in noise_module.row_blocks(s.horizon, 36)][1:3] == [1024, 2048]
    assert [a.kind for a in s.agents].count(HAMMERSTEIN) == 6 == s.n - 6
    assert {a.f.name for a in s.agents} == set(_CATALOG)
    log = run(s).log
    assert len(log.pairs) == 36 and len(log.events) == 168
    us, sigmas, ys, abort = _reference_run(s, None)
    assert abort is None
    assert _bits(log.u) == _bits(us)
    assert log.sigma.tolist() == sigmas
    assert _bits(log.y) == _bits(ys)
    report, extras = analysis.full_verification(log, s.gains(), s.topology)
    assert report["lemma3_residual"] == 0.0 and extras["sigma_consistent"]
    assert extras["decomposition_first_failure"] is None


def _compiles(monkeypatch, names):
    """Record the file name of every compile of generated source whose name
    starts with one of names."""
    real, seen = builtins.compile, []

    def counting(source, filename, *args, **kwargs):
        if filename.startswith(names):
            seen.append(filename)
        return real(source, filename, *args, **kwargs)

    monkeypatch.setattr(builtins, "compile", counting)
    return seen


def test_the_round_kernel_compiles_once_per_shape(monkeypatch):
    H._round_kernel.cache_clear()
    seen = _compiles(monkeypatch, ("<round kernel",))
    results = batch(builtin_case(1, horizon=30), range(1, 9))
    assert len(results) == 8 and seen == ["<round kernel>"]
    run(builtin_case(1, horizon=7, log_stride=3), 11)  # another horizon, stride, seed
    assert len(seen) == 1
    run(builtin_case(2, horizon=7))  # wiener plants: another shape
    assert len(seen) == 2


def test_repeated_steps_compile_once(monkeypatch):
    plant_module._compiled_steps.cache_clear()
    seen = _compiles(monkeypatch, ("<step",))
    p = builtin_case(1).agents[0].build()
    outputs = [step(p, 0.5) for _ in range(10)]
    assert len(seen) == 1 and len(set(outputs)) > 1


# ---------------------------------------------------------------------------
# persistence round trip

LOG_COLUMNS = ("u", "sigma", "sigma_prime", "u_prime", "y_next", "O_next", "z", "eps")


def _logs_equal(a, b):
    assert a.horizon == b.horizon and a.log_stride == b.log_stride
    assert a.pairs == b.pairs
    for name in LOG_COLUMNS:
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert np.array_equal(x, y, equal_nan=True), name


def stored_arrays(log) -> dict:
    """The arrays of log.npz, by name: the log's own u, count events and y."""
    return {"u": log.u, "events": log.events, "y": log.y}


def relog(res, **arrays):
    """res with its log rebuilt from its stored arrays with the given ones
    replaced, by name in log.npz."""
    stored = {**stored_arrays(res.log), **arrays}
    log = analysis.TrajectoryLog(res.scenario, stored["u"], stored["events"], stored["y"])
    return dataclasses.replace(res, log=log)


def test_save_load_round_trip_value_exact(tmp_path):
    res = run(builtin_case(1, horizon=200))
    save_run(res, str(tmp_path / "r"))
    log, s = load_run(str(tmp_path / "r"))
    _logs_equal(log, res.log)
    assert scenario_hash(s) == scenario_hash(res.scenario)
    assert s.noise.seed == res.seed


def test_save_load_round_trip_strided(tmp_path):
    res = run(builtin_case(2, horizon=90, log_stride=7))
    save_run(res, str(tmp_path / "r"))
    log, _ = load_run(str(tmp_path / "r"))
    _logs_equal(log, res.log)
    # estimate columns stay dense, signal columns only on the stride
    assert not np.isnan(log.u).any()
    full_rows = ~np.isnan(log.y_next).any(axis=1)
    assert full_rows.sum() == math.ceil(90 / 7)
    assert np.array_equal(np.nonzero(full_rows)[0], np.arange(0, 90, 7))


def test_save_load_round_trip_with_an_all_nan_logged_edge_row(tmp_path):
    # step 8 is on the stride (1, 8, 15): its output row, and so its z row, is
    # NaN (the noise is redrawn from the seed, so no stored noise can be NaN)
    res = run(builtin_case(1, horizon=20, log_stride=7))
    y = stored_arrays(res.log)["y"].copy()
    y[1] = np.nan
    res = relog(res, y=y)
    assert np.isnan(res.log.z[7]).all()
    save_run(res, str(tmp_path / "r"))
    log, _ = load_run(str(tmp_path / "r"))
    _logs_equal(log, res.log)


def test_load_run_ignores_keys_it_does_not_read(tmp_path):
    # meta.json once also held copies of the scenario's label and log_stride
    res = run(builtin_case(2, horizon=30, log_stride=7))
    d = tmp_path / "r"
    save_run(res, str(d))
    _edit_meta(d, lambda m: m.update(label="case2", log_stride=7))
    log, _ = load_run(str(d))
    _logs_equal(log, res.log)


# values where repr() and a float parser could disagree: signed zero,
# subnormals, the largest finite float, infinities, and both sides of repr's
# switches to exponent notation at 1e16 and 1e-4
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.225073858507201e-308,
               2.2250738585072014e-308, 1.7976931348623157e308, math.inf, -math.inf,
               1e16, 9999999999999998.0, 1.0000000000000002e16,
               1e-4, 0.00010000000000000002, 9.999999999999999e-05, 1e-05, -1.5]


def _float_bits(x: float) -> int:
    return int(np.array(x).view(np.int64))


# quiet and signalling NaNs of either sign, with and without a payload
NAN_BITS = [int(np.array(b, dtype=np.uint64).view(np.int64)) for b in (
    0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000001,
    0x7FF0000000000001, 0xFFFFFFFFFFFFFFFF)]


def _aborted_run(s, round_):
    """The partial RunResult of s when its first plant raises at round round_."""
    with pytest.raises(NonFiniteValue) as exc:
        run(s, initial_plants=exploding_plants(s, agent=1, call=round_))
    return exc.value.partial


@functools.lru_cache(maxsize=None)
def _round_trip_base(base):
    if base == "stride1":
        return run(builtin_case(3, horizon=9))
    if base == "stride7":
        return run(builtin_case(2, horizon=30, log_stride=7))
    if base == "aborted":
        return _aborted_run(builtin_case(1, horizon=40, log_stride=7), 17)
    # a real overflow: the second plant's output passes the largest float at step 2
    doc = scenario_to_dict(two_agent_scenario(horizon=50))
    doc["agents"][1].update(kind="hammerstein", D=[1, 2.0], f={
        "name": "cubic_affine", "params": {"alpha": 1.0, "beta": 1.0, "gamma": 0.0}})
    doc["controller"]["initial_u"] = [0.0, 5e102]
    with pytest.raises(NonFiniteValue) as exc:
        run(scenario_from_dict(doc))
    return exc.value.partial


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from(["stride1", "stride7", "aborted", "diverged"]))
def test_save_load_round_trip_bit_exact(data, base):
    # any stored values, NaN payloads included, come back bit for bit, and the
    # loaded log is the one run builds of them, on every column
    res = _round_trip_base(base)
    bits = st.one_of(st.sampled_from(EDGE_FLOATS).map(_float_bits),
                     st.floats().map(_float_bits), st.sampled_from(NAN_BITS))
    arrays = {"events": data.draw(_event_tables(*res.log.u.shape))}
    for name in ("u", "y"):
        old = stored_arrays(res.log)[name]
        drawn = data.draw(st.lists(bits, min_size=old.size, max_size=old.size))
        arrays[name] = np.array(drawn, dtype=np.int64).view(old.dtype).reshape(old.shape)
    res = relog(res, **arrays)
    with tempfile.TemporaryDirectory() as d:
        save_run(res, d)
        log, _ = load_run(d)
    _logs_equal(log, res.log)
    for name, got in stored_arrays(log).items():
        assert got.tobytes() == arrays[name].tobytes(), name


@st.composite
def _event_tables(draw, K, n):
    """Count events load_run accepts for K steps of n agents: (k, agent) cells
    in order, each agent's counts rising from the initial count 0."""
    cells = sorted(draw(st.sets(st.tuples(st.integers(1, K), st.integers(1, n)),
                                max_size=3 * n)))
    counts = {}
    rows = []
    for k, agent in cells:
        counts[agent] = (draw(st.integers(1, 2 ** 62)) if agent not in counts
                         else counts[agent] + draw(st.integers(1, 2 ** 40)))
        rows.append((k, agent, counts[agent]))
    return np.array(rows, dtype=np.int64).reshape(-1, 3)


# The writer's cell formatting before it skipped NaN cells, copied u cells
# into u_prime and formatted k once per step: one repr per cell. Kept as the
# reference the writer must match byte for byte.
def _reference_format_cells(values, blank_nan=False):
    values = np.asarray(values)
    cells = list(map(repr, values.ravel().tolist()))
    if blank_nan:
        for idx in np.flatnonzero(np.isnan(values)).tolist():
            cells[idx] = ""
    return cells


def _reference_trajectory_blocks(log):
    fc = _reference_format_cells
    K, n = log.u.shape
    agents = fc(np.arange(1, n + 1))
    yield (fc(np.repeat(np.arange(1, K + 1), n)), agents * K,
           *(fc(col) for col in (log.u, log.sigma, log.sigma_prime, log.u_prime)),
           fc(log.y_next, blank_nan=True), fc(log.O_next, blank_nan=True))


def _reference_edge_blocks(log):
    fc = _reference_format_cells
    m = len(log.pairs)
    observers = fc([i for i, _ in log.pairs])
    observed = fc([j for _, j in log.pairs])
    steps = np.arange(0, len(log.z), log.log_stride)  # every logged step, whatever its cells
    yield (fc(np.repeat(steps + 1, m)), observers * len(steps),
           observed * len(steps), fc(log.z[steps]), fc(log.eps[steps]))


HEADERS = {"trajectory": "k,agent,u,sigma,sigma_prime,u_prime,y_next,O_next",
           "edges": "k,i,j,z,eps"}


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([1, 7]), st.integers(1, 20), st.sampled_from([2, 3]))
def test_writer_bytes_match_one_repr_per_cell(data, stride, K, n):
    pairs = [(1, 2), (2, 1)] + ([(2, 3), (3, 2)] if n == 3 else [])
    bits = st.one_of(st.sampled_from(EDGE_FLOATS).map(_float_bits),
                     st.floats().map(_float_bits), st.sampled_from(NAN_BITS))

    def floats(width):
        drawn = data.draw(st.lists(bits, min_size=K * width, max_size=K * width))
        return np.array(drawn, dtype=np.int64).view(np.float64).reshape(K, width)

    def ints():
        drawn = data.draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1),
                                   min_size=K * n, max_size=K * n))
        return np.array(drawn, dtype=np.int64).reshape(K, n)

    def strided(width):
        # logged rows mix NaN and values; rows off the stride are all NaN
        out = floats(width)
        out[np.arange(K) % stride != 0] = np.nan
        return out

    u = floats(n)
    # u_prime copies u (restart-free rounds), negates it (0.0 against -0.0,
    # a NaN's sign) or is drawn on its own
    how = np.array(data.draw(st.lists(st.integers(0, 2), min_size=K * n,
                                      max_size=K * n))).reshape(K, n)
    u_prime = np.where(how == 0, u, np.where(how == 1, -u, floats(n)))
    # every column drawn on its own: a plain namespace, not a TrajectoryLog,
    # which would derive all but u, the events and y; the writer reads u, y
    # and the blocks of the derived columns' logged rows, the reference the
    # dense columns
    log = types.SimpleNamespace(
        log_stride=stride, pairs=pairs, u=u, sigma=ints(), sigma_prime=ints(),
        u_prime=u_prime, y_next=strided(n), O_next=strided(n), z=strided(len(pairs)),
        eps=strided(len(pairs)))
    log.y = log.y_next[::stride]
    # the writer in blocks of 3 rows (bounded in rows), and of 2 or 1 rows
    # (5 cells over 2 or 4 columns), the reference in one block
    for bound, value in (("BLOCK_ROWS", 3), ("BLOCK_CELLS", 5)):
        with tempfile.TemporaryDirectory() as d, \
                unittest.mock.patch.object(noise_module, bound, value):
            blocks = [(a, analysis.LogRows(
                log.sigma[a:b], log.sigma_prime[a:b], log.u_prime[a:b],
                *(column[a:b][-a % stride::stride] for column in (log.eps, log.z, log.O_next))))
                for a, b in noise_module.row_blocks(K, max(n, len(pairs)))]
            csvout._write_rows(log, blocks, d)
            for name, reference in (("trajectory", _reference_trajectory_blocks),
                                    ("edges", _reference_edge_blocks)):
                got, want = os.path.join(d, name + ".csv"), os.path.join(d, name + ".ref")
                csvout.write_csv(want, HEADERS[name], reference(log))
                with open(got, "rb") as fh_got, open(want, "rb") as fh_want:
                    assert fh_got.read() == fh_want.read(), (name, bound)


I64 = np.iinfo(np.int64)


@pytest.mark.parametrize("values", [
    [], [0], [7, 7, 7], [3, 0, 2, 1, 3, 0],          # empty, one value, a count column
    [-5, -3, -5, -4], [-1, 0, 1, 0],                # negative values
    [I64.max, I64.max - 1, I64.max], [I64.min, I64.min + 2, I64.min + 1],
    [I64.min, I64.max], [I64.min, 0, I64.max, 0],   # spans past int64
    [0, 10 ** 6, 5, 5], [1, 2, 4, 8],               # spans wider than the array
    np.arange(12).reshape(3, 4) % 5,                # a 2-d array, row-major
], ids=lambda v: repr(np.asarray(v).tolist())[:40])
def test_format_cells_of_integers_match_one_repr_per_cell(values):
    values = np.array(values, dtype=np.int64)
    assert csvout.format_cells(values) == _reference_format_cells(values)


def test_the_summary_is_derived_once_on_first_read_unless_given(monkeypatch):
    calls = []
    monkeypatch.setattr(H, "summarize", lambda log: calls.append(1) or summarize(log))
    res = run(builtin_case(1, horizon=60, seed=4))
    assert calls == []
    assert res.summary == summarize(res.log) and res.summary is res.summary
    assert calls == [1]
    given = H.RunResult(log=res.log, summary={}, wall_time=0.0)
    assert given.summary == {} and dataclasses.replace(given).summary == {}
    assert calls == [1]


def test_summary_and_meta_files(tmp_path):
    res = run(builtin_case(1, horizon=60, seed=4))
    save_run(res, str(tmp_path / "r"))
    summary = json.loads((tmp_path / "r" / "summary.json").read_text())
    assert summary == res.summary
    assert "wall_time" not in summary
    meta = json.loads((tmp_path / "r" / "meta.json").read_text())
    assert set(meta) == {"scenario_hash", "scenario", "arrays"}
    assert meta["scenario"]["noise"]["seed"] == 4
    assert meta["scenario_hash"] == scenario_hash(res.scenario)
    assert meta["scenario"] == scenario_to_dict(res.scenario)
    stored = {"u": res.log.u, "events": res.log.events, "y": res.log.y_next}
    assert meta["arrays"] == {
        name: {"dtype": a.dtype.str, "shape": list(a.shape),
               "sha256": hashlib.sha256(a.tobytes()).hexdigest()}
        for name, a in stored.items()}


def test_the_store_holds_what_the_round_loop_keeps(tmp_path):
    res = run(builtin_case(3, horizon=30, log_stride=7))
    save_run(res, str(tmp_path / "r"))
    stored = _stored(tmp_path / "r" / "log.npz")
    rows = np.arange(0, 30, 7)
    assert sorted(stored) == ["events", "u", "y"]
    for name, want in (("u", res.log.u), ("events", res.log.events),
                       ("y", res.log.y_next[rows])):
        assert stored[name].dtype == want.dtype and np.array_equal(stored[name], want), name
    # the events are the changes of the counts, and the last round's
    events = res.log.events
    assert np.array_equal(events_of(res.log.sigma), events[events[:, 0] < 30])


def test_load_run_missing_directory(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_run(str(tmp_path / "nope"))


def test_load_run_without_the_store_raises_file_not_found(tmp_path):
    d = saved_case(tmp_path)
    (d / "log.npz").unlink()
    with pytest.raises(FileNotFoundError, match="log.npz"):
        load_run(str(d))


def saved_case(tmp_path, name="r"):
    """A saved case-1 run (4 agents, 8 directed edges, horizon 20, stride 1)."""
    d = tmp_path / name
    save_run(run(builtin_case(1, horizon=20)), str(d))
    return d


def _edit_meta(d, fn):
    meta = json.loads((d / "meta.json").read_text())
    fn(meta)
    (d / "meta.json").write_text(json.dumps(meta))


def _edit_bytes(path, fn):
    path.write_bytes(fn(path.read_bytes()))


def _stored(path) -> dict:
    with np.load(path) as npz:
        return {name: npz[name] for name in npz.files}


def _resave_arrays(d, fn):
    """Rewrite log.npz with fn applied to its arrays; meta.json keeps its records."""
    arrays = _stored(d / "log.npz")
    fn(arrays)
    np.savez(d / "log.npz", **arrays)


def rewrite_store(d, fn):
    """Rewrite log.npz with fn applied to its arrays, and meta.json's records
    of them to match: a store only its values can reject."""
    arrays = _stored(d / "log.npz")
    fn(arrays)
    np.savez(d / "log.npz", **arrays)
    _edit_meta(d, lambda m: m.__setitem__("arrays", H._array_records(arrays)))


def old_store(d):
    """Rewrite the saved run d as an older store holds it: the counts on
    every step and the noise, sigma and eps, in place of the count events."""
    log, _ = load_run(str(d))
    rewrite_store(d, lambda a: (a.pop("events"), a.update(sigma=log.sigma, eps=log.noise)))


def _events(fn):
    """Rewrite the count events of the store with fn, records to match."""
    return lambda d: rewrite_store(d, lambda a: _set(a, "events", fn))


def flip_bit(d, name, index, bit=0):
    """Flip one bit of the element at index of array name, in log.npz itself."""
    path = d / "log.npz"
    a = _stored(path)[name]
    raw = bytearray(path.read_bytes())
    # the arrays are stored uncompressed, so their bytes appear as they are
    offset = raw.index(a.tobytes()) + int(np.ravel_multi_index(index, a.shape)) * a.itemsize
    raw[offset + bit // 8] ^= 1 << bit % 8
    path.write_bytes(bytes(raw))


def _add_raw_member(d, name, data=b"not an array"):
    with zipfile.ZipFile(d / "log.npz", "a") as archive:
        archive.writestr(name, data)


def _member_not_npy(d, name, fn):
    """Rewrite log.npz with member name.npy holding fn of its npy bytes."""
    with zipfile.ZipFile(d / "log.npz") as archive:
        raw = archive.read(f"{name}.npy")
    _resave_arrays(d, lambda a: a.pop(name))
    _add_raw_member(d, f"{name}.npy", fn(raw))


def _meta_of_the_strided_run(d):
    # a valid meta.json, of the same case and seed logged at stride 7
    other = d.parent / "strided"
    save_run(run(builtin_case(1, horizon=20, log_stride=7)), str(other))
    (d / "meta.json").write_bytes((other / "meta.json").read_bytes())


def _set(a, name, fn):
    a[name] = fn(a[name].copy())


def _cell(index, value):
    def fn(x):
        x[index] = value(x) if callable(value) else value
        return x
    return fn


def _as_text_with(index, cell):
    def fn(x):
        x = x.astype(str)
        x[index] = cell
        return x
    return fn


DIGEST = "does not match its dtype, shape and SHA-256 in meta.json"

# each corrupts saved_case, with the message load_run raises. The cases named
# trajectory-* make the damage their name says (a copied cell, a missing or
# extra row, an unknown agent, a value that is not a float64 or int64, bytes
# that are not the file's format) to the arrays that hold those columns: u
# and y per agent and the count events; row 9 is step 10 and column 1 agent
# 2. The events-* cases hold events the round kernel cannot write, with
# records to match; saved_case's events are (2, 1, 1), (2, 2, 1),
# (3, 1, 2), (3, 2, 2), (3, 3, 1), ...
CORRUPTIONS = {
    # a digest mismatch: a copy of step 10, agent 1 standing in for agent 2
    "trajectory-duplicate-row": (
        lambda d: _resave_arrays(d, lambda a: _set(a, "u", _cell((9, 1), lambda x: x[9, 0]))),
        f"log.npz: array u {DIGEST}"),
    # wrong shapes
    "trajectory-missing-row": (
        lambda d: _resave_arrays(d, lambda a: _set(a, "u", lambda x: np.delete(x, 9, axis=0))),
        "log.npz: array u has shape (19, 4), expected (20, 4)"),
    "trajectory-missing-last-row": (
        lambda d: _resave_arrays(d, lambda a: _set(a, "u", lambda x: x[:-1])),
        "log.npz: array u has shape (19, 4), expected (20, 4)"),
    # a row for step 21 of a 20-step run
    "trajectory-step-out-of-range": (
        lambda d: _resave_arrays(d, lambda a: _set(a, "y", lambda x: np.vstack([x, x[-1:]]))),
        "log.npz: array y has shape (21, 4), expected (20, 4)"),
    "trajectory-unknown-agent": (
        lambda d: _resave_arrays(d, lambda a: _set(a, "u", lambda x: np.hstack([x, x[:, :1]]))),
        "log.npz: array u has shape (20, 5), expected (20, 4)"),
    # wrong dtypes
    "trajectory-malformed-value": (
        lambda d: _resave_arrays(d, lambda a: _set(a, "u", _as_text_with((9, 1), "1.5e"))),
        "log.npz: array u has dtype <U"),
    "trajectory-fractional-sigma": (
        lambda d: _resave_arrays(d, lambda a: _set(
            a, "events", lambda x: _cell((4, 2), 3.5)(x.astype(np.float64)))),
        "log.npz: array events has dtype float64, expected int64"),
    "trajectory-sigma-beyond-int64": (
        lambda d: _resave_arrays(d, lambda a: _set(
            a, "events", lambda x: _cell((4, 2), 2 ** 63)(x.astype(np.uint64)))),
        "log.npz: array events has dtype uint64, expected int64"),
    # a member that is not an npy file: np.load hands its raw bytes back
    "trajectory-not-utf8": (
        lambda d: _member_not_npy(d, "u", lambda b: b"k,agent,u\n1,1,0.0\n\xff\xfe"),
        "log.npz: array u: u.npy is not an npy file"),
    # count events the round kernel cannot write
    "events-out-of-order": (
        _events(lambda x: x[[0, 2, 1] + list(range(3, len(x)))]),
        "log.npz: array events: the event (k=2, agent 2, count 1) is out of order after "
        "(k=3, agent 1)"),
    "events-same-cell-twice": (
        _events(lambda x: np.insert(x, 1, [2, 1, 2], axis=0)),
        "log.npz: array events: the event (k=2, agent 1, count 2) is out of order after "
        "(k=2, agent 1)"),
    "events-step-zero": (
        _events(_cell((0, 0), 0)),
        "log.npz: array events: the event (k=0, agent 1, count 1) has a step outside 1..20"),
    "events-step-past-the-run": (
        _events(lambda x: np.vstack([x, [[21, 1, 99]]])),
        "log.npz: array events: the event (k=21, agent 1, count 99) has a step outside 1..20"),
    "events-unknown-agent": (
        _events(_cell((4, 1), 5)),
        "log.npz: array events: the event (k=3, agent 5, count 1) names an agent outside 1..4"),
    "events-agent-zero": (
        _events(_cell((0, 1), 0)),
        "log.npz: array events: the event (k=2, agent 0, count 1) names an agent outside 1..4"),
    "events-count-not-rising": (
        _events(_cell((2, 2), 1)),
        "log.npz: array events: the event (k=3, agent 1, count 1) does not rise from the "
        "agent's count 1 at k=2"),
    "events-wrong-shape": (
        _events(lambda x: np.hstack([x, x[:, :1]])),
        "log.npz: array events has shape (48, 4), expected (48, 3)"),
    "events-wrong-dtype": (
        _events(lambda x: x.astype(np.int32)),
        "log.npz: array events has dtype int32, expected int64"),
    "events-not-a-table": (
        _events(lambda x: x.ravel()),
        "log.npz: array events has shape (144,), expected (144, 3)"),
    # the set of arrays
    "missing-array": (lambda d: _resave_arrays(d, lambda a: a.pop("events")),
                      "log.npz holds ['u.npy', 'y.npy'], "
                      "expected ['events.npy', 'u.npy', 'y.npy']"),
    "extra-array": (lambda d: _resave_arrays(d, lambda a: a.update(z=a["y"])),
                    "log.npz holds ['events.npy', 'u.npy', 'y.npy', 'z.npy'], "
                    "expected ['events.npy', 'u.npy', 'y.npy']"),
    # the store written before the count events: the counts on every step and
    # the noise, records to match; run --scenario with meta.json's scenario
    # writes the run again as it is stored now
    "older-store-layout": (old_store,
                           "log.npz holds ['eps.npy', 'sigma.npy', 'u.npy', 'y.npy'], "
                           "expected ['events.npy', 'u.npy', 'y.npy']"),
    # a member without .npy: np.load hands its raw bytes back
    "raw-member": (lambda d: _add_raw_member(d, "u"),
                   "log.npz holds ['events.npy', 'u', 'u.npy', 'y.npy'], "
                   "expected ['events.npy', 'u.npy', 'y.npy']"),
    # zip's CRC-32 catches the flip before the digest does
    "flipped-bit": (lambda d: flip_bit(d, "y", (9, 1)),
                    "log.npz: array y: Bad CRC-32 for file 'y.npy'"),
    "truncated": (lambda d: _edit_bytes(d / "log.npz", lambda b: b[:len(b) // 2]),
                  "log.npz is not an npz archive: File is not a zip file"),
    "not-zip": (lambda d: (d / "log.npz").write_text("k,agent,u\n1,1,0.0\n"),
                "log.npz is not an npz archive: This file contains pickled (object) data"),
    "object-array": (lambda d: _resave_arrays(d, lambda a: a.update(u=a["u"].astype(object))),
                     "log.npz: array u: Object arrays cannot be loaded when "
                     "allow_pickle=False"),
    # a meta.json and a store of different runs
    "meta-of-another-run": (_meta_of_the_strided_run,
                            "log.npz: array y has shape (20, 4), expected (3, 4)"),
    "meta-record-edited": (lambda d: _edit_meta(
        d, lambda m: m["arrays"]["events"].__setitem__("sha256", "0" * 64)),
        f"log.npz: array events {DIGEST}"),
}


@pytest.mark.parametrize("case", CORRUPTIONS)
def test_load_run_rejects_corrupt_log_files(tmp_path, case):
    d = saved_case(tmp_path)
    load_run(str(d))
    edit, message = CORRUPTIONS[case]
    edit(d)
    with pytest.raises(IncompleteLog) as exc:
        load_run(str(d))
    assert str(exc.value).startswith(message)


def test_load_run_rejects_int_cells_numpy_reads_through_float(tmp_path):
    # counts stored as float64 are rejected even when every one is a whole
    # number that would convert back exactly: the loader casts nothing
    d = saved_case(tmp_path)
    _resave_arrays(d, lambda a: a.update(events=a["events"] + 0.0))
    with pytest.raises(IncompleteLog) as exc:
        load_run(str(d))
    assert str(exc.value) == "log.npz: array events has dtype float64, expected int64"


def test_load_run_accepts_what_int_and_float_read(tmp_path):
    # the same arrays deflated (np.savez_compressed) are the same store: np.load
    # reads them and every dtype, shape and digest matches
    res = run(builtin_case(1, horizon=20))
    d = tmp_path / "r"
    save_run(res, str(d))
    arrays = _stored(d / "log.npz")
    np.savez_compressed(d / "log.npz", **arrays)
    with zipfile.ZipFile(d / "log.npz") as archive:
        assert {i.compress_type for i in archive.infolist()} == {zipfile.ZIP_DEFLATED}
    log, _ = load_run(str(d))
    _logs_equal(log, res.log)


@functools.lru_cache(maxsize=None)
def _order_base(stride):
    return run(builtin_case(2, horizon=30, log_stride=stride))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([1, 7]), st.sampled_from(["u", "events", "y"]),
       st.sampled_from(["swap", "delete", "duplicate"]))
def test_load_run_names_the_first_line_out_of_order(data, stride, name, edit):
    # one array with two rows swapped, one row deleted or one duplicated:
    # load_run names that array, with its shape or its digest; a swap of two
    # equal rows changes nothing, and the log loads unchanged
    res = _order_base(stride)
    want = stored_arrays(res.log)[name]
    # the last row, where a deletion leaves a row missing and a duplicate
    # runs past the end, is drawn as often as all others
    a = data.draw(st.one_of(st.just(len(want) - 1), st.integers(0, len(want) - 1)))
    if edit == "swap":
        b = data.draw(st.integers(0, len(want) - 1).filter(lambda b: b != a))
        got = want.copy()
        got[[a, b]] = got[[b, a]]
    elif edit == "delete":
        got = np.delete(want, a, axis=0)
    else:
        got = np.insert(want, a, want[a], axis=0)
    with tempfile.TemporaryDirectory() as d:
        save_run(res, d)
        arrays = _stored(os.path.join(d, "log.npz"))
        arrays[name] = got
        np.savez(os.path.join(d, "log.npz"), **arrays)
        if got.tobytes() == want.tobytes():
            _logs_equal(load_run(d)[0], res.log)
            return
        with pytest.raises(IncompleteLog) as exc:
            load_run(d)
    if got.shape == want.shape:
        assert str(exc.value) == f"log.npz: array {name} {DIGEST}"
    else:
        assert str(exc.value) == \
            f"log.npz: array {name} has shape {got.shape}, expected {want.shape}"


@functools.lru_cache(maxsize=None)
def _saved_store(base):
    """The log.npz bytes of a saved base run, and each array's data span in them."""
    with tempfile.TemporaryDirectory() as d:
        save_run(_round_trip_base(base), d)
        with open(os.path.join(d, "log.npz"), "rb") as fh:
            raw = fh.read()
        spans = [(raw.index(a.tobytes()), raw.index(a.tobytes()) + a.nbytes)
                 for a in _stored(os.path.join(d, "log.npz")).values()]
    return raw, spans


@settings(max_examples=80, deadline=None)
@given(st.data(), st.sampled_from(["stride7", "aborted"]))
def test_a_flipped_bit_in_the_store_is_rejected_or_changes_nothing(data, base):
    # a flip in any array's data is rejected; elsewhere it may hit a zip
    # header field zipfile does not read, and the log loads unchanged
    raw, spans = _saved_store(base)
    offset = data.draw(st.one_of(
        st.integers(0, len(raw) - 1),
        st.sampled_from(spans).flatmap(lambda span: st.integers(span[0], span[1] - 1))))
    flipped = bytearray(raw)
    flipped[offset] ^= 1 << data.draw(st.integers(0, 7))
    with tempfile.TemporaryDirectory() as d:
        save_run(_round_trip_base(base), d)
        with open(os.path.join(d, "log.npz"), "wb") as fh:
            fh.write(flipped)
        try:
            log, _ = load_run(d)
        except IncompleteLog:
            return
    assert not any(a <= offset < b for a, b in spans), offset
    _logs_equal(log, _round_trip_base(base).log)


_UNDER_O = """
import contextlib, io, json, sys
from hwconsensus import load_run
from hwconsensus.cli import main
from hwconsensus.errors import IncompleteLog
for d in sys.argv[1:]:
    try:
        load_run(d)
        message = None
    except IncompleteLog as e:
        message = str(e)
    out = [sys.flags.optimize, message]
    for command in ("verify", "plotdata", "export"):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            out += [main([command, "--log", d]), err.getvalue()]
    print(json.dumps(out))
"""


def test_store_rejections_hold_under_python_O(tmp_path):
    # no rejection may depend on assert, which -O compiles away: load_run
    # raises, verify exits 1 and plotdata and export 3, each with the message
    # and no traceback
    dirs = []
    for case, (edit, _) in CORRUPTIONS.items():
        dirs.append(saved_case(tmp_path / case))
        edit(dirs[-1])
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-O", "-c", _UNDER_O, *map(str, dirs)], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == len(CORRUPTIONS)
    for (case, (_, message)), line in zip(CORRUPTIONS.items(), lines):
        optimize, got, verify, verify_err, plot, plot_err, export, export_err = json.loads(line)
        assert optimize == 1 and got.startswith(message), case
        assert verify == 1 and verify_err == f"incomplete log: {got}\n", case
        assert plot == 3 and plot_err == f"unreadable run: {got}\n", case
        assert export == 3 and export_err == f"unreadable run: {got}\n", case


def test_load_run_rejects_scenario_hash_mismatch(tmp_path):
    d = saved_case(tmp_path)
    _edit_meta(d, lambda m: m["scenario"]["controller"].__setitem__("c_M", 56.0))
    with pytest.raises(IncompleteLog, match="does not match its scenario_hash"):
        load_run(str(d))


@pytest.mark.parametrize("edit", [
    lambda m: m["arrays"].pop("u"),
    lambda m: m["arrays"]["u"].pop("shape"),
    lambda m: m["arrays"]["u"].__setitem__("shape", []),
    lambda m: m["arrays"].__setitem__("u", "20"),
], ids=["no-record", "no-shape", "empty-shape", "record-not-object"])
def test_load_run_rejects_a_record_of_u_without_its_rows(tmp_path, edit):
    # the rows of the run are read from the shape meta.json records for u
    d = saved_case(tmp_path)
    _edit_meta(d, edit)
    with pytest.raises(IncompleteLog) as exc:
        load_run(str(d))
    assert str(exc.value) == f"log.npz: array u {DIGEST}"


def test_load_run_rejects_horizon_beyond_scenario(tmp_path):
    d = saved_case(tmp_path)
    _edit_meta(d, lambda m: m["arrays"]["u"]["shape"].__setitem__(0, 21))
    with pytest.raises(IncompleteLog, match="log.npz: array u has 21 rows in meta.json, not "
                                            "a step count from 1 to the scenario's 20"):
        load_run(str(d))


# ---------------------------------------------------------------------------
# batch

def test_batch_empty_seed_list_rejected():
    with pytest.raises(ValidationError):
        batch(two_agent_scenario(horizon=10, dist="zero"), [])


def test_batch_duplicate_seeds_warn_but_run():
    s = two_agent_scenario(horizon=50)
    with pytest.warns(UserWarning):
        results = batch(s, [3, 3])
    assert len(results) == 2
    assert np.array_equal(results[0].log.u, results[1].log.u)


def test_batch_results_in_seed_order():
    s = two_agent_scenario(horizon=40)
    results = batch(s, [5, 1, 2])
    assert [r.seed for r in results] == [5, 1, 2]
    lone = run(s, master_seed=1)
    assert np.array_equal(results[1].log.eps, lone.log.eps)


def test_batch_parallel_matches_serial():
    s = builtin_case(1, horizon=50)
    serial = batch(s, [1, 2])
    parallel = batch(s, [1, 2], workers=2)
    for a, b in zip(serial, parallel):
        assert a.seed == b.seed
        assert np.array_equal(a.log.u, b.log.u)
        assert np.array_equal(a.log.y_next, b.log.y_next)


def test_a_pickled_scenario_keeps_every_nonlinearity():
    # batch workers return their results, scenario included, by pickle, which compiles f anew
    params = {"identity": {}, "affine": {"beta": 1.25, "gamma": -0.5},
              "cubic_affine": {"alpha": 0.25, "beta": 0.75, "gamma": 0.5},
              "shifted_cube": {"gamma": 0.125}}
    doc = scenario_to_dict(builtin_case(3))
    for a, name in zip(doc["agents"], sorted(_CATALOG)):
        a["f"] = {"name": name, "params": params[name]}
    s = scenario_from_dict(doc)
    back = pickle.loads(pickle.dumps(s))
    assert back == s
    grid = np.linspace(-3.0, 3.0, 101)
    for g, h in zip(s.gains(), back.gains()):
        assert _bits(g(grid)) == _bits(h(grid))


# ---------------------------------------------------------------------------
# block-wise noise and what a run holds

@pytest.mark.parametrize("block", [1, 3, 7])
def test_noise_drawn_block_wise_is_exact_and_bounded(block, monkeypatch):
    # the streams are counter-based: a run drawing its noise block steps at a
    # time, and its log redrawing it so, logs the bits of one drawing all 40
    # steps at once, also up to an abort, and neither asks for more than a block
    scenarios = [builtin_case(2, horizon=40, log_stride=stride) for stride in (1, 3, 7)]
    aborted = builtin_case(1, horizon=40, log_stride=3)
    want = [_log_digest(run(s).log) for s in scenarios]
    want.append(_log_digest(_aborted_run(aborted, 17).log))
    real, sizes = noise_module.draw_block, []
    monkeypatch.setattr(noise_module, "draw_block",
                        lambda *args: sizes.append(args[4]) or real(*args))  # args[4]: rows
    monkeypatch.setattr(noise_module, "BLOCK_ROWS", block)
    got = [_log_digest(run(s).log) for s in scenarios]
    got.append(_log_digest(_aborted_run(aborted, 17).log))
    assert got == want
    assert sizes and max(sizes) <= block


@functools.lru_cache(maxsize=1)
def _ring_200():
    """A 200-agent ring of 400 directed edges, 1100 steps at stride 1."""
    return scenario_from_dict(ring_doc(200, horizon=1100, log_stride=1))


def test_a_wide_run_draws_noise_blocks_bounded_in_cells(monkeypatch):
    # 400 directed edges: a noise block holds BLOCK_CELLS // 400 = 163 rows,
    # 65 200 cells, where a block of BLOCK_ROWS rows would hold 409 600
    s = _ring_200()
    real, blocks = noise_module.draw_block, []
    monkeypatch.setattr(noise_module, "draw_block",
                        lambda *args: blocks.append((args[4], len(args[2]))) or real(*args))
    log = run(s).log
    assert sum(rows for rows, _ in blocks) == s.horizon == len(log.u)
    assert max(rows * edges for rows, edges in blocks) <= noise_module.BLOCK_CELLS
    assert max(rows for rows, _ in blocks) == noise_module.BLOCK_CELLS // 400


def test_export_of_a_wide_run_holds_blocks_bounded_in_cells(tmp_path):
    # export formats one block of row_blocks at a time: 163 steps of 200
    # agents, not BLOCK_ROWS steps. The log's derived columns are read
    # before tracing, and the run is untraced, so the peak is the writer's
    # (26 MiB in blocks of 163 steps, 130 MiB in blocks of 1024)
    log = run(_ring_200()).log
    for column in (log.sigma, log.sigma_prime, log.u_prime, log.logged_z, log.logged_O):
        assert len(column) == 1100
    tracemalloc.start()
    try:
        csvout.export_csv(log, str(tmp_path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "trajectory.csv").stat().st_size > 1100 * 200 * 40
    assert peak < 48 * 2 ** 20


def test_a_strided_run_holds_no_dense_derived_columns():
    # u and sigma are kept on every step, the outputs and noise on the logged
    # steps only. The peak allows u and sigma, once more their size for the
    # pooled counts summarize derives and the sigma_prime + 1 it compares,
    # and a half more for the rest; the dense derived columns and noise
    # drawn for every step up front take more than 6 times u and sigma
    run(builtin_case(1, horizon=10))  # the round kernel compiled
    tracemalloc.start()
    try:
        log = run(builtin_case(1, horizon=20_000, log_stride=100)).log
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert log.y.shape == (200, 4) and log.noise.shape == (200, 8)
    assert peak < 2.5 * (log.u.nbytes + log.sigma.nbytes)


def test_a_strided_log_keeps_no_dense_column_it_was_read_for():
    # y_next, O_next, z and eps of a strided log are formed on each read and
    # dropped: kept, these 20 000 rows of 4 agents and 8 edges would hold
    # 3.8 MB, nearly all NaN, beside the 1.9 MB of the log's one row pass
    log = run(builtin_case(1, horizon=20_000, log_stride=100)).log
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for name, width in (("y_next", 4), ("O_next", 4), ("z", 8), ("eps", 8)):
            column = getattr(log, name)
            assert column.shape == (20_000, width) and np.isnan(column[1:100]).all()
            assert column[::100].view(np.int64).tolist() == \
                getattr(log, name)[::100].view(np.int64).tolist()
        del column
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept <= sum(column.nbytes for column in log._rows) + 2 ** 20


def test_a_long_run_holds_no_per_step_counts():
    # the loop keeps u on every step, y on the logged steps and the count
    # events; the fixed margin covers y, the events and one block of noise
    # with its rows, under the 1.6 MB that an int64 count per step would add
    run(builtin_case(1, horizon=10))  # the round kernel compiled
    tracemalloc.start()
    try:
        log = run(builtin_case(1, horizon=50_000, log_stride=100)).log
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert log.u.nbytes == 50_000 * 4 * 8 and log.y.shape == (500, 4)
    assert peak < log.u.nbytes + 2 ** 20


# ---------------------------------------------------------------------------
# abort path

def test_nonfinite_output_aborts_with_partial_log():
    s = builtin_case(1, horizon=200)
    with pytest.raises(NonFiniteValue) as exc:
        run(s, initial_plants=exploding_plants(s, agent=1, call=50))  # first agent of round 50
    e = exc.value
    assert e.step == 50
    assert e.agent == 1
    partial = e.partial
    assert partial.log.horizon == 49
    assert partial.log.u.shape == (49, 4)
    assert not np.isnan(partial.log.y_next).any()
    assert "total_truncations" in partial.summary
    # copies of the rows run, not views of the whole horizon's arrays
    assert partial.log.u.base is None and partial.log.y.base is None


def test_a_zero_row_log_derives_empty_columns_of_their_widths(tmp_path):
    # a run aborted in its first round logs no row: its derived columns are
    # one block of no rows, not a join of no blocks, and export writes the
    # headers alone
    s = builtin_case(1, horizon=50, log_stride=7)
    with pytest.raises(NonFiniteValue) as exc:
        run(s, initial_plants=exploding_plants(s, agent=2, call=1))
    log = exc.value.partial.log
    assert log.horizon == 0
    names = ("sigma", "sigma_prime", "u_prime", "noise", "logged_z", "logged_O",
             "y_next", "O_next", "z", "eps")
    assert {name: getattr(log, name).shape for name in names} == {
        name: (0, 8 if name in ("noise", "logged_z", "z", "eps") else 4) for name in names}
    assert log.sigma.dtype == log.sigma_prime.dtype == np.int64
    csvout.export_csv(log, str(tmp_path))
    assert [(tmp_path / f).read_text().count("\n") for f in
            ("trajectory.csv", "edges.csv", "events.csv")] == [1, 1, 1]


@pytest.mark.parametrize("kind, D, initial, step", [
    ("hammerstein", [1], 1e200, 1),       # (1e200) ** 3 raises OverflowError
    ("wiener", [1], 1e200, 1),
    ("hammerstein", [1, 2.0], 5e102, 2),  # v + 2 v_past passes the largest float
], ids=["hammerstein_f", "wiener_f", "hammerstein_linear"])
# the partial run's summary, and verify of its run directory, evaluate the
# gains at the overflowing input and report the overflow as null, with no
# warning
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_real_overflow_aborts_at_its_step_and_agent(kind, D, initial, step, tmp_path, capsys):
    doc = scenario_to_dict(two_agent_scenario(horizon=50))
    doc["agents"][1].update(kind=kind, D=D, f={
        "name": "cubic_affine", "params": {"alpha": 1.0, "beta": 1.0, "gamma": 0.0}})
    doc["controller"]["initial_u"] = [0.0, initial]
    with pytest.raises(NonFiniteValue) as exc:
        run(scenario_from_dict(doc))
    assert (exc.value.step, exc.value.agent) == (step, 2)
    assert exc.value.partial.log.horizon == step - 1

    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"(step {step}, agent 2)" in capsys.readouterr().err
    if step > 1:
        # strict JSON: Infinity and NaN are rejected
        summary = json.loads((tmp_path / "out" / "summary.json").read_text(),
                             parse_constant=lambda c: pytest.fail(f"{c} in summary.json"))
        assert summary["final_residual"] is None
        # verify evaluates the gains at the overflowing input too: the
        # non-finite values fail their rows, with no warning
        assert main(["verify", "--log", str(tmp_path / "out")]) == 2
        out, err = capsys.readouterr()
        assert "noise decomposition      FAIL" in out
        assert "Warning" not in err
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["decomposition_max_err"] is None


def _pair(initial_u, agents):
    """two_agent_scenario with these agents' (kind, f name, f params) and initial inputs."""
    doc = scenario_to_dict(two_agent_scenario(horizon=30, initial_u=initial_u))
    for a, (kind, name, params) in zip(doc["agents"], agents):
        a.update(kind=kind, f={"name": name, "params": params})
    return scenario_from_dict(doc)


_DOUBLING = ("hammerstein", "affine", {"beta": 2.0, "gamma": 0.0})
_CUBE = ("hammerstein", "cubic_affine", {"alpha": 1.0, "beta": 1.0, "gamma": 0.0})


@pytest.mark.parametrize("initial_u, agents, message", [
    # agent 1's affine output passes the largest float, then agent 2's cube overflows
    ((1.5e308, 1e200), [_DOUBLING, _CUBE], "plant output left finite range (v=inf, y=inf)"),
    # agent 1's cube overflows, then agent 2's affine output passes the largest float
    ((1e200, 1.5e308), [_CUBE, _DOUBLING], "nonlinearity overflows at 1e+200"),
    ((1e200, 1e201), [_CUBE, _CUBE], "nonlinearity overflows at 1e+200"),
], ids=["nonfinite-then-overflow", "overflow-then-nonfinite", "two-overflows"])
def test_the_first_nonfinite_agent_of_a_round_is_reported_before_a_later_overflow(
        initial_u, agents, message):
    # round 1's first failure is agent 1's, in the round kernel and in the
    # plant steps alike; the steps leave the whole row's histories moved
    s = _pair(initial_u, agents)
    assert _reference_run(s, None)[3] == (1, 1)
    with pytest.raises(NonFiniteValue) as exc:
        run(s)
    assert (exc.value.step, exc.value.agent, str(exc.value)) == (1, 1, message)

    plants = [make_plant(kind, poly([1, -0.5]), poly([1, 0.25]), make_nonlinearity(name, params))
              for kind, name, params in [*agents, ("hammerstein", "identity", {})]]
    with pytest.raises(NonFiniteValue) as exc:
        plant_module.steps(plants)(0, [(*initial_u, 1.0)])
    assert (exc.value.step, exc.value.agent, str(exc.value)) == (1, 1, message)
    assert [p.y_hist + p.v_hist for p in plants] == [[math.inf] * 2] * 2 + [[1.0, 1.0]]


def test_a_1600_agent_ring_runs_and_verifies_exactly():
    # the round kernel and the plant steps are linear in the network's
    # size; a source quadratic in the agents stopped compiling near 1500
    s = scenario_from_dict(ring_doc(1600, horizon=20, log_stride=5))
    report, extras = analysis.full_verification(run(s).log, s.gains(), s.topology)
    assert report["lemma3_residual"] == 0.0
    assert extras["decomposition_first_failure"] is None


def test_a_3000_agent_star_runs_and_verifies_exactly():
    # the hub's 2999 neighbour terms, as one left-nested sum too deep for
    # CPython's compiler, are summed in statements of at most 1000
    doc = ring_doc(3000, horizon=50, log_stride=1)
    doc["topology"] = [[1, a, 1.0] for a in range(2, 3001)]
    s = scenario_from_dict(doc)
    report, extras = analysis.full_verification(run(s).log, s.gains(), s.topology)
    assert (report["lemma3_residual"], report["eq26_ok"], report["eq28_ok"]) == (0.0, True, True)
    assert extras["recursion"].passed and extras["sigma_consistent"]
    assert extras["decomposition_first_failure"] is None


def test_finite_outputs_whose_sum_overflows_do_not_abort():
    identity = ("hammerstein", "identity", {})
    s = _pair((1.5e308, 1.5e308), [identity, identity])
    us, sigmas, ys, abort = _reference_run(s, None)
    assert abort is None
    log = run(s).log
    assert _bits(log.u) == _bits(us)
    assert log.sigma.tolist() == sigmas
    assert _bits(log.y_next[log.logged_rows]) == _bits(ys)
