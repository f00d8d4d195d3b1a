import dataclasses
import hashlib
import json
import os
import platform
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from hwconsensus import (
    analysis,
    builtin_case,
    cli,
    csvout,
    harness,
    laplacian,
    noise,
    plant,
    scenario_from_dict,
    scenario_to_dict,
)
from hwconsensus.cli import main
from hwconsensus.graph import directed_pairs

from conftest import (
    MIXED_CASE,
    RESTART_CASE,
    forced_truncation_scenarios,
    network_doc,
    reweighted,
    two_agent_scenario,
    whole_auxiliary,
)
from test_harness import (
    CORRUPTIONS,
    flip_bit,
    relog,
    rewrite_store,
    saved_case,
    stored_arrays,
)


def run_dir(tmp_path, *extra):
    """Simulate a short built-in run through the CLI; returns its directory."""
    d = tmp_path / "rundir"
    code = main(["run", "--case", "1", "--horizon", "400", "--seed", "3",
                 "--out", str(d), *extra])
    assert code == 0
    return d


def _resave(d, name, index, value):
    """Save the run of d again with one cell of a stored array (u, events or
    y) set to value; load_run then derives the other columns from it."""
    log, _ = harness.load_run(str(d))
    array = stored_arrays(log)[name].copy()
    array[index] = value
    res = harness.RunResult(log=log, summary={}, wall_time=0.0)
    harness.save_run(relog(res, **{name: array}), str(d))


def _main_under_O(argv, block_cells=None):
    """(exit code, stderr) of the CLI in a fresh interpreter with asserts
    compiled away, with noise.BLOCK_CELLS set to block_cells if given."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ["-m", "hwconsensus.cli"] if block_cells is None else [
        "-c", "import sys; from hwconsensus import cli, noise; "
              f"noise.BLOCK_CELLS = {block_cells}; sys.exit(cli.main(sys.argv[1:]))"]
    out = subprocess.run([sys.executable, "-O", *code, *argv], env=env,
                         capture_output=True, text=True, timeout=120)
    return out.returncode, out.stderr


# ---------------------------------------------------------------------------
# run

def test_run_writes_all_files_and_reports(tmp_path, capsys):
    d = run_dir(tmp_path)
    out = capsys.readouterr().out
    assert "final spread:" in out
    assert "final residual:" in out
    assert "truncations per agent:" in out
    assert "wall time:" in out and "save time:" in out
    assert sorted(p.name for p in d.iterdir()) == ["log.npz", "meta.json", "summary.json"]


def test_run_without_out_writes_nothing(tmp_path, capsys):
    code = main(["run", "--case", "2", "--horizon", "50"])
    assert code == 0
    assert "final spread:" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []


def test_run_summary_line_parseable(capsys):
    code = main(["run", "--case", "1", "--horizon", "200", "--noise-off"])
    assert code == 0
    out = capsys.readouterr().out
    line = next(l for l in out.splitlines() if l.startswith("final spread:"))
    float(line.split(":", 1)[1])  # repr of a float, parseable


def test_run_requires_exactly_one_source(tmp_path, capsys):
    assert main(["run"]) == 1
    assert main(["run", "--case", "1", "--scenario", "x.json"]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err


def test_run_rejects_out_of_range_case(capsys):
    assert main(["run", "--case", "4"]) == 1
    assert "usage" in capsys.readouterr().err


def test_run_missing_scenario_file_is_io_error(tmp_path, capsys):
    assert main(["run", "--scenario", str(tmp_path / "nope.json")]) == 3
    assert "i/o failure" in capsys.readouterr().err


def test_run_malformed_scenario_file_is_validation_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{broken")
    assert main(["run", "--scenario", str(p)]) == 1
    assert "invalid configuration" in capsys.readouterr().err


def test_run_invalid_scenario_content(tmp_path, capsys):
    doc = scenario_to_dict(two_agent_scenario(horizon=10))
    doc["controller"]["c_M"] = 50.0
    doc["controller"]["u_star"] = [1.0, 4.0]
    p = tmp_path / "s.json"
    p.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(p)]) == 1
    assert "invalid configuration" in capsys.readouterr().err


def test_run_scenario_file_end_to_end(tmp_path):
    doc = scenario_to_dict(two_agent_scenario(horizon=120, seed=2))
    p = tmp_path / "pair.json"
    p.write_text(json.dumps(doc))
    d = tmp_path / "out"
    assert main(["run", "--scenario", str(p), "--out", str(d)]) == 0
    meta = json.loads((d / "meta.json").read_text())
    assert meta["scenario"]["label"] == "pair"
    assert meta["arrays"]["u"]["shape"] == [120, 2]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("C", [[1.0, 5e-324], [1.0, 0.5, 1e-310]], ids=["5e-324", "1e-310"])
def test_run_a_scenario_whose_c_has_a_subnormal_coefficient(tmp_path, capsys, C):
    # a stable C with a subnormal coefficient is in the model class
    doc = scenario_to_dict(builtin_case(1, horizon=60))
    doc["agents"][0]["C"] = C
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(doc))
    assert main(["run", "--scenario", str(p), "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == ""
    meta = json.loads((tmp_path / "out" / "meta.json").read_text())
    assert meta["scenario"]["agents"][0]["C"] == C


@pytest.mark.parametrize("how", ["batch", "run"])
def test_the_saved_scenario_replays_the_run(tmp_path, how):
    # the scenario a run directory embeds is the one that ran: handed back to
    # run, it writes the same log.npz, whichever way the seed was passed
    s = builtin_case(1, horizon=50)
    res = harness.batch(s, [7])[0] if how == "batch" else harness.run(s, 7)
    d = tmp_path / "saved"
    harness.save_run(res, str(d))
    meta = json.loads((d / "meta.json").read_text())
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(meta["scenario"]))
    assert main(["run", "--scenario", str(path), "--out", str(tmp_path / "d2")]) == 0
    assert (tmp_path / "d2" / "log.npz").read_bytes() == (d / "log.npz").read_bytes()
    seeded = dataclasses.replace(s, noise=dataclasses.replace(s.noise, seed=7))
    assert meta["scenario_hash"] == harness.scenario_hash(seeded)


def test_run_seed_and_stride_overrides(tmp_path):
    d = tmp_path / "r"
    assert main(["run", "--case", "3", "--horizon", "60", "--seed", "11",
                 "--log-stride", "6", "--out", str(d)]) == 0
    meta = json.loads((d / "meta.json").read_text())
    assert meta["scenario"]["noise"]["seed"] == 11
    assert meta["scenario"]["log_stride"] == 6


# ---------------------------------------------------------------------------
# verify

def test_verify_clean_run_passes(tmp_path, capsys):
    d = run_dir(tmp_path)
    capsys.readouterr()
    assert main(["verify", "--log", str(d)]) == 0
    out = capsys.readouterr().out
    assert out.count("pass") == 4
    assert "FAIL" not in out
    assert "load time:" in out and "check time:" in out

    report = json.loads((d / "report.json").read_text())
    assert set(report) == {"lemma3_residual", "eq26_ok", "eq28_ok",
                           "decomposition_max_err"}
    assert report["lemma3_residual"] == 0.0
    assert report["eq26_ok"] is True
    assert report["eq28_ok"] is True
    assert report["decomposition_max_err"] < 1e-10

    lines = (d / "metrics.csv").read_text().splitlines()
    assert lines[0] == "k,spread_y,residual,sigma_bar,v"
    assert len(lines) == 1 + 400


# SHA-256 of (report.json, metrics.csv) written by verify for the noisy
# built-in cases at horizon 2000, recorded before the verifier's gain field,
# noise decomposition and eq28 check were merged into one implementation
# each; a report or metrics value that moves by one ulp moves these. Cases 2
# and 3 happen to share every report value.
# (report.json, metrics.csv) per run: cases 1-3 at 2000 steps, and the mixed
# case's weights of three decimals, whose degrees and residuals round
GOLDEN_VERIFY_DIGESTS = {
    ("--case", "1", "--horizon", "2000"): (
        "93e039f5c64b224131c2cdbb54a78457533385b3f6cbee30b9aea2a0548e699b",
        "e0870e6cb261412aa6ca068a8b5eda4b74c550ca833126d00cb9fee57aafded1"),
    ("--case", "2", "--horizon", "2000"): (
        "e943656f41f06c39055a7bfacb9634c57d55119fc6d1b69af89387857e8647f2",
        "6191a6c213f4a6013345065ae02d046b99a25039e13ae6ae4eae5e40887bee07"),
    ("--case", "3", "--horizon", "2000"): (
        "e943656f41f06c39055a7bfacb9634c57d55119fc6d1b69af89387857e8647f2",
        "0e08511f81743fa49d703f1306a8a336e2759ba2b4e01869e384b3f1c1701fe9"),
    **{("--scenario", MIXED_CASE, "--log-stride", stride): (
        "4f22070187cc833d3e3f6289b4229eacc2a60fef195e31f5f4c06defe7cf6e26",
        "897c0ad591e4c67632bdaf2f9ba2de8bb187ed8fc8aedc4ebcabb0011383d21c")
       for stride in ("1", "10")},
}


def test_golden_verify_output_digests(tmp_path, capsys):
    changed = []
    for i, (args, want) in enumerate(GOLDEN_VERIFY_DIGESTS.items()):
        d = tmp_path / str(i)
        assert main(["run", *args, "--out", str(d)]) == 0
        assert main(["verify", "--log", str(d)]) == 0
        got = tuple(hashlib.sha256((d / name).read_bytes()).hexdigest()
                    for name in ("report.json", "metrics.csv"))
        if got != want:
            changed.append(args)
    assert not changed, f"verify output digests changed for {changed}"


def _openblas() -> bool:
    """Whether numpy reports an OpenBLAS build."""
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:
        return False
    return "openblas" in name.lower()


def _child_run_and_verify(out, coretype):
    """Every file run --out and verify write for cases 1-3 at strides 1 and 10
    (2000 steps) and for the restart case, in a child process whose OpenBLAS
    kernel is coretype (the host's own if None): {relative path: bytes}."""
    argv = [["--case", str(case), "--horizon", "2000", "--log-stride", str(stride)]
            for case in (1, 2, 3) for stride in (1, 10)] + [["--scenario", RESTART_CASE]]
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if coretype is not None:
        env["OPENBLAS_CORETYPE"] = coretype
    code = ("import json, sys; from hwconsensus.cli import main\n"
            "for i, args in enumerate(json.loads(sys.argv[2])):\n"
            "    d = f'{sys.argv[1]}/{i}'\n"
            "    if main(['run', *args, '--out', d]) or main(['verify', '--log', d]):\n"
            "        sys.exit(f'{args} failed')\n")
    done = subprocess.run([sys.executable, "-c", code, str(out), json.dumps(argv)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


@pytest.mark.skipif(platform.machine() != "x86_64" or not _openblas(),
                    reason="OPENBLAS_CORETYPE names x86_64 OpenBLAS kernels")
def test_run_and_verify_write_the_same_bytes_on_any_openblas_kernel(tmp_path):
    # the verifier sums in a fixed order, never through BLAS: a kernel
    # without FMA (Nehalem) and the host's own give every file the same bytes
    host = _child_run_and_verify(tmp_path / "host", None)
    nehalem = _child_run_and_verify(tmp_path / "nehalem", "Nehalem")
    assert len(host) == 7 * 5 and sorted(host) == sorted(nehalem)
    assert [name for name in host if host[name] != nehalem[name]] == []


def test_verify_evaluates_each_gain_once_on_the_log(tmp_path, monkeypatch):
    d = run_dir(tmp_path)
    loaded = []
    calls_on_u = [0] * 4
    load_run, gains = harness.load_run, harness.Scenario.gains

    def recording_load(rundir):
        loaded.append(load_run(rundir))
        return loaded[-1]

    def counting(i, g):
        def call(x):
            u = loaded[0][0].u[:, i]
            if np.shape(x) == u.shape and np.array_equal(x, u):
                calls_on_u[i] += 1
            return g(x)
        return call

    monkeypatch.setattr(harness, "load_run", recording_load)
    monkeypatch.setattr(harness.Scenario, "gains",
                        lambda self: [counting(i, g) for i, g in enumerate(gains(self))])
    assert main(["verify", "--log", str(d)]) == 0
    assert calls_on_u == [1, 1, 1, 1]
    # every agent has a catch-up window, so h(ubar) is not an evaluation on u
    log, s = loaded[0]
    assert whole_auxiliary(log, gains(s), s.topology).catchup_mask.any(axis=0).all()


def test_verify_tampered_log_fails(tmp_path, capsys):
    # a run saved again with one input moved: the store is consistent, the replay is not
    d = run_dir(tmp_path)
    u = harness.load_run(str(d))[0].u
    _resave(d, "u", (149, 1), u[149, 1] + 1e-3)
    capsys.readouterr()
    assert main(["verify", "--log", str(d)]) == 2
    row = next(l for l in capsys.readouterr().out.splitlines()
               if l.startswith("centralized replay"))
    assert row.split()[2] == "FAIL"
    report = json.loads((d / "report.json").read_text())
    assert set(report) == {"lemma3_residual", "eq26_ok", "eq28_ok",
                           "decomposition_max_err"}


def _verify_names_a_flipped_bit(tmp_path, capsys, name, index, bit):
    """verify of a run with one bit flipped in array name of log.npz: load_run
    rejects it, naming the array, with exit 1, also with asserts compiled away."""
    d = run_dir(tmp_path)
    flip_bit(d, name, index, bit)
    capsys.readouterr()
    assert main(["verify", "--log", str(d)]) == 1
    err = capsys.readouterr().err
    assert err == f"incomplete log: log.npz: array {name}: Bad CRC-32 for file '{name}.npy'\n"
    assert _main_under_O(["verify", "--log", str(d)]) == (1, err)


@pytest.mark.parametrize("column, field, edit", [
    ("u_prime", 5, lambda log: log.u),
    ("sigma_prime", 4, lambda log: log.events),
])
def test_verify_locates_a_corrupted_stored_column(tmp_path, capsys, column, field, edit):
    # the column is not stored: load_run derives it from the array edit reads,
    # so a corrupt cell of it is one in that array, flipped here in bit field:
    # step 150, agent 2 of u, the count of an event midway through the events
    d = run_dir(tmp_path)
    log, _ = harness.load_run(str(d))
    stored = stored_arrays(log)
    assert column not in stored
    name = next(key for key, a in stored.items() if a is edit(log))
    index = (149, 1) if name == "u" else (len(log.events) // 2, 2)
    _verify_names_a_flipped_bit(tmp_path, capsys, name, index, field)


def test_verify_locates_a_z_cell_off_its_identity(tmp_path, capsys):
    # z is y of the observed agent plus eps, derived on load, and the noise is
    # redrawn from the seed: a z cell off its identity is a corrupt cell of y,
    # at k=150, agent 3 here
    _verify_names_a_flipped_bit(tmp_path / "y", capsys, "y", (149, 2), 3)


@pytest.mark.parametrize("count, code, err", [
    ("1000000000000", 2, "runtime failure: truncation count 1000000000000 at k=150, agent 2 "
                         "is outside 0..149\n"),
    # no count falls below the initial 0: load_run rejects the event before verify's bound
    ("-1", 1, "incomplete log: log.npz: array events: the event (k=149, agent 2, count -1) "
              "does not rise from the initial count 0\n"),
    ("150", 2, "runtime failure: truncation count 150 at k=150, agent 2 is outside 0..149\n"),
], ids=["huge", "negative", "k"])
def test_verify_rejects_a_count_outside_the_round_bound(tmp_path, capsys, count, code, err):
    # a count starts at 0 and rises by at most 1 per round, so sigma_k <= k - 1:
    # agent 2's count set to count in round 149, from step 150 on, in place
    # of its every event
    d = run_dir(tmp_path)
    events = harness.load_run(str(d))[0].events
    events = np.vstack([events[events[:, 1] != 2], [[149, 2, int(count)]]])
    rewrite_store(d, lambda a: a.update(events=events[np.lexsort(events[:, 1::-1].T)]))
    capsys.readouterr()
    assert main(["verify", "--log", str(d)]) == code
    assert capsys.readouterr().err == err
    assert _main_under_O(["verify", "--log", str(d)]) == (code, err)


def test_verify_locates_an_eq28_failure(tmp_path, capsys, monkeypatch):
    import hwconsensus.analysis as A
    d = run_dir(tmp_path)
    monkeypatch.setattr(A.math, "exp", lambda x: 1.0)  # sandwich becomes k-2 < m < k-1
    capsys.readouterr()
    assert main(["verify", "--log", str(d)]) == 2
    row = next(l for l in capsys.readouterr().out.splitlines()
               if l.startswith("step-count bounds"))
    assert row.split()[2] == "FAIL"
    assert row.endswith("grid k <= 1000, T in (0.1, 0.5, 1.0, 2.0); "
                        "first failure at k=1, T=0.1: -1.0 < 0 < 0.0")
    assert json.loads((d / "report.json").read_text())["eq28_ok"] is False


def test_verify_names_the_first_failure_of_a_failing_row(tmp_path, capsys, monkeypatch):
    # a run saved again with one input moved: the replay of the round before
    # it no longer lands on it. Checked against a topology whose edge (2, 3)
    # weighs 1 part in 10^6 more than the log's, the decomposition fails
    # from round 1
    d = run_dir(tmp_path)
    u = harness.load_run(str(d))[0].u
    _resave(d, "u", (349, 1), u[349, 1] + 1e-3)
    load_run = harness.load_run

    def reweighted_load(rundir):
        log, s = load_run(rundir)
        return log, dataclasses.replace(s, topology=reweighted(s.topology, 2, 3))

    monkeypatch.setattr(harness, "load_run", reweighted_load)
    capsys.readouterr()
    assert main(["verify", "--log", str(d)]) == 2
    rows = {line.split("  ")[0]: line for line in capsys.readouterr().out.splitlines()}
    log, s = harness.load_run(str(d))
    _, extras = analysis.full_verification(log, s.gains(), s.topology)
    k, agent, value = extras["recursion"].first_failure
    assert (k, agent) == (349, 2) and value == pytest.approx(1e-3)
    assert rows["centralized replay"].endswith(f"; first failure at k=349, agent 2: {value!r}")
    k, agent, value = extras["decomposition_first_failure"]
    assert (k, agent) == (1, 2) and value > 1e-9
    assert rows["noise decomposition"].endswith(f"; first failure at k=1, agent 2: {value!r}")
    assert "first failure" not in rows["truncation window bound"]


def test_verify_reads_every_u_inside_a_catchup_window(tmp_path, capsys, monkeypatch):
    # the relabeling puts u* in place of every u inside a catch-up window, so
    # the replay reads none of them: each is checked against what its round
    # wrote. Case 1, seed 7: u at k=30, agent 4, inside a window, moved by
    # 1e-3 fails round 29, agent 4 at stride 1, in blocks of any length, while
    # the replay's residual stays 0.0; at stride 10 the plant replay stops it
    for stride in (1, 10):
        d = tmp_path / f"stride{stride}"
        assert main(["run", "--case", "1", "--horizon", "3000", "--seed", "7",
                     "--log-stride", str(stride), "--out", str(d)]) == 0
        log, s = harness.load_run(str(d))
        assert whole_auxiliary(log, s.gains(), s.topology).catchup_mask[29, 3]
        _resave(d, "u", (29, 3), log.u[29, 3] + 1e-3)
    capsys.readouterr()
    argv = ["verify", "--log", str(tmp_path / "stride1")]
    assert main(argv) == 2
    row = next(line for line in capsys.readouterr().out.splitlines()
               if line.startswith("centralized replay"))
    assert row.split()[2] == "FAIL" and "; first failure at k=29, agent 4: " in row
    assert json.loads((tmp_path / "stride1" / "report.json").read_text())["lemma3_residual"] == 0.0
    assert _main_under_O(argv) == (2, "")
    log, s = harness.load_run(str(tmp_path / "stride1"))
    width = max(s.n, len(directed_pairs(s.topology)))
    for rows in (1, 7, 1024):  # step 30 first in its block, inside one, and block 1 of 3
        monkeypatch.setattr(noise, "BLOCK_CELLS", rows * width)
        report, extras = analysis.full_verification(log, s.gains(), s.topology)
        rec = extras["recursion"]
        assert not rec.passed and rec.first_failure[:2] == (29, 4), rows
        assert rec.first_failure[2] == pytest.approx(1e-3) and report["lemma3_residual"] == 0.0
    assert main(["verify", "--log", str(tmp_path / "stride10")]) == 1
    assert capsys.readouterr().err == ("incomplete log: the plant replayed over u differs from "
                                       "the logged y_next at k=31, agent 4\n")


def _verify_outputs(d):
    """(report.json, metrics.csv) bytes of a passing verify of run directory d."""
    assert main(["verify", "--log", str(d)]) == 0
    return tuple((d / name).read_bytes() for name in ("report.json", "metrics.csv"))


def test_verify_of_a_stride_10_log_matches_stride_1(tmp_path, capsys):
    # a strided log keeps y on the stride only: verify replays the plants
    # over u for the other rows, so it checks the run the stride-1 log holds,
    # to the same bytes
    for case in (1, 2, 3):
        outputs = []
        for stride in (1, 10):
            d = tmp_path / f"case{case}-{stride}"
            assert main(["run", "--case", str(case), "--horizon", "2000",
                         "--log-stride", str(stride), "--out", str(d)]) == 0
            outputs.append(_verify_outputs(d))
        assert outputs[1] == outputs[0], case
        assert json.loads(outputs[1][0])["lemma3_residual"] == 0.0


@pytest.mark.parametrize("case, cells", [
    *[(case, (8, 16, 56, 8000)) for case in (1, 2, 3)],
    ("network-48", (2 * 288, 56 * 288, 2 ** 16, 2 ** 18)),
], ids=["1", "2", "3", "network-48"])
def test_verify_is_the_same_for_blocks_of_any_length(tmp_path, capsys, monkeypatch, case, cells):
    # 4 agents and 8 directed edges: blocks of 1, 2, 7 and 1000 rows of a
    # 2000-step run, bounded in cells, and of the default 1024 rows, bounded
    # in rows, write the bytes one block writes and, on the run with one
    # input moved checked against a topology with one weight off by 1 part
    # in 10^6, find the same first failures. 48 agents of degrees 2 to 11
    # and 288 directed edges: blocks of 2, 56, 227 and 910 rows, and 227 by
    # default
    d = tmp_path / "run"
    if case == "network-48":
        harness.save_run(harness.run(scenario_from_dict(network_doc(48, 2000))), str(d))
    else:
        assert main(["run", "--case", str(case), "--horizon", "2000", "--out", str(d)]) == 0
    log, s = harness.load_run(str(d))
    moved = dataclasses.replace(log, u=log.u.copy())
    moved.u[1500, 1] += 1e-3

    def outcome():
        outputs = _verify_outputs(d)
        report, extras = analysis.full_verification(moved, s.gains(),
                                                    reweighted(s.topology, 2, 3))
        rec = extras["recursion"]
        return (outputs, report, rec.first_failure, rec.sigma_consistent,
                extras["decomposition_first_failure"])

    width = max(s.n, len(directed_pairs(s.topology)))
    default = (noise.BLOCK_ROWS, noise.BLOCK_CELLS)
    monkeypatch.setattr(noise, "BLOCK_ROWS", 2000)
    monkeypatch.setattr(noise, "BLOCK_CELLS", 2000 * width)
    assert len(list(analysis.log_blocks(log, s.gains(), laplacian(s.topology)))) == 1
    one_block = outcome()
    assert one_block[2] is not None and one_block[4][:2] == (1, 2)
    for block_rows, block_cells in [(2000, c) for c in cells] + [default]:
        rows = min(block_rows, block_cells // width)
        monkeypatch.setattr(noise, "BLOCK_ROWS", block_rows)
        monkeypatch.setattr(noise, "BLOCK_CELLS", block_cells)
        firsts = [b.k[0] for b in analysis.log_blocks(log, s.gains(), laplacian(s.topology))]
        assert firsts == list(range(1, 2001, rows))
        assert outcome() == one_block, rows


@pytest.mark.parametrize("which", ["forced-square", "case1-stride7"])
def test_verify_reads_no_agent_counts(tmp_path, capsys, monkeypatch, which):
    # each row's largest count comes from one running maximum of the count
    # events, never from every agent's counts: with counts_at raising, blocks
    # of 2, 7 and 1000 rows write the bytes of verify without the patch
    if which == "forced-square":
        s = forced_truncation_scenarios()[1]
    else:
        s = builtin_case(1, horizon=2000, log_stride=7)
    d = tmp_path / "run"
    result = harness.run(s)
    assert len(result.log.events) > 0
    harness.save_run(result, str(d))
    expected = _verify_outputs(d)

    def no_counts(*args):
        raise AssertionError("verify read every agent's counts")

    monkeypatch.setattr(analysis, "counts_at", no_counts)
    width = max(s.n, len(directed_pairs(s.topology)))
    for rows in (2, 7, 1000):
        monkeypatch.setattr(noise, "BLOCK_CELLS", rows * width)
        assert _verify_outputs(d) == expected, rows


def test_verify_finds_the_gain_roots_once(tmp_path, capsys, monkeypatch):
    # the roots of the gains, which every block's Lyapunov value reads, are
    # found once per verify, however many blocks it checks
    d = run_dir(tmp_path)
    calls = []
    gain_roots = analysis.gain_roots
    monkeypatch.setattr(analysis, "gain_roots", lambda gains: calls.append(1) or gain_roots(gains))
    for cells in (16, 56, noise.BLOCK_CELLS):  # 200, 57 and 1 blocks of 8 edges
        monkeypatch.setattr(noise, "BLOCK_CELLS", cells)
        calls.clear()
        assert main(["verify", "--log", str(d)]) == 0
        assert len(calls) == 1, cells


def test_verify_evaluates_the_gains_at_their_roots_once(tmp_path, capsys, monkeypatch):
    # the gains are called on one number only to find their roots and to
    # evaluate them there, once per verify; every block calls them on arrays
    d = run_dir(tmp_path)
    scalar_calls = []
    call = plant.StaticGain.__call__

    def counted(g, u):
        if np.ndim(u) == 0:
            scalar_calls.append(1)
        return call(g, u)

    monkeypatch.setattr(plant.StaticGain, "__call__", counted)
    counts = []
    for cells in (16, 56, noise.BLOCK_CELLS):  # 200, 57 and 1 blocks of 8 edges
        monkeypatch.setattr(noise, "BLOCK_CELLS", cells)
        scalar_calls.clear()
        assert main(["verify", "--log", str(d)]) == 0
        counts.append(len(scalar_calls))
    assert counts[0] == counts[1] == counts[2] > 0


def test_usage_errors_leave_the_parser_as_it_was(tmp_path, capsys):
    # main parses with one parser per process; a failed parse changes nothing
    assert cli.build_parser() is cli.build_parser()
    assert main(["run", "--case", "9"]) == 1
    assert main(["verify"]) == 1
    assert "usage: hwconsensus" in capsys.readouterr().err
    d = run_dir(tmp_path)
    assert main(["verify", "--log", str(d)]) == 0


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_run_rejects_a_seed_outside_64_bits(tmp_path, capsys, seed):
    # a seed the noise streams would read modulo 2**64 names no run of its own
    assert main(["run", "--case", "1", "--horizon", "20", "--seed", seed,
                 "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err == \
        f"invalid configuration: seed must be in 0..2**64 - 1, got {seed}\n"
    assert not (tmp_path / "run").exists()


def test_run_rejects_a_horizon_whose_log_cannot_be_allocated(tmp_path, capsys):
    # 10^18 steps of 4 agents is more than numpy can address: an invalid
    # configuration naming the steps and agents, not a traceback
    argv = ["run", "--case", "1", "--horizon", str(10 ** 18), "--out", str(tmp_path / "run")]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == ("invalid configuration: a log of 1000000000000000000 steps of 4 agents "
                   "cannot be allocated\n")
    assert not (tmp_path / "run").exists()
    assert _main_under_O(argv) == (1, err)


def test_run_takes_the_ends_of_the_seed_range(tmp_path, capsys):
    for seed in (0, 2 ** 64 - 1):
        d = tmp_path / str(seed)
        assert main(["run", "--case", "1", "--horizon", "20", "--seed", str(seed),
                     "--out", str(d)]) == 0
        assert harness.load_run(str(d))[1].noise.seed == seed


def test_verify_names_a_logged_output_the_replay_does_not_reproduce(tmp_path, capsys):
    # at stride 10 verify replays the plants over u and compares every
    # logged y: one bit flipped in y (row 15, step 151), with the records of
    # meta.json to match, is named at its step and agent
    d = run_dir(tmp_path, "--log-stride", "10")

    def flip(arrays):
        arrays["y"].view(np.int64)[15, 2] ^= 1

    rewrite_store(d, flip)
    capsys.readouterr()
    assert main(["verify", "--log", str(d)]) == 1
    err = capsys.readouterr().err
    assert err == ("incomplete log: the plant replayed over u differs from the logged "
                   "y_next at k=151, agent 3\n")
    assert not (d / "report.json").exists()
    assert _main_under_O(["verify", "--log", str(d)]) == (1, err)


def test_verify_failing_in_a_later_block_leaves_no_metrics_file(tmp_path, capsys, monkeypatch):
    # verify writes each block's metrics rows as it checks the block, to a
    # temporary file that becomes metrics.csv only once every check has run.
    # Blocks of 100 rows (800 cells of 8 edges): a logged y flipped at step
    # 151, in the second block, removes the file after the first block's rows
    d = run_dir(tmp_path, "--log-stride", "10")

    def flip(arrays):
        arrays["y"].view(np.int64)[15, 2] ^= 1

    rewrite_store(d, flip)
    monkeypatch.setattr(noise, "BLOCK_CELLS", 800)
    removed, real_remove = [], os.remove

    def remove(path):
        with open(path) as fh:
            removed.append((os.path.basename(path), len(fh.read().splitlines())))
        real_remove(path)

    monkeypatch.setattr(os, "remove", remove)
    capsys.readouterr()
    assert main(["verify", "--log", str(d)]) == 1
    err = capsys.readouterr().err
    assert err == ("incomplete log: the plant replayed over u differs from the logged "
                   "y_next at k=151, agent 3\n")
    assert removed == [("metrics.csv.tmp", 1 + 100)]  # the header and the first block
    files = ["log.npz", "meta.json", "summary.json"]
    assert sorted(p.name for p in d.iterdir()) == files
    assert _main_under_O(["verify", "--log", str(d)], block_cells=800) == (1, err)
    assert sorted(p.name for p in d.iterdir()) == files


@pytest.mark.parametrize("cell, block_cells", [
    ((149, 0), None),
    ((149, 2), None),
    ((149, 0), 149 * 8),  # blocks of 149 rows of 8 edges: k=150 starts the second
], ids=["agent-1", "agent-3", "block-start"])
def test_verify_names_an_input_the_replayed_plant_overflows_on(tmp_path, capsys, monkeypatch,
                                                               cell, block_cells):
    # the cubic nonlinearities of agents 1 and 3 overflow at an input of
    # 1e200: the NonFiniteValue of the replayed plant is reported at its step
    # and agent
    d = run_dir(tmp_path, "--log-stride", "10")
    _resave(d, "u", cell, 1e200)
    if block_cells is not None:
        monkeypatch.setattr(noise, "BLOCK_CELLS", block_cells)
    capsys.readouterr()
    assert main(["verify", "--log", str(d)]) == 1
    err = capsys.readouterr().err
    assert err == (f"incomplete log: the plant replayed over u leaves finite range at k=150, "
                   f"agent {cell[1] + 1}: nonlinearity overflows at 1e+200\n")
    assert _main_under_O(["verify", "--log", str(d)], block_cells) == (1, err)


def test_verify_of_a_long_stride_1_log_holds_blocks_not_the_log(tmp_path, capsys):
    # verify reads u, y and the events and regenerates the rest one block at
    # a time, writing each block's metrics as it goes; the margin over u
    # covers y and one block's arrays. Simulated untraced: tracemalloc slows
    # the round kernel
    d = tmp_path / "long"
    harness.save_run(harness.run(builtin_case(1, horizon=200_000)), str(d))
    u_bytes = 200_000 * 4 * 8
    tracemalloc.start()
    try:
        assert main(["verify", "--log", str(d)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < u_bytes + 48 * 2 ** 20


def _peak_rss_child(code: str, *args) -> subprocess.Popen:
    """A fresh interpreter that imports the CLI, runs code and prints its own
    peak RSS in KiB last: VmHWM, the high-water mark of the memory it maps
    after exec. Its ru_maxrss would start at the peak of the process that
    spawned it, which Linux carries across exec."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = ("import sys\nfrom hwconsensus import cli, harness\n" + code
              + "\nwith open('/proc/self/status') as fh:\n"
              "    print(next(line.split()[1] for line in fh if line.startswith('VmHWM:')))")
    return subprocess.Popen([sys.executable, "-c", script, *map(str, args)], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def test_export_of_a_long_stride_1_log_holds_blocks_not_the_log(tmp_path):
    # export reads u, y and the events and derives the rest one block at a
    # time. Its peak RSS is set against a process that only loads the log
    # (u and y, 12.8 MB): the margin covers one block's rows and strings,
    # under the whole-horizon sigma, sigma_prime and u_prime (each as large
    # as u), noise, z and O (48.8 MiB together) of a writer that sliced them.
    # Measured in child processes: tracemalloc would trace every cell string
    d = tmp_path / "long"
    harness.save_run(harness.run(builtin_case(1, horizon=200_000)), str(d))
    loaded = _peak_rss_child("harness.load_run(sys.argv[1])", d)
    exported = _peak_rss_child("if cli.main(['export', '--log', sys.argv[1], '--out', "
                               "sys.argv[2]]):\n    sys.exit(1)", d, tmp_path / "csv")
    (load_out, load_err), (export_out, export_err) = (p.communicate(timeout=120)
                                                      for p in (loaded, exported))
    assert (loaded.returncode, load_err) == (0, "")
    assert (exported.returncode, export_err) == (0, "")
    assert (tmp_path / "csv" / "trajectory.csv").stat().st_size > 200_000 * 4 * 40
    assert int(export_out.split()[-1]) - int(load_out.split()[-1]) < 16 * 1024


def test_verify_names_the_first_missing_output(tmp_path, capsys):
    d = run_dir(tmp_path)
    _resave(d, "y", (9, 1), np.nan)
    capsys.readouterr()
    assert main(["verify", "--log", str(d)]) == 1
    err = capsys.readouterr().err
    assert err == "incomplete log: no output y_next at k=10, agent 2\n"
    assert _main_under_O(["verify", "--log", str(d)]) == (1, err)


def test_report_json_writes_non_finite_values_as_null(tmp_path, capsys):
    d = run_dir(tmp_path)
    _resave(d, "u", (9, 1), np.nan)
    capsys.readouterr()
    assert main(["verify", "--log", str(d)]) == 2
    report = json.loads((d / "report.json").read_text(),
                        parse_constant=lambda c: pytest.fail(f"{c} in report.json"))
    assert report["lemma3_residual"] is None
    assert report["decomposition_max_err"] is None


def test_replayed_run_directories_are_byte_identical(tmp_path):
    # the run directory is a function of (scenario, seed): no wall time in it
    a, b = (run_dir(tmp_path / name) for name in "ab")
    for name in ("log.npz", "summary.json", "meta.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_a_run_directory_with_the_older_copies_still_loads(tmp_path, capsys):
    # older run directories also hold the horizon and seed in meta.json and
    # the label and seed in summary.json; load_run ignores keys it does not read
    d = run_dir(tmp_path)
    meta = json.loads((d / "meta.json").read_text())
    (d / "meta.json").write_text(json.dumps({"horizon": 400, "seed": 3, **meta}))
    summary = json.loads((d / "summary.json").read_text())
    (d / "summary.json").write_text(json.dumps({"label": "case1", "seed": 3, **summary}))
    log, s = harness.load_run(str(d))
    assert log.horizon == 400 and s.noise.seed == 3
    for command in ("verify", "export"):
        assert main([command, "--log", str(d)]) == 0


def test_verify_incomplete_log_rejected(tmp_path, capsys):
    d = run_dir(tmp_path)
    _edit_bytes(d / "log.npz", lambda b: b[:-100])
    capsys.readouterr()
    assert main(["verify", "--log", str(d)]) == 1
    assert capsys.readouterr().err == \
        "incomplete log: log.npz is not an npz archive: File is not a zip file\n"


def _edit_meta(d, fn):
    meta = json.loads((d / "meta.json").read_text())
    fn(meta)
    (d / "meta.json").write_text(json.dumps(meta))


def _edit_bytes(path, fn):
    path.write_bytes(fn(path.read_bytes()))


# corruptions of a run directory beyond test_harness.CORRUPTIONS, each with
# a part of the message both subcommands print
RUN_DIR_CORRUPTIONS = {
    "meta-hash-mismatch": (lambda d: _edit_meta(
        d, lambda m: m["scenario"]["controller"]["u_star"].__setitem__(0, 1.5)),
        "meta.json: the embedded scenario does not match"),
    "meta-invalid-scenario": (lambda d: _edit_meta(
        d, lambda m: m["scenario"].__setitem__("horizon", 0)),
        "meta.json: invalid scenario"),
    # the rows of the run are those meta.json records for u
    "meta-zero-horizon": (lambda d: _edit_meta(
        d, lambda m: m["arrays"]["u"]["shape"].__setitem__(0, 0)),
        "log.npz: array u has 0 rows in meta.json, not a step count from 1"),
    "meta-not-json": (lambda d: (d / "meta.json").write_text('{"label": '),
                      "meta.json is not valid JSON"),
    "meta-not-object": (lambda d: (d / "meta.json").write_text("3"),
                        "meta.json holds a int"),
    "meta-scenario-wrong-type": (lambda d: _edit_meta(
        d, lambda m: m["scenario"]["controller"].__setitem__("c_M", "abc")),
        "meta.json: invalid scenario: controller: could not convert string to float: 'abc'"),
    # the seed is the embedded scenario's
    "meta-seed-not-int": (lambda d: _edit_meta(
        d, lambda m: m["scenario"]["noise"].__setitem__("seed", 3.0)),
        "meta.json: invalid scenario: noise: seed must be an integer, got 3.0"),
    # a seed beyond 64 bits would alias one in range; such a store no longer loads
    "meta-seed-above-64-bits": (lambda d: _edit_meta(
        d, lambda m: m["scenario"]["noise"].__setitem__("seed", 2 ** 64)),
        "meta.json: invalid scenario: noise: seed must be in 0..2**64 - 1, "
        "got 18446744073709551616"),
    "meta-boolean-horizon": (lambda d: _edit_meta(
        d, lambda m: m["arrays"]["u"]["shape"].__setitem__(0, True)),
        "log.npz: array u has True rows in meta.json, not a step count"),
    "meta-arrays-not-object": (lambda d: _edit_meta(d, lambda m: m.__setitem__("arrays", [])),
                               "log.npz: array u does not match its dtype, shape and SHA-256"),
    # an event the round kernel cannot write, before agent 1's first at (k=2, count 1)
    "events-first-count-zero": (lambda d: rewrite_store(d, lambda a: a.__setitem__(
        "events", np.insert(a["events"], 0, [1, 1, 0], axis=0))),
        "log.npz: array events: the event (k=1, agent 1, count 0) does not rise from the "
        "initial count 0"),
}


@pytest.mark.parametrize("case", [*CORRUPTIONS, *RUN_DIR_CORRUPTIONS])
def test_corrupt_run_directory_exit_codes(tmp_path, capsys, case):
    # verify reports a corrupt or mismatched run as a usage problem (1),
    # plotdata and export as an unreadable run (3); none prints a traceback
    if case in CORRUPTIONS:
        d = saved_case(tmp_path)
        edit, message = CORRUPTIONS[case]
    else:
        d = run_dir(tmp_path)
        edit, message = RUN_DIR_CORRUPTIONS[case]
    edit(d)
    capsys.readouterr()
    assert main(["verify", "--log", str(d)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("incomplete log:") and message in err and err.count("\n") == 1
    for command in ("plotdata", "export"):
        assert main([command, "--log", str(d)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("unreadable run:") and message in err and err.count("\n") == 1
    assert not (d / "trajectory.csv").exists()


def _params_to_x(doc):
    f = doc["agents"][0]["f"]
    f["params"] = {key: "x" for key in f["params"]}


# scenario values of the wrong JSON type, each with the start of the message
# it is rejected with
WRONG_TYPES = {
    "c_M-string": (lambda d: d["controller"].__setitem__("c_M", "abc"),
                   "controller: could not convert string to float: 'abc'"),
    "c_M-null": (lambda d: d["controller"].__setitem__("c_M", None),
                 "controller: float() argument must be"),
    "u_star-string-entry": (lambda d: d["controller"].__setitem__("u_star", ["a", 2]),
                            "controller: could not convert string to float: 'a'"),
    "u_star-number": (lambda d: d["controller"].__setitem__("u_star", 3),
                      "controller: 'int' object is not iterable"),
    "C-string": (lambda d: d["agents"][0].__setitem__("C", "abc"),
                 "agents[1]: could not convert string to float: 'a'"),
    "C-null": (lambda d: d["agents"][0].__setitem__("C", None),
               "agents[1]: 'NoneType' object is not iterable"),
    "f-param-string": (_params_to_x, "agents[1]: could not convert string to float: 'x'"),
    "f-name-list": (lambda d: d["agents"][0]["f"].__setitem__("name", ["x"]),
                    "agents[1]: unhashable type: 'list'"),
    "noise-param-string": (lambda d: d["noise"]["params"].__setitem__("variance", "x"),
                           "noise: could not convert string to float: 'x'"),
    "topology-number": (lambda d: d.__setitem__("topology", 7),
                        "topology: 'int' object is not iterable"),
    "topology-bare-entry": (lambda d: d.__setitem__("topology", [5]),
                            "topology: 'int' object is not iterable"),
    "topology-string-weight": (lambda d: d.__setitem__("topology", [[1, 2, "w"]]),
                               "topology: could not convert string to float: 'w'"),
    "horizon-true": (lambda d: d.__setitem__("horizon", True),
                     "horizon must be a positive integer, got True"),
    "stride-true": (lambda d: d.__setitem__("log_stride", True),
                    "log_stride must be a positive integer, got True"),
    "seed-true": (lambda d: d["noise"].__setitem__("seed", True),
                  "noise: seed must be an integer, got True"),
    "label-number": (lambda d: d.__setitem__("label", 3), "label must be a string, got 3"),
    "edge-endpoint-true": (lambda d: d["topology"][0].__setitem__(0, True),
                           "topology: edge endpoints must be integers, got (True, 2, 1.0)"),
}


@pytest.mark.parametrize("case", WRONG_TYPES)
def test_scenario_values_of_the_wrong_type_exit_1(tmp_path, capsys, case):
    # in a scenario file handed to run, and in the scenario a run directory embeds
    mutate, message = WRONG_TYPES[case]
    doc = scenario_to_dict(builtin_case(1, horizon=10))
    mutate(doc)
    path = tmp_path / "s.json"
    path.write_text(json.dumps(doc))
    d = run_dir(tmp_path)
    _edit_meta(d, lambda m: mutate(m["scenario"]))
    capsys.readouterr()
    for argv, code, prefix in (
            (["run", "--scenario", str(path)], 1, "invalid configuration: "),
            (["verify", "--log", str(d)], 1, "incomplete log: meta.json: invalid scenario: "),
            (["plotdata", "--log", str(d)], 3, "unreadable run: meta.json: invalid scenario: ")):
        assert main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith(prefix + message) and err.count("\n") == 1, err
        if code == 1:
            assert _main_under_O(argv) == (code, err)


def test_verify_missing_directory(tmp_path, capsys):
    assert main(["verify", "--log", str(tmp_path / "ghost")]) == 3
    assert "no run found" in capsys.readouterr().err


def test_missing_log_file_is_no_run_found(tmp_path, capsys):
    d = run_dir(tmp_path)
    (d / "log.npz").unlink()
    capsys.readouterr()
    for command in ("verify", "plotdata", "export"):
        assert main([command, "--log", str(d)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("no run found: ") and "log.npz" in err


# ---------------------------------------------------------------------------
# export

def test_export_writes_the_log_as_csv(tmp_path, capsys):
    d = run_dir(tmp_path, "--log-stride", "7")
    log = harness.load_run(str(d))[0]
    csvout.export_csv(log, str(tmp_path / "want"))
    capsys.readouterr()
    for argv, outdir in ((["--log", str(d)], d),
                         (["--log", str(d), "--out", str(tmp_path / "x")], tmp_path / "x")):
        assert main(["export", *argv]) == 0
        assert capsys.readouterr().out == \
            f"wrote {os.path.join(str(outdir), 'trajectory.csv')}, edges.csv and events.csv\n"
        for name in ("trajectory.csv", "edges.csv"):
            assert (outdir / name).read_bytes() == (tmp_path / "want" / name).read_bytes()
    lines = (d / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "k,agent,u,sigma,sigma_prime,u_prime,y_next,O_next"
    assert len(lines) == 1 + 400 * 4
    edges = (d / "edges.csv").read_text().splitlines()
    assert edges[0] == "k,i,j,z,eps" and len(edges) == 1 + 58 * 8


def test_export_writes_the_count_events(tmp_path, capsys):
    d = run_dir(tmp_path)
    out = capsys.readouterr().out
    log = harness.load_run(str(d))[0]
    events = analysis.truncation_events(log)
    assert f"count events: {len(events)}\n" in out and len(events) == len(log.events)
    assert {kind for *_, kind in events} == {"fired", "pooled"}
    assert main(["export", "--log", str(d)]) == 0
    lines = (d / "events.csv").read_text().splitlines()
    assert lines == ["k,agent,sigma,kind"] + [f"{k},{a},{c},{kind}" for k, a, c, kind in events]


def test_export_of_a_run_without_count_events(tmp_path):
    d = tmp_path / "quiet"
    harness.save_run(harness.run(two_agent_scenario(horizon=20, dist="zero")), str(d))
    assert len(harness.load_run(str(d))[0].events) == 0
    assert main(["export", "--log", str(d)]) == 0
    assert (d / "events.csv").read_text() == "k,agent,sigma,kind\n"


# ---------------------------------------------------------------------------
# plotdata

def test_plotdata_series_shape(tmp_path):
    d = run_dir(tmp_path)
    p = tmp_path / "series"
    assert main(["plotdata", "--log", str(d), "--out", str(p),
                 "--points", "50"]) == 0
    ins = (p / "inputs.csv").read_text().splitlines()
    outs = (p / "outputs.csv").read_text().splitlines()
    assert ins[0] == "k,u_1,u_2,u_3,u_4"
    assert outs[0] == "k,y_1,y_2,y_3,y_4"
    assert 2 <= len(ins) - 1 <= 50

    in_ks = [int(l.split(",")[0]) for l in ins[1:]]
    out_ks = [int(l.split(",")[0]) for l in outs[1:]]
    assert in_ks[0] == 1 and in_ks[-1] == 400
    assert in_ks == sorted(set(in_ks))
    # outputs are indexed by the step where they take effect
    assert out_ks == [k + 1 for k in in_ks]


def test_plotdata_defaults_into_log_dir(tmp_path):
    d = run_dir(tmp_path)
    assert main(["plotdata", "--log", str(d)]) == 0
    assert (d / "inputs.csv").exists()
    assert (d / "outputs.csv").exists()


def test_plotdata_does_not_import_numpy_ma(tmp_path, capsys):
    # np.unique imports numpy.ma, 10-20 ms per process: plotdata keeps the
    # first of each run of its sorted rows instead
    d = run_dir(tmp_path, "--log-stride", "7")
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys; from hwconsensus.cli import main; "
            "code = main(['plotdata', '--log', sys.argv[1], '--points', '300']); "
            "print(code, 'numpy.ma' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code, str(d)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.stdout.splitlines()[-1] == "0 False", done.stderr


def test_plotdata_missing_directory(tmp_path, capsys):
    assert main(["plotdata", "--log", str(tmp_path / "ghost")]) == 3
    assert "no run found" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    ("run --case 1 --horizon 0", "invalid configuration: horizon must be at least 1, got 0"),
    ("run --case 1 --horizon -3", "invalid configuration: horizon must be at least 1, got -3"),
    ("run --case 1 --log-stride 0",
     "invalid configuration: log_stride must be at least 1, got 0"),
    ("run --case 1 --log-stride -2",
     "invalid configuration: log_stride must be at least 1, got -2"),
    ("run --scenario TMP/c_M=0.json",
     "invalid configuration: c_M must be positive and finite, got 0.0"),
    ("run --scenario TMP/c_M=-1.json",
     "invalid configuration: c_M must be positive and finite, got -1.0"),
    ("plotdata --log TMP --points -5", "usage error: --points must be at least 1, got -5"),
    ("plotdata --log TMP --points 0", "usage error: --points must be at least 1, got 0"),
])
def test_values_out_of_range_exit_1(tmp_path, capsys, argv, message):
    for c_M in (0, -1):
        doc = scenario_to_dict(two_agent_scenario(horizon=10))
        doc["controller"]["c_M"] = c_M
        (tmp_path / f"c_M={c_M}.json").write_text(json.dumps(doc))
    argv = argv.replace("TMP", str(tmp_path)).split()
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.splitlines()[0] == message
    assert "Traceback" not in err
    assert _main_under_O(argv) == (1, err)


@pytest.mark.parametrize("error", [RecursionError, MemoryError])
def test_a_network_too_large_to_compile_exits_1(tmp_path, capsys, monkeypatch, error):
    # CPython's compiler gives up on the source of a network with an agent
    # of large enough degree (between 2000 and 3000 neighbours: its control
    # round's sum nests that deep); run and verify name its size, not a traceback
    def fails(*args):
        raise error("maximum recursion depth exceeded during compilation")

    d = tmp_path / "strided"
    assert main(["run", "--case", "1", "--horizon", "40", "--log-stride", "10",
                 "--out", str(d)]) == 0
    capsys.readouterr()
    with monkeypatch.context() as patch:
        harness._round_kernel.cache_clear()
        patch.setattr(harness, "compile_steps", fails)
        assert main(["run", "--case", "1", "--horizon", "40"]) == 1
        err = capsys.readouterr().err
        assert err == ("invalid configuration: the round kernel of 4 agents and 8 directed "
                       f"edges does not compile ({error.__name__})\n")
    with monkeypatch.context() as patch:
        plant._compiled_steps.cache_clear()
        patch.setattr(plant, "compile_steps", fails)
        assert main(["verify", "--log", str(d)]) == 1
        err = capsys.readouterr().err
        assert "4 agents" in err and error.__name__ in err and "Traceback" not in err
    assert not (d / "report.json").exists() and not (d / "metrics.csv").exists()


# ---------------------------------------------------------------------------
# top level

def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 1
    assert "usage error" in capsys.readouterr().err


def test_unknown_flag_is_usage_error(capsys):
    assert main(["run", "--case", "1", "--frobnicate"]) == 1
    assert "usage" in capsys.readouterr().err
