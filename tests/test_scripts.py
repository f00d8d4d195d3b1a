import os
import subprocess
import sys

from hwconsensus import builtin_case, run, save_run

from test_harness import flip_bit

SCRIPT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "scripts", "partial_sum_traces.py")


def partial_sums(*args):
    return subprocess.run([sys.executable, SCRIPT, *args], capture_output=True,
                          text=True, timeout=120)


def test_partial_sum_traces_writes_both_traces(tmp_path):
    d = tmp_path / "r"
    save_run(run(builtin_case(1, horizon=300)), str(d))
    out = partial_sums("--log", str(d), "--points", "50")
    assert out.returncode == 0, out.stderr
    window = (d / "window_sums.csv").read_text().splitlines()
    noise = (d / "noise_sums.csv").read_text().splitlines()
    assert window[0] == "k,agent_1,agent_2,agent_3,agent_4"
    assert noise[0] == "k,e_1_2,e_1_4,e_2_1,e_2_3,e_2_4,e_3_2,e_4_1,e_4_2"
    assert 2 <= len(window) - 1 <= 50 and 2 <= len(noise) - 1 <= 50


def test_partial_sum_traces_of_a_strided_run_are_those_of_stride_1(tmp_path):
    # O and the noise are regenerated on every step from the stored log, so
    # the stride the run was logged at changes no byte of either trace
    for stride in (1, 10):
        save_run(run(builtin_case(1, horizon=300, log_stride=stride)), str(tmp_path / f"{stride}"))
        out = partial_sums("--log", str(tmp_path / f"{stride}"), "--points", "50")
        assert out.returncode == 0, out.stderr
    for name in ("window_sums.csv", "noise_sums.csv"):
        assert (tmp_path / "10" / name).read_bytes() == (tmp_path / "1" / name).read_bytes()


def test_partial_sum_traces_rejects_a_corrupt_run(tmp_path):
    d = tmp_path / "r"
    save_run(run(builtin_case(1, horizon=20)), str(d))
    flip_bit(d, "u", (9, 2))
    out = partial_sums("--log", str(d))
    assert out.returncode == 3
    assert out.stderr == "unreadable run: log.npz: array u: Bad CRC-32 for file 'u.npy'\n"
    assert "Traceback" not in out.stderr
    assert not (d / "window_sums.csv").exists()
