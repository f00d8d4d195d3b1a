"""What the benchmark calls of the package, checked in process.

perfbench/workloads.py and perfbench/gate.py are imported by path, unchanged.
One cycle of each workload at workload seed 0 must run with no problems and
reproduce the log digests recorded in perfbench/digests.json.
"""

import importlib.util
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    # workloads.py imports gate by its bare name
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["case-pipeline", "long-strided", "seed-ensemble"])
def test_one_cycle_reproduces_the_recorded_digests(tmp_path, monkeypatch, workload):
    gate = _load("gate", monkeypatch)
    workloads = _load("workloads", monkeypatch)
    book = gate.DigestBook(workload, 0)
    assert book.recorded
    wl = workloads.WORKLOADS[workload](0, str(tmp_path / "work"))
    outcomes = [out for job in wl.cycle() for out in wl.execute(job)]
    assert outcomes
    for out in outcomes:
        assert out.problems == [], out.key
        assert book.check(out.key, out.digest) is None, out.key
