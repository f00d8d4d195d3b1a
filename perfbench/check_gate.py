"""Show that the bit-identity gate fires.

    python3 -O perfbench/check_gate.py

Each case goes through the same Tally and DigestBook that run.py uses and
must come out as a failed run; the untouched log must pass. Exit code 0 when
every case behaves so, 1 otherwise. Uses no assert, so -O changes nothing.
"""

import dataclasses
import os
import shutil
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402  (sets the BLAS thread pins before numpy work)

run.import_package()

import gate  # noqa: E402
import workloads  # noqa: E402
from hwconsensus import harness  # noqa: E402

SEED = 0
OTHER_SEED = 1


def fresh(outcome):
    """A copy, since a tally appends its findings to the outcome."""
    return dataclasses.replace(outcome, problems=[])


def failed(outcome, seed, recorded) -> bool:
    tally = run.Tally(gate.DigestBook(workloads.SeedEnsemble.name, seed, recorded))
    tally.add([fresh(outcome)])
    return tally.failed == 1


def main() -> int:
    recorded = gate.load_recorded()
    name = workloads.SeedEnsemble.name
    if str(SEED) not in recorded.get(name, {}) or str(OTHER_SEED) not in recorded[name]:
        print(f"digests.json has no {name} entries for seeds {SEED} and {OTHER_SEED}")
        return 1
    workdir = os.path.join(HERE, ".work", f"gate-{os.getpid()}")
    results = []
    try:
        wl = workloads.SeedEnsemble(SEED, workdir)
        clean = wl.execute(wl.cycle()[0])[0]
        results.append(("unchanged log passes", not failed(clean, SEED, recorded)))

        seed = int(clean.key[len("seed"):])
        log = harness.run(wl.scenario, seed).log
        bits = log.u.view(np.uint64)
        bits[len(bits) // 2, 0] ^= np.uint64(1)
        flipped = workloads.Outcome(key=clean.key, seconds=1.0, rounds=1, log_bytes=0,
                                    digest=gate.log_digest(log))
        results.append(("one flipped bit in u fails", failed(flipped, SEED, recorded)))

        results.append(("digest checked against another seed's table fails",
                        failed(clean, OTHER_SEED, recorded)))

        # an unrecorded seed: the first run sets the digest, a changed repeat fails
        book = gate.DigestBook(name, 10 ** 9, recorded)
        tally = run.Tally(book)
        tally.add([fresh(clean)])
        tally.add([fresh(flipped)])
        results.append(("unrecorded seed: changed repeat fails", tally.failed == 1))

        # a bit changed on disk, read back through load_run
        case = workloads.CasePipeline(SEED, workdir)
        good = case.execute(("case", 1))[0]
        rundir = os.path.join(workdir, "case1")
        path = os.path.join(rundir, "trajectory.csv")
        with open(path, "rb") as fh:
            data = bytearray(fh.read())
        start = data.index(b"\n2,1,") + 5   # u of agent 1 at k = 2
        pos = data.index(b",", start) - 1   # its last digit
        data[pos] ^= 0x01                   # stays a digit: 0<->1, 2<->3, ...
        with open(path, "wb") as fh:
            fh.write(data)
        bad = workloads.Outcome(key=good.key, seconds=1.0, rounds=1, log_bytes=0)
        workloads._digest_saved(bad, rundir, workloads.CASE_HORIZON, 1)
        book = gate.DigestBook(case.name, SEED, recorded)
        tally = run.Tally(book)
        tally.add([good, bad])
        results.append(("one flipped bit in trajectory.csv fails",
                        book.recorded and tally.failed == 1))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for label, ok in results:
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
    return 0 if all(ok for _, ok in results) else 1


if __name__ == "__main__":
    sys.exit(main())
