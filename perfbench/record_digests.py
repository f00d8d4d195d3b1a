"""Record the expected log digest of every job for the default seeds.

    python3 perfbench/record_digests.py [--seeds 0-24] [--workloads ...]

Runs the warm-up and one cycle of each workload per seed through the same
code as run.py, refuses to record a run that fails any check, and rewrites
digests.json (entries for other workloads and seeds are kept). Run it only when the
benchmark's inputs change; a program change must reproduce these digests.
"""

import argparse
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import gate  # noqa: E402
from baseline import seed_list  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="0-24")
    ap.add_argument("--workloads", nargs="+", default=sorted(WORKLOADS))
    args = ap.parse_args()

    recorded = gate.load_recorded()
    workdir = os.path.join(HERE, ".work", f"record-{os.getpid()}")
    try:
        for name in args.workloads:
            for seed in seed_list(args.seeds):
                wl = WORKLOADS[name](seed, workdir)
                digests = {}
                outs = wl.warmup()
                for job in wl.cycle():
                    outs += wl.execute(job)
                for out in outs:
                    if not out.ok or out.digest is None:
                        print(f"{name} seed {seed} {out.key} failed: {out.problems}",
                              file=sys.stderr)
                        return 1
                    digests[out.key] = out.digest
                recorded.setdefault(name, {})[str(seed)] = digests
                print(f"{name} seed {seed}: {len(digests)} digests", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    with open(gate.DIGESTS_PATH, "w") as fh:
        json.dump({"format": "sha256 over TrajectoryLog columns " + ", ".join(gate.COLUMNS)
                   + " (float64/int64 little-endian, NaN canonical); keys are job names "
                   "per workload and workload seed",
                   "digests": recorded}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
