"""Repeat the benchmark and summarise each metric's spread.

    python3 perfbench/baseline.py --workloads case-pipeline long-strided seed-ensemble \
        --seeds 1-10 --seconds 20 [--trace 1] [--out perfbench/baseline.json]

Runs perfbench/run.py once per (workload, seed), one process at a time, and
reports for every metric its median, first and third quartile
(statistics.quantiles, n=4) and the quartile distance as a share of the
median. With --out, writes those figures as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def summarise(results: list) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3,
                     "iqr_share": (q3 - q1) / abs(med) if med else 0.0}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    report = {"seconds": args.seconds, "trace": args.trace, "seeds": seed_list(args.seeds),
              "workloads": {}}
    for workload in args.workloads:
        results = [run_once(workload, seed, args.seconds, args.trace)
                   for seed in report["seeds"]]
        summary = summarise(results)
        report["workloads"][workload] = {
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "all_correct": all(r["correct"] for r in results),
            "max_wall_s": max(r["wall_s"] for r in results),
            "metrics": summary,
        }
        print(f"\n{workload}: {report['workloads'][workload]['attempted']} runs, "
              f"{report['workloads'][workload]['failed']} failed, longest invocation "
              f"{report['workloads'][workload]['max_wall_s']:.1f} s")
        for name, m in summary.items():
            print(f"  {name:<40} median {m['median']:<14.6g} q1 {m['q1']:<14.6g} "
                  f"q3 {m['q3']:<14.6g} spread {m['iqr_share']:.4f}  {m['unit']}")
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
