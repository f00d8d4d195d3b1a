"""hwconsensus benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload case-pipeline --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from src/
of that checkout and nowhere else. Set-up (imports, scenario generation and
one warm-up job) is timed, then jobs repeat until --seconds have passed.
Every run is checked: CLI exit codes, the verify rows, and the SHA-256 digest
of its log against digests.json (or, for an unrecorded seed, against the
first run of the same job). The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end ones, their times normalised by a reference loop timed
around each job (reference.py); with --trace 1 untraced and traced cycles
alternate and the metrics are the per-layer ones. Details, digests and the
raw spans go to perfbench/.work/.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from reference import normalised, reference  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
SETUP_PROBES = 2       # extra set-ups in fresh processes, for the setup_s median
PROBE_TIMEOUT_S = 120

# one BLAS thread, set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

MIB = float(2 ** 20)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="only set up, print the set-up time and exit")
    return ap.parse_args(argv)


def import_package():
    """Import hwconsensus from this checkout's src/, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "hwconsensus", "__init__.py")):
        print(f"error: no hwconsensus sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import hwconsensus
    if os.path.dirname(os.path.dirname(os.path.abspath(hwconsensus.__file__))) != SRC:
        print(f"error: hwconsensus imported from {hwconsensus.__file__}, not {SRC}",
              file=sys.stderr)
        sys.exit(2)


class Tally:
    """Every checked run: attempted, failed, and why."""

    def __init__(self, book):
        self.book = book
        self.attempted = 0
        self.failed = 0
        self.max_residual = 0.0

    def add(self, outcomes) -> list:
        for out in outcomes:
            self.attempted += 1
            # a run that passed every other check must also carry the digest
            if out.digest is not None or out.ok:
                reason = self.book.check(out.key, out.digest)
                if reason is not None:
                    out.problems.append(reason)
            if out.lemma3_residual is not None:
                self.max_residual = max(self.max_residual, out.lemma3_residual)
            if not out.ok:
                self.failed += 1
                print(f"FAILED {out.key}: {'; '.join(out.problems)}", file=sys.stderr)
        return outcomes


def run_job(wl, job, tally, calibrate: bool) -> list:
    """Execute one job; with calibrate, time the reference loop around it."""
    from workloads import Outcome
    before = reference() if calibrate else None
    t0 = time.perf_counter()
    try:
        outs = wl.execute(job)
    except Exception:
        traceback.print_exc()
        outs = [Outcome(key=str(job), seconds=time.perf_counter() - t0, rounds=0,
                        log_bytes=0, problems=["raised"])]
    if calibrate:
        ref = 0.5 * (before + reference())
        for out in outs:
            out.reference_s = ref
    return tally.add(outs)


def measure(wl, tally, seconds: float, whole_cycles: bool, calibrate: bool = False):
    """Run jobs in cycle order until `seconds` have passed, at least one job
    (one cycle if whole_cycles); returns (outcomes, cycles begun)."""
    outcomes = []
    cycles = 0
    deadline = time.perf_counter() + seconds
    while True:
        cycles += 1
        for job in wl.cycle():
            outcomes += run_job(wl, job, tally, calibrate)
            if not whole_cycles and time.perf_counter() >= deadline:
                return outcomes, cycles
        if time.perf_counter() >= deadline:
            return outcomes, cycles


def setup(workload: str, seed: int, workdir: str):
    from workloads import WORKLOADS
    if workload not in WORKLOADS:
        print(f"error: unknown workload {workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        sys.exit(2)
    wl = WORKLOADS[workload](seed, workdir)
    warm = wl.warmup()
    return wl, warm, time.perf_counter() - T_START


def setup_probes(args) -> list:
    """Normalised set-up times of fresh processes doing the same set-up."""
    times = []
    for _ in range(SETUP_PROBES):
        before = reference()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"setup probe failed ({proc.returncode}): {proc.stderr[-2000:]}",
                  file=sys.stderr)
            continue
        ref = 0.5 * (before + reference())
        times.append(normalised(json.loads(lines[-1])["setup_s"], ref))
    return times


def supported_percentile(values):
    """Highest of p50/p75/p90/p95/p99 with at least ten samples above it."""
    n = len(values)
    best = None
    for p in (50, 75, 90, 95, 99):
        if n * (100 - p) / 100 >= 10:
            best = p
    if best is None:
        return None, None
    return best, statistics.quantiles(values, n=100, method="inclusive")[best - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(outcomes, setup_times, tally) -> tuple:
    """End-to-end metrics; times are normalised by the reference loop."""
    timed = [o for o in outcomes if o.seconds > 0 and o.rounds > 0]
    job_s = [normalised(o.seconds, o.reference_s) for o in timed]
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "job_s": metric(statistics.median(job_s), "s"),
        "us_per_round": metric(statistics.median(s * 1e6 / o.rounds
                                                 for s, o in zip(job_s, timed)), "us"),
        "runs_per_s": metric(len(timed) / sum(job_s), "1/s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                              "MiB"),
        "log_mb": metric(statistics.median(o.log_bytes for o in timed) / MIB, "MiB"),
        "pass_ratio": metric(1.0 - tally.failed / tally.attempted, "ratio"),
    }
    p, value = supported_percentile(job_s)
    details = {"jobs": [[o.key, o.seconds, o.reference_s] for o in timed],
               "setup_samples": setup_times,
               "job_s_max": max(job_s),
               "job_s_percentile": None if p is None else {"p": p, "value": value}}
    return metrics, details


def per_layer(tracer, cycles, traced_s, untraced_s, outcomes) -> dict:
    t = tracer.table()

    def per(name, field):
        v = t.get(name, {}).get(field, 0) / cycles
        return int(round(v)) if field == "calls" else v

    def share(a, b):
        return a / b if b else 0.0

    cc = tracer.controller_counts()
    run_self = t["harness.run"]["self_s"]
    step = t["plant.step"]
    job = t["job"]
    residuals = [o.lemma3_residual for o in outcomes if o.lemma3_residual is not None]
    values = {
        "harness.run.self_s": (per("harness.run", "self_s"), "s"),
        "harness.run.us_per_round": (share(run_self * 1e6, tracer.rounds), "us"),
        "harness.validate_scenario.s": (per("harness.validate_scenario", "s"), "s"),
        "plant.static_gain.calls": (per("plant.static_gain", "calls"), "count"),
        "harness.save_run.s": (per("harness.save_run", "s"), "s"),
        "harness.save_run.bytes": (int(round(tracer.save_bytes / cycles)), "B"),
        "harness.load_run.s": (per("harness.load_run", "s"), "s"),
        "plant.step.calls": (per("plant.step", "calls"), "count"),
        "plant.step.s": (per("plant.step", "s"), "s"),
        "plant.step.us_per_call": (share(step["s"] * 1e6, step["calls"]), "us"),
        "controller.step_agent.calls": (per("controller.step_agent", "calls"), "count"),
        "controller.step_agent.s": (per("controller.step_agent", "s"), "s"),
        "controller.truncations": (int(round(cc["truncations"] / cycles)), "count"),
        "controller.restarts": (int(round(cc["restarts"] / cycles)), "count"),
        "controller.accept_ratio": (share(cc["kept"], cc["attempted"]), "ratio"),
        "noise.draw.calls": (per("noise.draw", "calls"), "count"),
        "noise.draw.s": (per("noise.draw", "s"), "s"),
        "noise.samples": (int(round(tracer.samples / cycles)), "count"),
        "noise.block_mb": (tracer.noise_peak / MIB, "MiB"),
        "analysis.full_verification.s": (per("analysis.full_verification", "s"), "s"),
        "analysis.m_of.calls": (per("analysis.m_of", "calls"), "count"),
        "analysis.m_of.s": (per("analysis.m_of", "s"), "s"),
        "analysis.build_auxiliary.s": (per("analysis.build_auxiliary", "s"), "s"),
        "analysis.verify_centralized_recursion.s":
            (per("analysis.verify_centralized_recursion", "s"), "s"),
        "analysis.consensus_metrics.s": (per("analysis.consensus_metrics", "s"), "s"),
        "analysis.gain_evals": (per("plant.StaticGain.__call__", "calls"), "count"),
        "analysis.lemma3_residual_max": (max(residuals, default=0.0), "1"),
        "graph.laplacian.calls": (per("graph.laplacian", "calls"), "count"),
        "graph.laplacian.s": (per("graph.laplacian", "s"), "s"),
        "cli.cmd_verify.self_s": (per("cli.cmd_verify", "self_s"), "s"),
        "cli.cmd_plotdata.self_s": (per("cli.cmd_plotdata", "self_s"), "s"),
        "trace.job_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.overhead_share": (share(traced_s - untraced_s, untraced_s), "ratio"),
        "trace.unattributed_share": (share(job["self_s"], job["s"]), "ratio"),
    }
    return {k: metric(v, u) for k, (v, u) in values.items()}


def print_span_table(tracer, cycles, file=sys.stderr):
    t = tracer.table()
    rows = sorted(t.items(), key=lambda kv: -kv[1]["self_s"])
    print(f"{'span':<40} {'calls/cycle':>12} {'s/cycle':>10} {'self s/cycle':>12}", file=file)
    for name, row in rows:
        if row["calls"]:
            print(f"{name:<40} {row['calls'] / cycles:>12.0f} {row['s'] / cycles:>10.4f} "
                  f"{row['self_s'] / cycles:>12.4f}", file=file)
    total_self = sum(row["self_s"] for row in t.values())
    print(f"self times sum to {total_self / cycles:.4f} s/cycle; traced job time "
          f"{t['job']['s'] / cycles:.4f} s/cycle; unattributed (job self) "
          f"{t['job']['self_s'] / cycles:.4f} s/cycle", file=file)
    if tracer.absent:
        print(f"entry points not found (reported as zero calls): {tracer.absent}",
              file=file)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import gate
    from spans import Tracer

    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    try:
        wl, warm, setup_s = setup(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        book = gate.DigestBook(args.workload, args.seed)
        tally = Tally(book)
        tally.add(warm)
        details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "digests_recorded": book.recorded}

        if args.trace == 0:
            setup_s = normalised(setup_s, reference())
            outcomes, cycles = measure(wl, tally, args.seconds, wl.whole_cycles, True)
            metrics, more = end_to_end(outcomes, [setup_s] + setup_probes(args), tally)
            details.update(more)
        else:
            # untraced and traced cycles alternate, so both see the same
            # machine; their difference is the tracing overhead
            tracer = Tracer()
            untraced_s, traced_s, outcomes = [], [], []
            deadline = time.perf_counter() + args.seconds
            while not traced_s or time.perf_counter() < deadline:
                plain, _ = measure(wl, tally, 0.0, True)
                untraced_s.append(sum(o.seconds for o in plain))
                wl.tracer = tracer
                tracer.install()
                try:
                    traced, _ = measure(wl, tally, 0.0, True)
                finally:
                    tracer.uninstall()
                    wl.tracer = None
                traced_s.append(sum(o.seconds for o in traced))
                outcomes += traced
            cycles = len(traced_s)
            metrics = per_layer(tracer, cycles, statistics.mean(traced_s),
                                statistics.mean(untraced_s), outcomes)
            print_span_table(tracer, cycles)
            os.makedirs(WORK, exist_ok=True)
            tracer.save(os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.npz"))
            details["absent_entry_points"] = tracer.absent

        details.update(cycles=cycles, lemma3_residual_max=tally.max_residual,
                       digests=book.seen, metrics=metrics)
        if not book.recorded:
            for key, digest in sorted(book.seen.items()):
                print(f"digest {args.workload} seed {args.seed} {key}: {digest}",
                      file=sys.stderr)
        print(f"{args.workload} seed {args.seed}: {tally.attempted} runs, "
              f"{tally.failed} failed, {cycles} cycles, largest lemma3_residual "
              f"{tally.max_residual!r}", file=sys.stderr)
        if args.trace == 0:
            print(f"job_s over {len(more['jobs'])} jobs: median {metrics['job_s']['value']:.4f}"
                  f", highest supported percentile {more['job_s_percentile']}",
                  file=sys.stderr)
        with open(os.path.join(WORK, f"result-{args.workload}-seed{args.seed}"
                               f"-trace{args.trace}.json"), "w") as fh:
            json.dump(details, fh, indent=1)
        print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                          "failed": tally.failed, "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
