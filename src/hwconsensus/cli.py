"""Command-line front end.

Subcommands:
  run       simulate a built-in case or a scenario JSON, write run files
  verify    replay a saved run of any stride through every identity check
  plotdata  emit downsampled input/output series for log-scale plotting
  export    write a saved run's log as trajectory.csv, edges.csv and events.csv

Exit codes: 0 success, 1 validation or usage problem (including a network
too large to compile, corrupt or mismatched logs, a log missing an output,
or a logged output the plant replayed over the logged inputs does not
reproduce, handed to verify),
2 runtime failure (divergence, a failed identity), 3 I/O problem (missing
files or directories, or a run plotdata or export cannot read). A corrupt
store (a log.npz that is not an npz archive, whose arrays differ from what
save_run writes and meta.json records, or whose count events are out of
order, off the run's steps or agents or do not rise) exits 1 from verify
and 3 from plotdata and export; a run directory without meta.json or
log.npz exits 3.
Stdout stays human-readable; machine results go only to files.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
import time

import numpy as np

from . import analysis, csvout, harness
from .errors import (
    BracketFailure,
    IdentityViolation,
    IncompleteLog,
    NonFiniteValue,
    RootSolverFailure,
    ValidationError,
)
from .noise import make_noise_spec


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; route through our own code instead
    def error(self, message):
        raise UsageError(message)


@functools.lru_cache(maxsize=1)
def build_parser() -> _Parser:
    """The command line's parser, built once per process: parse_args keeps no
    state between calls."""
    p = _Parser(prog="hwconsensus", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command")

    r = sub.add_parser("run", help="simulate one scenario")
    r.add_argument("--case", type=int, choices=(1, 2, 3),
                   help="built-in four-agent benchmark case")
    r.add_argument("--scenario", help="path to a scenario JSON file")
    r.add_argument("--seed", type=int, help="override the noise seed")
    r.add_argument("--horizon", type=int, help="override the horizon")
    r.add_argument("--out", help="directory to write run files into")
    r.add_argument("--noise-off", action="store_true",
                   help="replace the noise model with exact zeros")
    r.add_argument("--log-stride", type=int,
                   help="log outputs and edge data every this many steps")

    v = sub.add_parser("verify", help="check a saved run, of any stride")
    v.add_argument("--log", required=True, help="run directory to verify")

    d = sub.add_parser("plotdata", help="downsampled series from a saved run")
    d.add_argument("--log", required=True, help="run directory to read")
    d.add_argument("--out", help="directory for the series files (default: --log)")
    d.add_argument("--points", type=int, default=500,
                   help="target number of geometrically spaced samples")

    e = sub.add_parser("export", help="a saved run's log and count events as CSV files")
    e.add_argument("--log", required=True, help="run directory to read")
    e.add_argument("--out", help="directory for the CSV files (default: --log)")
    return p


# ---------------------------------------------------------------------------

def _resolve_scenario(args) -> harness.Scenario:
    if (args.case is None) == (args.scenario is None):
        raise UsageError("exactly one of --case or --scenario is required")
    if args.case is not None:
        s = harness.builtin_case(args.case)
    else:
        s = harness.load_scenario(args.scenario)
    if args.horizon is not None:
        s = dataclasses.replace(s, horizon=args.horizon)
    if args.log_stride is not None:
        s = dataclasses.replace(s, log_stride=args.log_stride)
    if args.noise_off:
        s = dataclasses.replace(
            s, noise=make_noise_spec("zero", {}, s.noise.seed))
    return s


def cmd_run(args) -> int:
    s = _resolve_scenario(args)
    try:
        result = harness.run(s, args.seed)  # make_noise_spec checks the seed
    except NonFiniteValue as e:
        print(f"diverged: {e} (step {e.step}, agent {e.agent})", file=sys.stderr)
        if args.out and e.partial is not None and e.partial.log.horizon > 0:
            harness.save_run(e.partial, args.out)
            print(f"partial log written to {args.out}", file=sys.stderr)
        return 2
    summ = result.summary
    spread = summ["final_spread"]
    print(f"final spread: {spread!r}")
    print(f"final residual: {summ['final_residual']!r}")
    print(f"sigma_bar: {summ['sigma_bar_final']}")
    print(f"truncations per agent: {summ['total_truncations']}")
    print(f"count events: {len(result.log.events)}")
    print(f"wall time: {result.wall_time:.3f} s")
    if args.out:
        t0 = time.perf_counter()
        harness.save_run(result, args.out)
        print(f"save time: {time.perf_counter() - t0:.3f} s")
        print(f"wrote {args.out}")
    return 0


def cmd_verify(args) -> int:
    t0 = time.perf_counter()
    try:
        log, s = harness.load_run(args.log)
    except FileNotFoundError as e:
        print(f"no run found: {e}", file=sys.stderr)
        return 3
    t1 = time.perf_counter()
    gains = s.gains()
    roots = analysis.gain_roots(gains)
    h_roots = analysis.at_roots(gains, roots)
    # each block's metrics are written as it is checked; metrics.csv appears
    # once every check has run. The columns are the fields of RunMetrics
    with csvout.csv_writer(os.path.join(args.log, "metrics.csv"),
                           "k,spread_y,residual,sigma_bar,v") as write:
        report, extras = analysis.full_verification(
            log, gains, s.topology, lambda block: write(list(map(csvout.format_cells, vars(
                analysis.consensus_metrics(block, gains, roots, h_roots)).values()))))
    rec = extras["recursion"]

    eq28_note = f"grid k <= {analysis.EQ28_GRID_K}, T in {analysis.EQ28_GRID_T}"
    if extras["eq28_first_failure"] is not None:
        k, T, lo, m, hi = extras["eq28_first_failure"]
        eq28_note += f"; first failure at k={k}, T={T}: {lo!r} < {m} < {hi!r}"
    replay_note = f"max residual {report['lemma3_residual']:.3e}"
    if not rec.sigma_consistent:
        replay_note += ", count path mismatch"
    rows = [
        ("centralized replay", rec.passed, replay_note + _failure_note(rec.first_failure)),
        ("truncation window bound", report["eq26_ok"],
         f"diameter {extras['diameter']}, top count {extras['truncation_top']}"),
        ("step-count bounds", report["eq28_ok"], eq28_note),
        ("noise decomposition", extras["decomposition_first_failure"] is None,
         f"max err {report['decomposition_max_err']:.3e}"
         + _failure_note(extras["decomposition_first_failure"])),
    ]
    width = max(len(name) for name, _, _ in rows)
    for name, ok, note in rows:
        print(f"{name:<{width}}  {'pass' if ok else 'FAIL'}  {note}")

    harness.write_json(os.path.join(args.log, "report.json"), report)
    # stdout only: report.json and metrics.csv are a function of the log
    print(f"load time: {t1 - t0:.3f} s")
    print(f"check time: {time.perf_counter() - t1:.3f} s")

    return 0 if all(ok for _, ok, _ in rows) else 2


def _failure_note(failure) -> str:
    """The note naming a check's first failing (k, agent, value), if any."""
    if failure is None:
        return ""
    k, agent, value = failure
    return f"; first failure at k={k}, agent {agent}: {value!r}"


def _write_series(path: str, name: str, ks, values) -> None:
    """One row per step: k, then one column per agent."""
    head = "k," + ",".join(f"{name}_{i + 1}" for i in range(values.shape[1]))
    csvout.write_csv(path, head, [(csvout.format_cells(ks),
                                   *map(csvout.format_cells, values.T))])


def _read_run(rundir: str):
    """load_run's log, or None after naming a missing or unreadable run."""
    try:
        return harness.load_run(rundir)[0]
    except FileNotFoundError as e:
        print(f"no run found: {e}", file=sys.stderr)
    except IncompleteLog as e:
        print(f"unreadable run: {e}", file=sys.stderr)
    return None


def cmd_plotdata(args) -> int:
    if args.points < 1:
        raise UsageError(f"--points must be at least 1, got {args.points}")
    log = _read_run(args.log)
    if log is None:
        return 3
    outdir = args.out or args.log
    os.makedirs(outdir, exist_ok=True)
    rows = analysis.geometric_rows(log.u.shape[0], args.points)
    _write_series(os.path.join(outdir, "inputs.csv"), "u", rows + 1, log.u[rows])

    # outputs are indexed by the step at which they take effect (k + 1)
    avail = log.logged_rows
    at = np.searchsorted(avail, rows).clip(0, len(avail) - 1)
    pick = avail[at[np.diff(at, prepend=-1) > 0]]  # sorted: np.unique without numpy.ma
    _write_series(os.path.join(outdir, "outputs.csv"), "y", pick + 2,
                  log.y[pick // log.log_stride])
    print(f"wrote {os.path.join(outdir, 'inputs.csv')} and outputs.csv "
          f"({len(rows)} and {len(pick)} samples)")
    return 0


def cmd_export(args) -> int:
    log = _read_run(args.log)
    if log is None:
        return 3
    outdir = args.out or args.log
    csvout.export_csv(log, outdir)
    print(f"wrote {os.path.join(outdir, 'trajectory.csv')}, edges.csv and events.csv")
    return 0


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required (run, verify, plotdata, export)")
        return {"run": cmd_run, "verify": cmd_verify, "plotdata": cmd_plotdata,
                "export": cmd_export}[args.command](args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except ValidationError as e:
        print(f"invalid configuration: {e}", file=sys.stderr)
        return 1
    except IncompleteLog as e:
        print(f"incomplete log: {e}", file=sys.stderr)
        return 1
    except (BracketFailure, IdentityViolation, RootSolverFailure) as e:
        print(f"runtime failure: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"i/o failure: {e}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
