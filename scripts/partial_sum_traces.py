"""Partial-sum diagnostics from a saved stride-1 run, for plotting only.

Two traces come out of a run directory:

  window_sums.csv   per agent, |sum_{s=k}^{k+floor(ln k)} a_s O_{i,s+1}| vs k.
                    The theory says windowed weighted observation sums vanish
                    as k grows; this is the finite-sample picture of that.
  noise_sums.csv    per directed edge, |sum_{s<=k} a_s eps_{ij,s+1}| vs k.
                    Should wander but stay bounded.

These are asymptotic statements. Nothing here is a pass/fail check and no
tooling asserts on these numbers; eyeball them on a log-x plot.

Usage:
    python3 scripts/partial_sum_traces.py --log results/case1 [--points 2000]
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hwconsensus import IncompleteLog, load_run  # noqa: E402
from hwconsensus.analysis import geometric_rows  # noqa: E402
from hwconsensus.csvout import format_cells, write_csv  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--log", required=True, help="run directory (stride 1)")
    ap.add_argument("--out", help="output directory (default: --log)")
    ap.add_argument("--points", type=int, default=2000)
    args = ap.parse_args()

    try:
        log, _ = load_run(args.log)
    except FileNotFoundError as e:
        print(f"no run found: {e}", file=sys.stderr)
        return 3
    except IncompleteLog as e:
        print(f"unreadable run: {e}", file=sys.stderr)
        return 3
    if log.log_stride != 1:
        print("partial-sum traces need a stride-1 log", file=sys.stderr)
        return 1
    outdir = args.out or args.log
    os.makedirs(outdir, exist_ok=True)

    K, n = log.O_next.shape
    a = 1.0 / np.arange(1, K + 1)
    wO = a[:, None] * log.O_next
    # prefix[r] = sum of rows 0..r-1, so a window [k, e] is prefix[e+1]-prefix[k-1]
    prefix = np.vstack([np.zeros(n), np.cumsum(wO, axis=0)])

    ks = []
    traces = []
    for k in range(1, K + 1):
        end = k + int(np.floor(np.log(k)))
        if end > K:
            break
        ks.append(k)
        traces.append(np.abs(prefix[end] - prefix[k - 1]))
    ks = np.array(ks)
    traces = np.array(traces)

    rows = geometric_rows(len(ks), args.points)
    path = os.path.join(outdir, "window_sums.csv")
    write_csv(path, "k," + ",".join(f"agent_{i + 1}" for i in range(n)),
              [(format_cells(ks[rows]), *map(format_cells, traces[rows].T))])
    print(f"wrote {path} ({len(rows)} samples, windows up to ln {K})")

    wE = a[:, None] * log.eps
    running = np.abs(np.vstack([np.zeros(len(log.pairs)), np.cumsum(wE, axis=0)]))
    rows = geometric_rows(K, args.points)
    path = os.path.join(outdir, "noise_sums.csv")
    write_csv(path, "k," + ",".join(f"e_{i}_{j}" for (i, j) in log.pairs),
              [(format_cells(rows + 1), *map(format_cells, running[rows + 1].T))])
    print(f"wrote {path} (diagnostic only, nothing asserts on these)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
