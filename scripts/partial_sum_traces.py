"""Partial-sum diagnostics from a saved run of any stride, for plotting only.

Two traces come out of a run directory:

  window_sums.csv   per agent, |sum_{s=k}^{k+floor(ln k)} a_s O_{i,s+1}| vs k.
                    The theory says windowed weighted observation sums vanish
                    as k grows; this is the finite-sample picture of that.
  noise_sums.csv    per directed edge, |sum_{s<=k} a_s eps_{ij,s+1}| vs k.
                    Should wander but stay bounded.

These are asymptotic statements. Nothing here is a pass/fail check and no
tooling asserts on these numbers; eyeball them on a log-x plot. O and the
noise on every step are regenerated from the stored log block by block, as
verify regenerates them, so a strided run gives the traces of its stride-1 log.

Usage:
    python3 scripts/partial_sum_traces.py --log results/case1 [--points 2000]
"""

import argparse
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from hwconsensus import IncompleteLog, laplacian, load_run  # noqa: E402
from hwconsensus.analysis import geometric_rows, log_blocks  # noqa: E402
from hwconsensus.csvout import format_cells, write_csv  # noqa: E402


def weighted_sums(log, s):
    """Running sums of a_k O_{i,k+1} per agent and of a_k eps_{ij,k+1} per
    directed edge, a_k = 1/k: row r holds steps 1..r, row 0 zeros."""
    sums = [(np.zeros((1, s.n)), np.zeros((1, len(log.pairs))))]
    for block in log_blocks(log, s.gains(), laplacian(s.topology)):
        # each block's running sums start from the last row of the one before
        sums.append(tuple(np.cumsum(np.vstack([before[-1:], (1.0 / block.k)[:, None] * x]), axis=0)[1:]
                          for before, x in zip(sums[-1], (block.O, block.noise))))
    return [np.vstack(column) for column in zip(*sums)]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--log", required=True, help="run directory")
    ap.add_argument("--out", help="output directory (default: --log)")
    ap.add_argument("--points", type=int, default=2000)
    args = ap.parse_args()

    try:
        log, s = load_run(args.log)
        # prefix[r] = sum of rows 0..r-1, so a window [k, e] is prefix[e+1]-prefix[k-1]
        prefix, noise_prefix = weighted_sums(log, s)
    except FileNotFoundError as e:
        print(f"no run found: {e}", file=sys.stderr)
        return 3
    except IncompleteLog as e:
        print(f"unreadable run: {e}", file=sys.stderr)
        return 3
    outdir = args.out or args.log
    os.makedirs(outdir, exist_ok=True)

    K, n = log.u.shape

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

    running = np.abs(noise_prefix)
    rows = geometric_rows(K, args.points)
    path = os.path.join(outdir, "noise_sums.csv")
    write_csv(path, "k," + ",".join(f"e_{i}_{j}" for (i, j) in log.pairs),
              [(format_cells(rows + 1), *map(format_cells, running[rows + 1].T))])
    print(f"wrote {path} (diagnostic only, nothing asserts on these)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
