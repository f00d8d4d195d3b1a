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


def weighted_sums(log, s, want):
    """Running sums of a_k O_{i,k+1} per agent and of a_k eps_{ij,k+1} per
    directed edge, a_k = 1/k, at the ascending prefix rows want: row r holds
    steps 1..r, row 0 zeros. One pass over log_blocks holds a block's sums,
    the row before it and the rows asked for, never the whole horizon's."""
    sums = [np.zeros((len(want), s.n)), np.zeros((len(want), len(log.pairs)))]
    last = [np.zeros((1, s.n)), np.zeros((1, len(log.pairs)))]
    for block in log_blocks(log, s.gains(), laplacian(s.topology)):
        a, b = block.k[0] - 1, block.k[-1]  # the block's prefix rows are a + 1..b
        at = np.flatnonzero((want > a) & (want <= b))
        for column, before, x in zip(sums, last, (block.O, block.noise)):
            # each block's running sums start from the last row of the one before
            running = np.cumsum(np.vstack([before, (1.0 / block.k)[:, None] * x]), axis=0)
            column[at] = running[want[at] - a]
            before[:] = running[-1]
    return sums


def window_count(K: int) -> int:
    """The windows [k, k + floor(ln k)] inside steps 1..K are those of
    k <= window_count(K); the window's end rises with k."""
    k = K
    while k + int(np.floor(np.log(k))) > K:
        k -= 1
    return k


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--log", required=True, help="run directory")
    ap.add_argument("--out", help="output directory (default: --log)")
    ap.add_argument("--points", type=int, default=2000)
    args = ap.parse_args()

    try:
        log, s = load_run(args.log)
        K, n = log.u.shape
        # the rows written: windows [k, end] at about --points values of k,
        # and the noise sums at about --points steps
        ks = geometric_rows(window_count(K), args.points) + 1
        ends = np.array([k + int(np.floor(np.log(k))) for k in ks.tolist()], dtype=np.int64)
        steps = geometric_rows(K, args.points) + 1
        # prefix row r sums steps 1..r, so the window [k, e] is prefix[e] - prefix[k - 1]
        want = np.sort(np.concatenate([ks - 1, ends, steps]))  # a row twice is harmless
        prefix, noise_prefix = weighted_sums(log, s, want)
    except FileNotFoundError as e:
        print(f"no run found: {e}", file=sys.stderr)
        return 3
    except IncompleteLog as e:
        print(f"unreadable run: {e}", file=sys.stderr)
        return 3
    outdir = args.out or args.log
    os.makedirs(outdir, exist_ok=True)

    # each prefix row's place in want
    traces = np.abs(prefix[np.searchsorted(want, ends)] - prefix[np.searchsorted(want, ks - 1)])
    path = os.path.join(outdir, "window_sums.csv")
    write_csv(path, "k," + ",".join(f"agent_{i + 1}" for i in range(n)),
              [(format_cells(ks), *map(format_cells, traces.T))])
    print(f"wrote {path} ({len(ks)} samples, windows up to ln {K})")

    running = np.abs(noise_prefix[np.searchsorted(want, steps)])
    path = os.path.join(outdir, "noise_sums.csv")
    write_csv(path, "k," + ",".join(f"e_{i}_{j}" for (i, j) in log.pairs),
              [(format_cells(steps), *map(format_cells, running.T))])
    print(f"wrote {path} (diagnostic only, nothing asserts on these)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
