"""CSV output: a run's log as text, and the series verify and plotdata write.

Every cell is the repr() of its value, or blank for a missing output. A
file appears under its name only once all of its rows are written
(csv_writer). export_csv writes a log as three files, the rows in this order:
  trajectory.csv  k,agent,u,sigma,sigma_prime,u_prime,y_next,O_next
                  one row per step k, agents 1..n within each step; y_next
                  and O_next blank off the stride
  edges.csv       k,i,j,z,eps            (observer i, observed j)
                  logged steps only, each with its pairs in directed_pairs order
  events.csv      k,agent,sigma,kind
                  one row per count event of analysis.truncation_events: in
                  round k the agent's count became sigma, by a truncation
                  (fired) or a restart (pooled)
trajectory.csv and edges.csv come from one walk of analysis.log_rows, which
derives one block of noise.row_blocks at a time: the writer holds u, y and
one block's rows and strings, never a whole-log derived column.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np

from . import analysis


def format_cells(values) -> list:
    """repr() of every entry of an array, in row-major order."""
    return list(map(repr, np.asarray(values).ravel().tolist()))


def _fill_cells(cells: list, positions: np.ndarray, values: np.ndarray) -> None:
    """cells[p] = repr(v) for each position p and value v, in step."""
    for x, cell in zip(positions.tolist(), map(repr, values.tolist())):
        cells[x] = cell


def _step_cells(steps, width: int) -> list:
    """repr() of each step, each repeated width times: the k column."""
    return [cell for cell in map(repr, steps) for _ in range(width)]


@contextmanager
def csv_writer(path: str, header: str):
    """A function writing a row per position of a block's cell columns to
    the CSV file path, after the header. The rows go to path + '.tmp', which
    becomes path when the with block ends and is removed if it raises."""
    tmp = path + ".tmp"
    fh = open(tmp, "w", newline="")
    try:
        with fh:
            fh.write(header + "\n")
            yield lambda cols: fh.write("".join(row + "\n" for row in map(",".join, zip(*cols))))
    except BaseException:
        os.remove(tmp)
        raise
    os.replace(tmp, path)


def write_csv(path: str, header: str, blocks) -> None:
    """Write the header, then a row per position of each block's cell columns."""
    with csv_writer(path, header) as write:
        for columns in blocks:
            write(columns)


def _logged_cells(values: np.ndarray, at: np.ndarray, rows: int) -> list:
    """Cells of a block of rows of a column, row by row: repr() of its values
    on the logged rows at (offsets in the block), blank elsewhere and for a NaN."""
    n = values.shape[1]
    cells = [""] * (rows * n)
    values, positions = values.ravel(), (at[:, None] * n + np.arange(n)).ravel()
    keep = ~np.isnan(values)
    _fill_cells(cells, positions[keep], values[keep])
    return cells


def _write_rows(log, blocks, outdir: str) -> None:
    """Write trajectory.csv and edges.csv (layout in the module docstring)
    from the u and y of log and each (a, analysis.LogRows) of blocks, the
    derived rows a.. of analysis.log_rows, one block's cells at a time."""
    n, m, stride = log.u.shape[1], len(log.pairs), log.log_stride
    agents = format_cells(np.arange(1, n + 1))
    observers, observed = map(format_cells, np.array(log.pairs, dtype=np.int64).reshape(-1, 2).T)
    with csv_writer(os.path.join(outdir, "trajectory.csv"),
                    "k,agent,u,sigma,sigma_prime,u_prime,y_next,O_next") as trajectory, \
            csv_writer(os.path.join(outdir, "edges.csv"), "k,i,j,z,eps") as edges:
        for a, rows in blocks:
            b = a + len(rows.sigma)
            at = np.arange(-(-a // stride) * stride, b, stride)  # the logged rows in a..b-1
            u, u_prime = log.u[a:b].ravel(), rows.u_prime.ravel()
            u_cells = format_cells(u)
            # u' is u itself on every round without a restart; repr depends only
            # on the bits, so a bit-equal cell is copied, not formatted again
            up_cells = list(u_cells)
            restarts = np.flatnonzero(u_prime.view(np.int64) != u.view(np.int64))
            _fill_cells(up_cells, restarts, u_prime[restarts])
            trajectory((_step_cells(range(a + 1, b + 1), n), agents * (b - a), u_cells,
                        format_cells(rows.sigma), format_cells(rows.sigma_prime), up_cells,
                        _logged_cells(log.y[at // stride], at - a, b - a),
                        _logged_cells(rows.O, at - a, b - a)))
            # steps off the stride have no observations and no rows
            edges((_step_cells((at + 1).tolist(), m), observers * len(at), observed * len(at),
                   format_cells(rows.z), format_cells(rows.noise)))


def export_csv(log: analysis.TrajectoryLog, outdir: str) -> None:
    """Write the log as trajectory.csv, edges.csv and events.csv (layout in
    the module docstring)."""
    os.makedirs(outdir, exist_ok=True)
    _write_rows(log, analysis.log_rows(log), outdir)
    k, agent, count, kind = list(zip(*analysis.truncation_events(log))) or [()] * 4
    write_csv(os.path.join(outdir, "events.csv"), "k,agent,sigma,kind",
              [(format_cells(k), format_cells(agent), format_cells(count), kind)])
