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
The writer holds one block of noise.row_blocks as strings at a time.
"""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np

from . import analysis
from .noise import row_blocks


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


def _logged_cells(logged: np.ndarray, stride: int, a: int, b: int) -> list:
    """Cells of rows a..b-1 of a column of the logged rows (logged), row by
    row: repr() on the logged rows, blank off the stride and for a NaN."""
    n = logged.shape[1]
    cells = [""] * ((b - a) * n)
    first, end = -(-a // stride), -(-b // stride)  # the logged rows in a..b-1
    values = logged[first:end].ravel()
    positions = ((np.arange(first, end) * stride - a)[:, None] * n + np.arange(n)).ravel()
    keep = ~np.isnan(values)
    _fill_cells(cells, positions[keep], values[keep])
    return cells


def _trajectory_blocks(log: analysis.TrajectoryLog):
    K, n = log.u.shape
    agents = format_cells(np.arange(1, n + 1))
    for a, b in row_blocks(K, max(n, len(log.pairs))):
        u, u_prime = log.u[a:b].ravel(), log.u_prime[a:b].ravel()
        u_cells = format_cells(u)
        # u' is u itself on every round without a restart; repr depends only
        # on the bits, so a bit-equal cell is copied, not formatted again
        up_cells = list(u_cells)
        restarts = np.flatnonzero(u_prime.view(np.int64) != u.view(np.int64))
        _fill_cells(up_cells, restarts, u_prime[restarts])
        yield (_step_cells(range(a + 1, b + 1), n), agents * (b - a), u_cells,
               format_cells(log.sigma[a:b]), format_cells(log.sigma_prime[a:b]), up_cells,
               _logged_cells(log.y, log.log_stride, a, b),
               _logged_cells(log.logged_O, log.log_stride, a, b))


def _edge_blocks(log: analysis.TrajectoryLog):
    m, n = len(log.pairs), log.u.shape[1]
    observers = format_cells([i for i, _ in log.pairs])
    observed = format_cells([j for _, j in log.pairs])
    # steps off the stride have no observations and no rows
    steps = log.logged_rows
    for a, b in row_blocks(len(steps), max(n, m)):
        rows = steps[a:b]
        yield (_step_cells((rows + 1).tolist(), m), observers * len(rows),
               observed * len(rows), format_cells(log.logged_z[a:b]),
               format_cells(log.noise[a:b]))


def export_csv(log: analysis.TrajectoryLog, outdir: str) -> None:
    """Write the log as trajectory.csv, edges.csv and events.csv (layout in
    the module docstring)."""
    os.makedirs(outdir, exist_ok=True)
    write_csv(os.path.join(outdir, "trajectory.csv"),
              "k,agent,u,sigma,sigma_prime,u_prime,y_next,O_next", _trajectory_blocks(log))
    write_csv(os.path.join(outdir, "edges.csv"), "k,i,j,z,eps", _edge_blocks(log))
    k, agent, count, kind = list(zip(*analysis.truncation_events(log))) or [()] * 4
    write_csv(os.path.join(outdir, "events.csv"), "k,agent,sigma,kind",
              [(format_cells(k), format_cells(agent), format_cells(count), kind)])
