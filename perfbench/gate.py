"""Bit-identity gate: SHA-256 digests of trajectory logs.

A run passes the gate when its log digest equals the digest recorded for
its (workload, workload seed, job) in digests.json; a job missing from a
recorded seed's table fails too. For a seed without a recorded table, the
first run of each job in a process sets the digest and every repeat must
match it, so replay is still checked exactly. Nothing here uses assert, so
the gate holds under `python -O`.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

# hashed in this order; floats as little-endian float64 with every NaN made
# the canonical quiet NaN, counts as little-endian int64, so the digest
# depends on the values only, not on how a store lays them out
INT_COLUMNS = ("sigma", "sigma_prime")
COLUMNS = ("u", "sigma", "sigma_prime", "u_prime", "y_next", "O_next", "z", "eps")

DIGESTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "digests.json")


def log_digest(log) -> str:
    h = hashlib.sha256()
    for name in COLUMNS:
        col = np.asarray(getattr(log, name))
        if name in INT_COLUMNS:
            col = col.astype("<i8", copy=False)
        else:
            col = col.astype("<f8", copy=False)
            col = np.where(np.isnan(col), np.nan, col)
        h.update(f"{name}:{col.shape}:".encode())
        h.update(np.ascontiguousarray(col).tobytes())
    return h.hexdigest()


def log_nbytes(log) -> int:
    return sum(np.asarray(getattr(log, name)).nbytes for name in COLUMNS)


def load_recorded(path: str = DIGESTS_PATH) -> dict:
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh)["digests"]


class DigestBook:
    """Expected digests for one (workload, seed) and the digests seen so far."""

    def __init__(self, workload: str, seed: int, recorded: dict | None = None):
        if recorded is None:
            recorded = load_recorded()
        self.expected = dict(recorded.get(workload, {}).get(str(seed), {}))
        self.recorded = bool(self.expected)
        self.seen: dict = {}

    def check(self, key: str, digest: str | None) -> str | None:
        """None when the digest is the expected one, else the reason it fails."""
        if digest is None:
            return "no digest"
        self.seen.setdefault(key, digest)
        if self.recorded and key not in self.expected:
            return f"no digest recorded for {key} at this seed"
        want = self.expected.setdefault(key, digest)
        if digest != want:
            return f"log digest {digest[:16]} differs from expected {want[:16]} for {key}"
        return None
