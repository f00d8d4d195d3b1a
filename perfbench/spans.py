"""Span tracer for the benchmark's traced run.

It replaces each layer's entry point where its caller looks it up (a module
global such as hwconsensus.harness.step, or a class attribute such as
EdgeStream.draw) with a wrapper that records a span (name, start, end,
parent). Spans stay in memory in flat arrays and are written out at the end.
An entry point that no longer exists is skipped, not an error: its layer
then reports zero calls and its time stays in the caller's self time.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
import weakref
from array import array

import numpy as np

# (span name, module, attribute path where the caller looks it up)
ENTRY_POINTS = (
    ("cli.cmd_run", "hwconsensus.cli", "cmd_run"),
    ("cli.cmd_verify", "hwconsensus.cli", "cmd_verify"),
    ("cli.cmd_plotdata", "hwconsensus.cli", "cmd_plotdata"),
    ("harness.batch", "hwconsensus.harness", "batch"),
    ("harness.run", "hwconsensus.harness", "run"),
    ("harness.validate_scenario", "hwconsensus.harness", "validate_scenario"),
    ("harness.save_run", "hwconsensus.harness", "save_run"),
    ("harness.load_run", "hwconsensus.harness", "load_run"),
    ("harness.summarize", "hwconsensus.harness", "summarize"),
    ("plant.step", "hwconsensus.harness", "step"),
    ("plant.static_gain", "hwconsensus.harness", "static_gain"),
    ("plant.StaticGain.__call__", "hwconsensus.plant", "StaticGain.__call__"),
    ("controller.step_agent", "hwconsensus.harness", "step_agent"),
    ("noise.stream_for", "hwconsensus.harness", "stream_for"),
    ("noise.draw", "hwconsensus.noise", "EdgeStream.draw"),
    ("analysis.full_verification", "hwconsensus.analysis", "full_verification"),
    ("analysis.build_auxiliary", "hwconsensus.analysis", "build_auxiliary"),
    ("analysis.verify_centralized_recursion", "hwconsensus.analysis",
     "verify_centralized_recursion"),
    ("analysis.consensus_metrics", "hwconsensus.analysis", "consensus_metrics"),
    ("analysis.m_of", "hwconsensus.analysis", "m_of"),
    ("graph.laplacian", "hwconsensus.harness", "laplacian"),
    ("graph.laplacian", "hwconsensus.analysis", "laplacian"),
    ("graph.laplacian", "hwconsensus.cli", "laplacian"),
)

ROOT = "job"  # the benchmark's own span around each job


def _resolve(module: str, path: str):
    """(owner, attribute name, current value), or None if any part is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(fn):
        return None
    return owner, attr, fn


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self._stack = [-1]
        self.active = False
        self._installed: list = []
        self.absent: list = []
        # counts taken at the layer boundaries
        self.rounds = 0
        self.samples = 0
        self.save_bytes = 0
        self.noise_live = 0
        self.noise_peak = 0
        self.logs: list = []  # (sigma, sigma_prime) of every traced run
        for name, _, _ in ENTRY_POINTS:
            self._id(name)
        self._id(ROOT)

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- recording ---------------------------------------------------------

    def _open(self, nid: int) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def job(self, fn, *args):
        """Run fn(*args) under a root span."""
        idx = self._open(self._id(ROOT))
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        nid = self._id(name)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(out, *args, **kwargs)
            return out

        return wrapper

    # counts read off a layer's arguments and result, outside its span

    def _after_harness_run(self, result, s, *args, **kwargs):
        self.rounds += s.horizon
        self.logs.append((result.log.sigma, result.log.sigma_prime))

    def _after_harness_save_run(self, _, result, outdir, *args, **kwargs):
        self.save_bytes += sum(e.stat().st_size for e in os.scandir(outdir) if e.is_file())

    def _after_noise_draw(self, block, stream, n, *args, **kwargs):
        self.samples += int(n)
        self.noise_live += block.nbytes
        self.noise_peak = max(self.noise_peak, self.noise_live)
        weakref.finalize(block, self._release, block.nbytes)

    def _release(self, nbytes: int) -> None:
        self.noise_live -= nbytes

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        self.absent = []
        for name, module, path in ENTRY_POINTS:
            found = _resolve(module, path)
            if found is None:
                self.absent.append(f"{module}.{path}")
                continue
            owner, attr, fn = found
            self._installed.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, fn in reversed(self._installed):
            setattr(owner, attr, fn)
        self._installed.clear()

    # -- results --------------------------------------------------------------

    def table(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        ids = np.frombuffer(self.name_id, dtype=np.intc).astype(np.intp)
        par = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        child = np.bincount(par[par >= 0], weights=dur[par >= 0], minlength=len(dur))
        own = dur - child
        k = len(self.names)
        calls = np.bincount(ids, minlength=k)
        total = np.bincount(ids, weights=dur, minlength=k)
        selft = np.bincount(ids, weights=own, minlength=k)
        return {name: {"calls": int(calls[i]), "s": float(total[i]), "self_s": float(selft[i])}
                for i, name in enumerate(self.names)}

    def controller_counts(self) -> dict:
        """Truncations, restarts and kept candidates from the sigma columns.

        Row r of a log holds the round's starting count sigma and pooled
        count sigma'; a restart round has sigma' > sigma, any other round
        attempts a correction step, which truncates when the next row's
        count is sigma' + 1 and keeps the candidate when it is sigma'.
        """
        trunc = restarts = attempted = kept = 0
        for sig, sigp in self.logs:
            now, nxt = sigp[:-1], sig[1:]
            tried = sigp[:-1] == sig[:-1]
            restarts += int(np.count_nonzero(sigp > sig))
            attempted += int(np.count_nonzero(tried))
            kept += int(np.count_nonzero(tried & (nxt == now)))
            trunc += int(np.count_nonzero(tried & (nxt == now + 1)))
        return {"truncations": trunc, "restarts": restarts,
                "attempted": attempted, "kept": kept}

    def save(self, path: str) -> None:
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.intc),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int64))
