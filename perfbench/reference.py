"""Reference loop that puts timings taken at different times on one scale.

The CPU speed seen by a process on a shared host drifts by tens of percent
over minutes, so two runs of identical code can differ more than any useful
regression bound. The benchmark times this fixed pure-Python loop right
before and after each job; the job's time divided by the loop's time, scaled
by REFERENCE_S, is the job's time on a machine where the loop takes
REFERENCE_S. The loop mixes the kinds of work the program does (float
recurrences, repr/parse of floats, small frozen dataclasses and dicts) and
does not touch hwconsensus, so no change to the program can move it.
"""

import time
from dataclasses import dataclass

REFERENCE_S = 0.125  # nominal seconds of one reference() call
_REPS = 10


@dataclass(frozen=True)
class _Item:
    a: float
    b: int


def _work() -> float:
    # three parts of roughly equal time: float recurrence, text, objects
    s = comp = 0.0
    for k in range(1, 50001):
        term = 1.0 / k
        t = s + term
        comp += (s - t) + term
        s = t
    total = comp
    for line in [f"{k},{k * 0.1!r},{s * k!r}" for k in range(3000)]:
        parts = line.split(",")
        total += float(parts[1]) + float(parts[2])
    items = [_Item(a=k * 0.5, b=k) for k in range(5000)]
    return total + len({it.b: it.a for it in items})


def reference() -> float:
    """Seconds taken by the fixed reference work."""
    t0 = time.perf_counter()
    for _ in range(_REPS):
        _work()
    return time.perf_counter() - t0


def normalised(seconds: float, reference_s: float) -> float:
    return seconds * REFERENCE_S / reference_s
