"""Machine-speed calibration for the benchmark's timings.

The sandboxes this benchmark runs in share their cores with other tenants:
the same fixed work can take 1.5-2x longer for tens of seconds at a time,
so a whole run can fall into a slow stretch.  Every timed section is
therefore bracketed by a fixed yardstick that never touches permrad, and
its time is rescaled to the speed at which the yardstick takes its nominal
time:

    scaled = measured * nominal / yardstick

where ``yardstick`` is the mean of the yardstick times just before and
just after the section.  CLI calls use an in-process kernel of interpreter
and numpy work (NOMINAL_S); fresh-interpreter imports use a fresh
interpreter importing numpy alone (NOMINAL_IMPORT_S), which slows down
the way imports do.  run.py prints the unscaled values next to the
scaled ones.
"""

from __future__ import annotations

import time

import numpy as np

# yardstick times in the uncontended state of a 2-vCPU x86-64 sandbox
# (Python 3.11, numpy 2.4)
NOMINAL_S = 0.0035
NOMINAL_IMPORT_S = 0.06
_REPEATS = 3
_X = np.linspace(0.0, 1.0, 4096)


def _kernel() -> float:
    """Interpreter-bound and numpy-bound work, like permrad's own mix."""
    acc = 0
    for i in range(30000):
        acc += i * i
    total = float(acc % 7)
    for _ in range(20):
        z = np.exp(2j * np.pi * 3.0 * _X)
        total += float((z * z.conj()).real.sum())
    return total


def kernel_seconds() -> float:
    """Fastest of a few kernel runs, which skips one-off interruptions."""
    best = float("inf")
    for _ in range(_REPEATS):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def rescale(seconds: float, before: float, after: float, nominal: float = NOMINAL_S) -> float:
    """``seconds`` at nominal speed, given the yardstick times around it."""
    return seconds * nominal / (0.5 * (before + after))
