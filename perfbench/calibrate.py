"""How fast this machine runs right now, from a fixed piece of work.

The speed a shared machine gives one process drifts: on the 2-vCPU VM this
benchmark was defined on, a fixed computation took up to 1.5x its usual time
for stretches of tens of seconds, and ten runs of the same phase spread by a
third.  Every timed interval is therefore bracketed by two runs of a fixed
kernel, and its time is reported at the reference speed:

    seconds at reference speed = seconds * REFERENCE_S / mean(kernel before, kernel after)

The kernel does what sectsum's hot paths do, in the same process: n-gram
counting on Python tuples and a chain of small NumPy operations.  It shares
no code with sectsum, so no change to the program moves it.
"""

from __future__ import annotations

import random
import time
from collections import Counter

# Median kernel time on the machine the benchmark was defined on (2-vCPU
# Intel Xeon VM, Python 3.11, NumPy 2.4 with OpenBLAS on one thread).
REFERENCE_S = 0.016


def kernel_seconds() -> float:
    """Wall time of one run of the calibration kernel."""
    import numpy as np

    rng = random.Random(0)
    tokens = [f"w{rng.randrange(400)}" for _ in range(4000)]
    weights = np.random.default_rng(0).standard_normal((64, 64)) * 0.1
    x = np.ones((40, 64))
    start = time.perf_counter()
    for shift in range(3):
        first = Counter(zip(tokens, tokens[1:]))
        second = Counter(zip(tokens[shift + 1:], tokens[shift + 2:]))
        sum((first & second).values())
    for _ in range(400):
        x = np.tanh(x @ weights + 0.01)
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor that turns seconds measured between two kernel runs into
    seconds at the reference speed."""
    return REFERENCE_S / ((before + after) / 2.0)
