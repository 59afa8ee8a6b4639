"""A fixed reference computation that times the machine, not the library.

The host this benchmark runs on shares its cores: the speed of one core moves
between two levels about 2x apart, in stretches of milliseconds to minutes.
Timing `reference()` just before and just after each job gives the machine's
speed at that moment, and the benchmark reports each job's time as a multiple
of it. The computation mixes what the library's time is made of: Python loops
over small numpy calls, `erfc` over an array and deep copies of small
containers (about 60 % of its time), and broadcast comparisons over arrays
of a few megabytes, the shape of the hard split search (about 40 %). A
reference without the second part tracked the P-BART and CV jobs well but
over-corrected the memory-bound hard-tree jobs, whose spread between seeds it
doubled. It never calls the library, so a change to the library cannot move
it.
"""

from __future__ import annotations

import copy
import statistics
import time

import numpy as np
from scipy.special import erfc

_rng = np.random.default_rng(12345)
_X = _rng.uniform(size=(300, 10))
_y = _X[:, 0] + np.sin(3.0 * _X[:, 1])
_NODES = [{"lower": list(range(10)), "upper": [1.0] * 10, "gamma": 0.5} for _ in range(60)]
_A = _rng.uniform(size=2000)
_CUTS = np.sort(_rng.uniform(size=150))


def reference() -> float:
    """About 11-15 ms of work; the result depends only on the fixed inputs above."""
    best = np.inf
    for j in list(range(_X.shape[1])) * 12:
        order = np.argsort(_X[:, j], kind="stable")
        cs = np.cumsum(_y[order])
        for cut in range(10, 290, 14):
            left = cs[cut] / (cut + 1)
            right = (cs[-1] - cs[cut]) / (299 - cut)
            best = min(best, float(left - right) ** 2)
    total = float(erfc(0.7 * _X).sum())
    # both n x cuts products are alive at once, as L and R are in the split search
    L = (_A[:, None] <= _CUTS) * _A[:, None]
    R = ((_A[:, None] > _CUTS) * (1.0 - _A[:, None])).sum(axis=0)
    return best + total + float(L.sum(axis=0) @ R) + len(copy.deepcopy(_NODES))


def reference_s() -> float:
    """Median wall time of three reference computations."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        reference()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
