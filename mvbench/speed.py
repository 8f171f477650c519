"""The machine's speed, measured by a fixed calibration loop between ops.

The benchmark runs on shared virtual machines whose speed drifts: on a
2-vCPU host the same loop takes 1.0x to 1.9x its fastest time, in spells of
seconds to minutes.  That drift is not the program's, and it is larger than
any bound a benchmark could hold a change to.  So the benchmark times a fixed
piece of pure-Python work, the probe, every ``PROBE_EVERY_S`` seconds of the
timed loop, and reports every time scaled to the speed at which one probe
takes ``PROBE_NOMINAL_S``:

    reference time = measured time * PROBE_NOMINAL_S / probe time near it

The probe lives here, not in the package, so no change to the package can
change it.  It does the kind of work the package does: exact Fraction
elimination on a small integer matrix (as in ``cones``), tuple and dict
bookkeeping (as in ``bz`` and ``lusztig``) and a few small numpy calls (as
in ``rep``).  Raw wall-clock values are printed beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

import numpy as np

# One probe's time at the reference speed, a round figure close to its median
# on an Intel Xeon vCPU of a 2-vCPU virtual machine with Python 3.11.  Only
# ratios between runs matter; the figure just keeps reference times close to
# wall times there.
PROBE_NOMINAL_S = 1.0e-3
PROBE_EVERY_S = 0.25
PROBE_REPEATS = 5

_MATRIX = [[(3 * i + 5 * j + i * j) % 7 - 3 for j in range(7)] for i in range(6)]
_VECTOR = np.arange(48, dtype=np.int64).reshape(12, 4)


def _work() -> int:
    # Fraction row reduction of a 6 x 7 integer matrix
    rows = [[Fraction(v) for v in row] for row in _MATRIX]
    rank = 0
    for col in range(7):
        pivot = next((r for r in range(rank, 6) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        head = rows[rank][col]
        rows[rank] = [v / head for v in rows[rank]]
        for r in range(6):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    # tuple keys through a dict, as a braid-move BFS does
    seen = {}
    frontier = [(0, 1, 2, 1, 0)]
    while frontier and len(seen) < 120:
        word = frontier.pop()
        if word in seen:
            continue
        seen[word] = len(seen)
        for i in range(len(word) - 1):
            frontier.append(word[:i] + (word[i + 1], word[i]) + word[i + 2 :])
    # small numpy filters
    total = 0
    for k in range(8):
        mask = (_VECTOR @ np.array([1, -1, k, 1])) >= 0
        total += int(mask.sum())
    return rank + len(seen) + total


def probe() -> float:
    """Median time of ``PROBE_REPEATS`` runs of the probe work, in seconds."""
    clock = time.perf_counter
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = clock()
        _work()
        times.append(clock() - t0)
    return statistics.median(times)


def scale(probe_s: float) -> float:
    """Factor taking a time measured near a probe of ``probe_s`` to reference time."""
    return PROBE_NOMINAL_S / probe_s
