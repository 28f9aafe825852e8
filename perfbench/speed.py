"""Machine-speed probe.

The shared two-CPU hosts this benchmark runs on change speed by up to half
again within seconds and stay slow for minutes at a time.  Every timed op is
bracketed by this fixed pure-Python task (exact rational arithmetic, tuple
building, dict lookups and sorting, the same kinds of work dpdecomp does), and
run.py scales the op's wall time by NOMINAL_S / probe time.  Time metrics are
therefore "seconds at nominal speed"; the raw seconds stay in the run record.
"""

from __future__ import annotations

import time
from fractions import Fraction

NOMINAL_S = 0.010  # the probe's time on a quiet host; fixes the unit only


def probe() -> float:
    """Seconds taken by the fixed task."""
    start = time.perf_counter()
    acc = Fraction(0)
    table: dict[tuple[int, int], Fraction] = {}
    for i in range(1, 2000):
        key = (i % 13, i % 7)
        acc += Fraction(i % 9 + 1, i % 4 + 1)
        table[key] = min(table.get(key, acc), acc)
    sorted(table.values())
    return time.perf_counter() - start
