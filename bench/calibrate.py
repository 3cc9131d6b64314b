"""Machine-speed calibration for the benchmark's timings.

The shared machines this benchmark runs on change CPU speed by up to 2x
over a few seconds, which would swamp any change to the program.
Every job is therefore timed next to a short fixed loop of pure-Python
exact arithmetic, the same kind of work the program does, and reported in
reference seconds: raw seconds times ``REFERENCE_S / loop time``.  Cold
starts are scaled the same way by a reference interpreter launch.
``REFERENCE_S`` and ``REFERENCE_LAUNCH_S`` are fixed scales, near the
loop's and the launch's times on a 2-core 2.1 GHz virtual machine with
Python 3.11.  Raw times are printed too.
"""

from __future__ import annotations

import time
from fractions import Fraction

#: Time of one ``loop_seconds()`` call on the reference machine.
REFERENCE_S = 0.003

#: Cold starts include process creation and imports, which a loop inside
#: one process does not track; they are compared with a launch of a bare
#: interpreter importing the same standard modules, whose time on the
#: reference machine is REFERENCE_LAUNCH_S.
REFERENCE_LAUNCH = "import argparse, dataclasses, fractions, json, typing"
REFERENCE_LAUNCH_S = 0.07


def loop_seconds() -> float:
    """Wall time of one pass of the fixed calibration loop (about 3 ms)."""
    start = time.perf_counter()
    acc = Fraction(0)
    table = {}
    for k in range(1, 400):
        acc += Fraction(k % 13 + 1, k % 7 + 2) * Fraction(3, k % 5 + 1)
        key = (k % 17, k % 3)
        table[key] = table.get(key, 0) + k
    return time.perf_counter() - start


def speed(loop_s: float) -> float:
    """Slowdown against the reference machine, given a loop time taken next to a timing."""
    return loop_s / REFERENCE_S
