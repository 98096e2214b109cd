"""Scaling of measured times to a fixed reference speed of the host.

A shared host can run a process at very different speeds from one minute
to the next: on the 2-core host this was written on, the same work ran up
to 1.8 times slower in some phases, each seconds to minutes long, than in
others.  Such phases move every time measured in a run by about the same
factor, so the benchmark times a fixed reference workload right before and
right after each measured command and scales the command's time by

    REFERENCE_S / (mean of the two reference times)

The scaled time is what the command would take on the host while the
reference workload runs in REFERENCE_S.  The reference workload is part of
the benchmark, not of the program under test, so a change to the program
cannot move it.  It mixes the three kinds of work the program does: plain
Python arithmetic, Python objects with sorting and dicts, and small numpy
matrix products.  On that host a mix tracked the slow phases better than
any one kind alone.
"""

from __future__ import annotations

import time

import numpy as np

# Time of one reference_work() on the host this was written on, when it ran
# at its usual speed (Python 3.11, numpy 2.4, 2 shared cores).
REFERENCE_S = 0.03


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float):
        self.key = key
        self.value = value


def reference_work() -> float:
    total = 0
    for i in range(100_000):
        total += i * i % 7
    items = [_Item(i % 17, (i * 7919) % 1013 / 1013.0) for i in range(6_000)]
    items.sort(key=lambda item: (item.key, item.value))
    groups: dict[int, list[float]] = {}
    for item in items:
        groups.setdefault(item.key, []).append(item.value)
    total += sum(len(values) for values in groups.values())
    a = np.eye(3)
    b = np.full((3, 3), 0.1)
    for _ in range(2_000):
        a = a @ b + a
        a = a / a.sum()
    return total + float(a[0, 0])


def loop_seconds() -> float:
    started = time.perf_counter()
    reference_work()
    return time.perf_counter() - started


def scaled(seconds: float, before: float, after: float) -> float:
    """`seconds`, measured between reference runs that took `before` and `after`, at the reference speed."""
    return seconds * REFERENCE_S * 2.0 / (before + after)
