"""Intervals with explicit endpoint openness, and ordered finite partitions.

The time window is a bounded interval such as (0, tau]; everything here is
a nonempty subinterval of it.  Endpoints are compared exactly, so scenario
jump times are expected to be integers or dyadic rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Interval:
    """Nonempty interval with explicit endpoint closedness.

    All four shapes (s,t], [s,t), (s,t), [s,t] are representable for s < t.
    The only degenerate shape is the closed singleton [t,t]; the empty set
    is not representable.
    """

    lo: float
    hi: float
    lo_closed: bool
    hi_closed: bool

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("interval endpoints must be finite")
        if self.lo > self.hi:
            raise ValueError(f"interval endpoints out of order: {self.lo} > {self.hi}")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise ValueError("a degenerate interval must be the closed singleton [t,t]")

    @classmethod
    def open_closed(cls, lo: float, hi: float) -> "Interval":
        return cls(lo, hi, False, True)

    @classmethod
    def closed_open(cls, lo: float, hi: float) -> "Interval":
        return cls(lo, hi, True, False)

    @classmethod
    def open_open(cls, lo: float, hi: float) -> "Interval":
        return cls(lo, hi, False, False)

    @classmethod
    def closed(cls, lo: float, hi: float) -> "Interval":
        return cls(lo, hi, True, True)

    @classmethod
    def point(cls, t: float) -> "Interval":
        return cls(t, t, True, True)

    @property
    def length(self) -> float:
        return self.hi - self.lo

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, t: float) -> bool:
        if t < self.lo or t > self.hi:
            return False
        if t == self.lo and not self.lo_closed:
            return False
        if t == self.hi and not self.hi_closed:
            return False
        return True

    def intersect(self, other: "Interval") -> "Interval | None":
        """Intersection as an Interval, or None when it is empty."""
        lo = max(self.lo, other.lo)
        hi = min(self.hi, other.hi)
        if lo > hi:
            return None
        lo_closed = self.contains(lo) and other.contains(lo)
        hi_closed = self.contains(hi) and other.contains(hi)
        if lo == hi:
            return Interval(lo, hi, True, True) if lo_closed and hi_closed else None
        return Interval(lo, hi, lo_closed, hi_closed)

    def __str__(self) -> str:
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{self.lo:g}, {self.hi:g}{right}"


@dataclass(frozen=True)
class Partition:
    """Ordered finite partition of an interval into pairwise disjoint cells.

    Consecutive cells must meet exactly: same boundary time, complementary
    closedness.  The union of the cells is then itself an interval, exposed
    as ``span``.
    """

    cells: tuple[Interval, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "cells", tuple(self.cells))
        if not self.cells:
            raise ValueError("a partition needs at least one cell")
        for left, right in zip(self.cells, self.cells[1:]):
            if left.hi != right.lo or left.hi_closed == right.lo_closed:
                raise ValueError(f"cells {left} and {right} do not tile an interval")

    @property
    def span(self) -> Interval:
        first, last = self.cells[0], self.cells[-1]
        return Interval(first.lo, last.hi, first.lo_closed, last.hi_closed)

    @property
    def mesh(self) -> float:
        return max(cell.length for cell in self.cells)

    def __len__(self) -> int:
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)


def refine(p: Partition, q: Partition) -> Partition:
    """Common refinement: the ordered nonempty pairwise cell intersections.

    Idempotent (``refine(p, p) == p``) and rejects partitions whose spans
    differ.
    """
    if p.span != q.span:
        raise ValueError(f"partitions cover different intervals: {p.span} vs {q.span}")
    cells = []
    for a in p.cells:
        for b in q.cells:
            cell = a.intersect(b)
            if cell is not None:
                cells.append(cell)
    return Partition(tuple(cells))


def young_partition(times, j: Interval) -> Partition:
    """Partition of ``j`` into singletons at ``times`` and the open gaps between.

    ``times`` must be strictly increasing and contained in ``j`` (its open
    endpoints excluded).  With no times the partition is ``{j}`` itself.
    """
    times = tuple(times)
    for earlier, later in zip(times, times[1:]):
        if not earlier < later:
            raise ValueError("cut times must be strictly increasing")
    for t in times:
        if not j.contains(t):
            raise ValueError(f"cut time {t} lies outside {j}")

    cells: list[Interval] = []
    cursor = j.lo
    cursor_closed = j.lo_closed
    for t in times:
        if t > cursor:
            cells.append(Interval(cursor, t, cursor_closed, False))
        cells.append(Interval.point(t))
        cursor = t
        cursor_closed = False
    if cursor < j.hi:
        cells.append(Interval(cursor, j.hi, cursor_closed, j.hi_closed))
    elif not cells:
        cells.append(Interval.point(j.lo))
    return Partition(tuple(cells))


def halve_open_cells(p: Partition) -> Partition:
    """Refinement that splits every non-degenerate cell at its midpoint.

    A cell (a, b) becomes (a, m), [m, m], (m, b) with m the midpoint, so a
    Young-style partition stays Young-style and the mesh of the split cells
    is halved.
    """
    cells: list[Interval] = []
    for cell in p.cells:
        if cell.is_point:
            cells.append(cell)
            continue
        mid = 0.5 * (cell.lo + cell.hi)
        cells.append(Interval(cell.lo, mid, cell.lo_closed, False))
        cells.append(Interval.point(mid))
        cells.append(Interval(mid, cell.hi, False, cell.hi_closed))
    return Partition(tuple(cells))
