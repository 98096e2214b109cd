"""Intervals with explicit endpoint openness.

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

    def __str__(self) -> str:
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{self.lo:g}, {self.hi:g}{right}"


def window_grid(tau: float, grid, error=ValueError) -> tuple[float, ...]:
    """``grid`` as floats, checked to rise strictly inside the window (0, tau]
    of a positive finite tau below 2**1023, where no sum of two times
    overflows; a broken rule raises ``error``."""
    if not (math.isfinite(tau) and tau > 0.0):
        raise error(f"tau must be a positive finite time, got {tau!r}")
    if not tau < 2.0**1023:
        raise error(f"tau must be below 2**1023, where a midpoint of two times could overflow, got {tau!r}")
    grid = tuple(float(t) for t in grid)
    if not all(earlier < later for earlier, later in zip(grid, grid[1:])):
        raise error("grid times must be strictly increasing")
    if grid and not (0.0 < grid[0] and grid[-1] <= tau):  # also rejects NaN
        raise error("grid times must lie in (0, tau]")
    return grid
