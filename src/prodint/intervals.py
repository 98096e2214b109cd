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
