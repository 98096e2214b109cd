"""Exact law of a finitely supported multi-state process.

A ``PathSpace`` is a weighted finite set of right-continuous piecewise
constant trajectories on states 1..d over a window (0, tau].  Because the
support is finite, every quantity of interest -- occupation probabilities,
transition probabilities under all four endpoint conventions, expected
transition counts, expected status indicators, cumulative hazards -- is a
finite sum that can be evaluated exactly.  The path space therefore acts
as the brute-force oracle against which both the interval-function
calculus and the empirical estimators are checked.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Literal, NamedTuple

import numpy as np

from .interval_functions import (
    AdditiveIF,
    BoundCheck,
    GeneralIF,
    product_integral,
    refinement_partitions,
)
from .intervals import Interval, Partition

Side = Literal["right", "left"]


@dataclass(frozen=True)
class StatePath:
    """One trajectory: an initial state and a sorted tuple of (time, to_state).

    The path value is right-continuous; the left limit at t=0 is defined to
    equal the time-0 value.
    """

    initial_state: int
    jumps: tuple[tuple[float, int], ...] = ()

    def __post_init__(self) -> None:
        if self.initial_state < 1:
            raise ValueError("states are numbered from 1")
        jumps = tuple((float(t), int(s)) for t, s in self.jumps)
        previous_time = 0.0
        previous_state = self.initial_state
        for t, s in jumps:
            if t <= previous_time:
                raise ValueError("jump times must be strictly increasing and positive")
            if s == previous_state:
                raise ValueError("consecutive states must differ")
            if s < 1:
                raise ValueError("states are numbered from 1")
            previous_time, previous_state = t, s
        object.__setattr__(self, "jumps", jumps)

    @property
    def max_state(self) -> int:
        return max((s for _, s in self.jumps), default=self.initial_state)


@dataclass(frozen=True)
class ExtinctionBoundary:
    time: float
    exit_mass: float
    ok: bool


@dataclass(frozen=True)
class ExtinctionReport:
    """Where a state's occupation hits zero, and the exit mass spent there.

    On a finite path space the occupation can only vanish through a jump
    time at which every remaining occupant leaves, so each boundary must
    carry total instantaneous exit hazard 1.
    """

    state: int
    boundaries: tuple[ExtinctionBoundary, ...]

    @property
    def has_extinction(self) -> bool:
        return bool(self.boundaries)

    @property
    def ok(self) -> bool:
        return all(b.ok for b in self.boundaries)


class _JointTable(NamedTuple):
    """Weighted law of the states read at one pair of ticks (read-only)."""

    joint: np.ndarray  # d x d: mass with state j at the left tick and k at the right
    conditioning: np.ndarray  # d: mass with state j at the left tick
    transition: np.ndarray  # joint / conditioning by row; identity row where it is 0


@dataclass(frozen=True)
class PathSpace:
    """Finite weighted set of trajectories; weights sum to one.

    Every jump lies on ``grid``, so a path is fully described by its states
    at the ticks ``(0,) + grid``.  The constructor stores them as an integer
    matrix (path x tick) next to the weight vector; a query reads the one or
    two tick columns its time points select, and the weighted joint table of
    each column pair is built once (one ``np.bincount``, which adds the
    weights in path order) and memoized.
    """

    dim: int
    tau: float
    paths: tuple[tuple[StatePath, float], ...]
    grid: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")
        paths = tuple((p, float(w)) for p, w in self.paths)
        if not paths:
            raise ValueError("a path space needs at least one path")
        for path, weight in paths:
            if weight <= 0:
                raise ValueError("path weights must be positive")
            if path.max_state > self.dim or path.initial_state > self.dim:
                raise ValueError("path visits a state beyond the dimension")
            if path.jumps and path.jumps[-1][0] > self.tau:
                raise ValueError("jump times must not exceed the horizon")
        # compensated, so that rounding in many small weights cannot reject a law
        total = math.fsum(w for _, w in paths)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"path weights sum to {total!r}, not 1")
        events = tuple(sorted({t for path, _ in paths for t, _ in path.jumps}))
        grid = tuple(sorted(float(t) for t in self.grid))
        if not grid:
            grid = events
        else:
            for earlier, later in zip(grid, grid[1:]):
                if not earlier < later:
                    raise ValueError("grid times must be strictly increasing")
            if grid and (grid[0] <= 0 or grid[-1] > self.tau):
                raise ValueError("grid times must lie in (0, tau]")
            if not set(events) <= set(grid):
                raise ValueError("every jump time must lie on the declared grid")
        object.__setattr__(self, "paths", paths)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "_event_times", events)

        ticks = (0.0,) + grid
        rows = []
        for path, _ in paths:
            jumps = path.jumps
            state = path.initial_state - 1
            cursor = 0
            row = []
            for tick in ticks:
                if cursor < len(jumps) and jumps[cursor][0] == tick:
                    state = jumps[cursor][1] - 1
                    cursor += 1
                row.append(state)
            rows.append(row)
        states = np.array(rows, dtype=np.min_scalar_type(self.dim - 1))
        weights = np.array([w for _, w in paths])
        states.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "_ticks", ticks)
        object.__setattr__(self, "_states", states)
        object.__setattr__(self, "_weights", weights)
        object.__setattr__(self, "_tables", {})
        object.__setattr__(self, "_schedules", {})

    @property
    def event_times(self) -> tuple[float, ...]:
        """Times at which some path actually jumps."""
        return self._event_times

    # -- tick columns and their joint tables --------------------------------

    def _column_at(self, t: float) -> int:
        """Tick column holding every path's state at ``t``."""
        return max(bisect_right(self._ticks, t) - 1, 0)

    def _column_before(self, t: float) -> int:
        """Tick column holding every path's state just before ``t``."""
        return max(bisect_left(self._ticks, t) - 1, 0)

    def _occupation_column(self, t: float, side: Side) -> np.ndarray:
        column = self._column_at(t) if side == "right" else self._column_before(t)
        return self._table(column, column).conditioning

    def columns(self, a: Interval) -> tuple[int, int]:
        """The (left, right) tick columns ``a`` reads under its endpoint shape.

        Every query on ``a`` reads only these two columns, and the grid
        times inside ``a`` are exactly ``grid[left:right]``.  Since every
        jump lies on the grid, intervals with the same pair have equal
        transition and indicator values and contain the same jump times.
        """
        left = self._column_before(a.lo) if a.lo_closed else self._column_at(a.lo)
        right = self._column_at(a.hi) if a.hi_closed else self._column_before(a.hi)
        return left, right

    def refinement_schedule(self, depths: int) -> tuple[Partition, ...]:
        """The refinement schedule of (0, tau] at the event times, from the
        Young partition through ``depths`` halvings; built once per depth."""
        schedule = self._schedules.get(depths)
        if schedule is None:
            window = Interval.open_closed(0.0, self.tau)
            schedule = tuple(refinement_partitions(self.event_times, window, depths))
            self._schedules[depths] = schedule
        return schedule

    def _table(self, left: int, right: int) -> _JointTable:
        table = self._tables.get((left, right))
        if table is None:
            d = self.dim
            lo = self._states[:, left].astype(np.intp)
            joint = np.bincount(
                lo * d + self._states[:, right], weights=self._weights, minlength=d * d
            ).reshape(d, d)
            conditioning = np.bincount(lo, weights=self._weights, minlength=d)
            transition = np.eye(d)
            np.divide(joint, conditioning[:, None], out=transition, where=conditioning[:, None] != 0.0)
            for array in (joint, conditioning, transition):
                array.setflags(write=False)
            table = self._tables[(left, right)] = _JointTable(joint, conditioning, transition)
        return table

    def _off_diagonal(self, left: int, right: int) -> np.ndarray:
        out = self._table(left, right).joint.copy()
        np.fill_diagonal(out, 0.0)
        return out

    def _check_states(self, *states: int) -> None:
        for s in states:
            if not 1 <= s <= self.dim:
                raise ValueError(f"state {s} outside 1..{self.dim}")

    # -- occupation and transition probabilities --------------------------

    def occupation(self, j: int, t: float, side: Side = "right") -> float:
        """P(state = j) at time t (right value) or just before t (left)."""
        self._check_states(j)
        return float(self._occupation_column(t, side)[j - 1])

    def occupation_vector(self, t: float, side: Side = "right") -> np.ndarray:
        return self._occupation_column(t, side).copy()

    def transition(self, j: int, k: int, a: Interval) -> float:
        """Conditional transition probability of ``a`` under its endpoint shape.

        A closed left endpoint conditions on the state just before a.lo, an
        open one on the state at a.lo; a closed right endpoint evaluates
        the state at a.hi, an open one the state just before.  When the
        conditioning probability is zero the value is 1 if j == k else 0.
        """
        self._check_states(j, k)
        return float(self._table(*self.columns(a)).transition[j - 1, k - 1])

    def transition_matrix(self, a: Interval) -> np.ndarray:
        return self._table(*self.columns(a)).transition.copy()

    def transition_if(self) -> GeneralIF:
        """The transition matrix as an interval function."""
        return GeneralIF(self.dim, self.transition_matrix, support=self.event_times)

    def transition_deviation_if(self) -> GeneralIF:
        """Transition matrix minus the identity, as an interval function."""
        eye = np.eye(self.dim)
        return GeneralIF(
            self.dim, lambda a: self.transition_matrix(a) - eye, support=self.event_times
        )

    # -- expected counting and status measures ----------------------------

    def counting_mean_if(self, j: int, k: int) -> AdditiveIF:
        """The expected-count measure of j -> k as a scalar additive function."""
        if k == j:
            raise ValueError("counting means are defined for k != j")
        atoms = []
        for u in self.event_times:
            mass = self.jump_mass(u)[j - 1, k - 1]
            if mass != 0.0:
                atoms.append((u, [[mass]]))
        return AdditiveIF(1, tuple(atoms))

    def indicator_mean(self, j: int, k: int, a: Interval) -> float:
        """Probability of status j at the left of ``a`` and k at its right.

        Same endpoint conventions as ``transition`` but unconditional, so
        on a singleton this equals the expected count of the instantaneous
        direct transition.
        """
        if k == j:
            raise ValueError("indicator means are defined for k != j")
        self._check_states(j, k)
        return float(self._table(*self.columns(a)).joint[j - 1, k - 1])

    def indicator_matrix(self, a: Interval) -> np.ndarray:
        """Every ``indicator_mean(j, k, a)`` at once, with a zero diagonal."""
        return self._off_diagonal(*self.columns(a))

    def indicator_mean_if(self, j: int, k: int) -> GeneralIF:
        if k == j:
            raise ValueError("indicator means are defined for k != j")
        return GeneralIF(
            1, lambda a: np.array([[self.indicator_mean(j, k, a)]]), support=self.event_times
        )

    # -- hazards -----------------------------------------------------------

    def jump_mass(self, u: float) -> np.ndarray:
        """Expected j -> k jump mass exactly at ``u``: the (j, k) entry is the
        weight of the paths jumping from j to k there."""
        i = bisect_left(self._ticks, u)
        if 0 < i < len(self._ticks) and self._ticks[i] == u:
            return self._off_diagonal(i - 1, i)
        return np.zeros((self.dim, self.dim))

    def hazard_matrix(self) -> "HazardMatrixIF":
        """Cumulative transition hazard: atom mass / occupation just before.

        Pure-jump for a finite path space.  Off-diagonal entry (j, k) at a
        jump time is the expected j -> k mass there divided by the
        occupation of j just before; the diagonal carries minus the row
        sum.
        """
        atoms = []
        for u in self.event_times:
            mass = self.jump_mass(u)
            at_risk = self.occupation_vector(u, side="left")
            step = np.zeros((self.dim, self.dim))
            for j in range(self.dim):
                row = mass[j]
                if not row.any():
                    continue
                if at_risk[j] <= 0.0:
                    raise ValueError(
                        f"inconsistent path space: transition mass out of state {j + 1} "
                        f"at time {u} with zero occupation just before"
                    )
                step[j] = row / at_risk[j]
                step[j, j] = -step[j].sum()
            if step.any():
                atoms.append((u, step))
        return HazardMatrixIF(self.dim, tuple(atoms))

    def exit_hazard(self, j: int) -> AdditiveIF:
        """Total hazard of leaving state j, as a scalar additive function."""
        atoms = []
        for u in self.event_times:
            mass = self.jump_mass(u)[j - 1]
            total = mass.sum()
            if total != 0.0:
                before = self.occupation(j, u, side="left")
                atoms.append((u, [[total / before]]))
        return AdditiveIF(1, tuple(atoms))

    # -- identities and structural checks ----------------------------------

    def occupation_lower_bound(self, j: int, s: float, t: float) -> BoundCheck:
        """Occupation at ``t`` against the survival-style floor from ``s``.

        The floor is the occupation at ``s`` times the product integral of
        ``1 - exit hazard`` over (s, t]; it is attained exactly when the
        state gains no mass on the way.
        """
        if s > t:
            raise ValueError("need s <= t")
        lhs = self.occupation(j, t)
        start = self.occupation(j, s)
        survival = 1.0
        if t > s:
            survival = product_integral(
                self.exit_hazard(j).scale(-1.0), Interval.open_closed(s, t)
            )[0, 0]
        rhs = start * survival
        return BoundCheck(lhs, rhs, lhs >= rhs - 1e-12)

    def extinction_report(self, j: int) -> ExtinctionReport:
        """Scan for times where state j's occupation drops to exactly zero."""
        boundaries = []
        for u in self.event_times:
            before = self.occupation(j, u, side="left")
            after = self.occupation(j, u)
            if before > 0.0 and after == 0.0:
                exit_mass = self.jump_mass(u)[j - 1].sum() / before
                boundaries.append(ExtinctionBoundary(u, exit_mass, abs(exit_mass - 1.0) <= 1e-12))
        return ExtinctionReport(j, tuple(boundaries))


@dataclass(frozen=True)
class HazardMatrixIF(AdditiveIF):
    """Additive hazard matrix: nonnegative off-diagonals, zero row sums.

    Pure-jump by construction; each atom's off-diagonal row mass is at most
    one (a state cannot expect to leave more than once instantaneously).
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.density:
            raise ValueError("hazard matrices from finite path spaces are pure-jump")
        for t, step in self.atoms:
            off = step.copy()
            np.fill_diagonal(off, 0.0)
            if (off < 0.0).any():
                raise ValueError(f"negative off-diagonal hazard at {t}")
            row_exit = off.sum(axis=1)
            if (row_exit > 1.0 + 1e-12).any():
                raise ValueError(f"instantaneous exit mass above 1 at {t}")
            if np.abs(step.sum(axis=1)).max() > 1e-12:
                raise ValueError(f"hazard rows must sum to zero at {t}")

