"""Exact law of a finitely supported multi-state process.

A ``PathSpace`` is a weighted finite set of right-continuous piecewise
constant trajectories on states 1..d over a window (0, tau] that jump only
at the times of a grid, held as a matrix of each path's states at the
ticks (0,) + grid next to a vector of path weights.  Because the
support is finite, every quantity of interest -- occupation probabilities,
transition probabilities under all four endpoint conventions, expected
transition counts, expected status indicators, cumulative hazards -- is a
finite sum that can be evaluated exactly.  The path space therefore acts
as the brute-force oracle against which both the interval-function
calculus and the empirical estimators are checked.  It returns quantities
only: whether an identity or a bound holds is decided in ``checks``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .estimators import EventHistory, EventSample
from .interval_functions import (
    AdditiveIF,
    GeneralIF,
    HazardMatrixIF,
    index_range,
)
from .intervals import Interval, window_grid


class _OneStep(NamedTuple):
    """The law of consecutive ticks (read-only)."""

    occupation: np.ndarray  # tick x d: mass in state j at the tick
    moves: np.ndarray  # grid time x d x d: j -> k jump mass there (zero diagonal)
    events: np.ndarray  # indices of the grid times that carry jump mass


class _JointTable(NamedTuple):
    """Weighted law of the states read at one pair of ticks (read-only)."""

    joint: np.ndarray  # d x d: mass with state j at the left tick and k at the right
    transition: np.ndarray  # joint / left-tick occupation by row; identity row where it is 0


@dataclass(frozen=True, eq=False)
class PathSpace:
    """Finite weighted set of trajectories; weights sum to one.

    Every jump lies on ``grid``, so a path is its row of states at the
    ticks ``(0,) + grid``: ``states`` is the integer path x tick matrix of
    states 1..dim and ``weights`` holds one weight per path.  A query reads
    the one or two tick columns its time points select, and the weighted
    joint table of each column pair is built once (one ``np.bincount``,
    which adds the weights in path order) and memoized; its transition
    table divides it by the one-step occupation at the left tick.

    The one-step tables -- the occupation at every tick and the jump mass
    at every grid time -- are built together on first use, and with them
    ``event_times``, the expected-count measure (``counting_mean``) and the
    hazard (``hazard_matrix``), each once per space; the exit hazard of j
    is minus the (j, j) entry of the hazard.  A quantity of state pairs
    comes as one d x d matrix, and an occupation is the value at a time:
    the value just before a grid time is the one at the tick before it.
    ``occupation(j, t)``, ``jump_mass`` and ``paths`` have no caller in the
    package; they stay because perfbench reads them.  An array a query
    hands out is a copy or read-only.
    """

    dim: int
    tau: float
    grid: tuple[float, ...]
    states: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        grid = window_grid(self.tau, self.grid)
        states = np.array(self.states)
        if states.ndim != 2 or not np.issubdtype(states.dtype, np.integer):
            raise ValueError("states must be a 2-D integer array (path x tick)")
        if states.shape[1] != 1 + len(grid):
            raise ValueError(f"states need {1 + len(grid)} tick columns, got {states.shape[1]}")
        if not len(states):
            raise ValueError("a path space needs at least one path")
        if states.min() < 1 or states.max() > self.dim:  # also rejects a dim below 1
            raise ValueError(f"path states must lie in 1..{self.dim}")
        weights = np.array(self.weights, dtype=float)
        if weights.shape != (len(states),):
            raise ValueError(f"need one weight per path: {len(states)} paths, weights {weights.shape}")
        bad = ~(np.isfinite(weights) & (weights > 0.0))  # also flags NaN
        if bad.any():
            i = int(bad.argmax())
            raise ValueError(f"weights must be positive and finite: weight {i} is {float(weights[i])!r}")
        # compensated, so that rounding in many small weights cannot reject a law
        total = math.fsum(weights.tolist())
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"path weights sum to {total!r}, not 1")
        states.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_tables", {})

    @cached_property
    def _one_step(self) -> _OneStep:
        # one bincount per tick column as stored and per pair of consecutive
        # columns, each adding the weights in path order, as ``_table`` does
        # for any column pair; the bins of state 0, which no path holds, go
        d, weights, ticks = self.dim, self.weights, self.states.T  # tick x path
        occupation = np.array([np.bincount(at, weights=weights, minlength=d + 1)[1:] for at in ticks])
        moves = np.array([
            np.bincount(lo.astype(np.intp) * (d + 1) + hi, weights=weights, minlength=(d + 1) ** 2)
            .reshape(d + 1, d + 1)[1:, 1:]
            for lo, hi in zip(ticks[:-1], ticks[1:])
        ]).reshape(-1, d, d)  # no pair of ticks gives (0, d, d)
        moves.reshape(len(moves), d * d)[:, :: d + 1] = 0.0  # the diagonal: staying put is no jump
        events = np.flatnonzero(moves.any(axis=(1, 2)))
        for array in (occupation, moves, events):
            array.setflags(write=False)
        return _OneStep(occupation, moves, events)

    @cached_property
    def event_times(self) -> tuple[float, ...]:
        """Grid times at which some path actually jumps: those whose
        one-step table carries off-diagonal mass."""
        return tuple(self.grid[i] for i in self._one_step.events.tolist())

    @cached_property
    def paths(self) -> tuple[tuple[EventHistory, float], ...]:
        """Each path as an (``EventHistory``, weight) pair; path i is subject i.

        A view for readers outside the package: no query reads it.  The
        histories are those of the ``EventSample`` of the path matrix's
        jumps.
        """
        subjects, columns = np.nonzero(self.states[:, 1:] != self.states[:, :-1])
        sample = EventSample(
            np.arange(len(self.states)),
            self.states[:, 0],
            np.append(0, np.cumsum(np.bincount(subjects, minlength=len(self.states)))),
            np.array(self.grid)[columns],
            self.states[subjects, columns + 1],
        )
        return tuple(zip(sample, self.weights.tolist()))

    # -- tick columns and their joint tables --------------------------------

    def columns(self, a: Interval) -> tuple[int, int]:
        """The (left, right) tick columns ``a`` reads under its endpoint shape.

        Every query on ``a`` reads only these two columns, and the grid
        times inside ``a`` are exactly ``grid[left:right]``.  Since every
        jump lies on the grid, intervals with the same pair have equal
        transition and indicator values and contain the same jump times.
        A tick where no path jumps repeats the column before it, so the
        columns read hold the same states whenever the intervals hold the
        same ``event_times``: the interval functions built here are
        step-like.
        """
        return index_range(self.grid, a)

    def _table(self, left: int, right: int) -> _JointTable:
        table = self._tables.get((left, right))
        if table is None:
            d = self.dim
            lo = self.states[:, left].astype(np.intp) - 1
            hi = self.states[:, right] - 1
            joint = np.bincount(lo * d + hi, weights=self.weights, minlength=d * d).reshape(d, d)
            # the one-step occupation adds the same weights in the same path order
            conditioning = self._one_step.occupation[left][:, None]
            transition = np.eye(d)
            np.divide(joint, conditioning, out=transition, where=conditioning != 0.0)
            for array in (joint, transition):
                array.setflags(write=False)
            table = self._tables[(left, right)] = _JointTable(joint, transition)
        return table

    # -- occupation and transition probabilities --------------------------

    def occupation(self, j: int, t: float) -> float:
        """P(state = j) at time t."""
        if not 1 <= j <= self.dim:
            raise ValueError(f"state {j} outside 1..{self.dim}")
        return float(self._one_step.occupation[bisect_right(self.grid, t), j - 1])

    def occupation_vector(self, t: float) -> np.ndarray:
        """Occupation at ``t``.  Tick column c holds the states after the
        first c grid times, so ``t`` reads the count of grid times up to it."""
        return self._one_step.occupation[bisect_right(self.grid, t)].copy()

    def transition_matrix(self, a: Interval) -> np.ndarray:
        """Conditional transition probabilities of ``a`` under its endpoint shape.

        A closed left endpoint conditions on the state just before a.lo, an
        open one on the state at a.lo; a closed right endpoint evaluates
        the state at a.hi, an open one the state just before.  Where the
        conditioning probability is zero the row is the identity's.
        """
        return self._table(*self.columns(a)).transition.copy()

    def transition_if(self) -> GeneralIF:
        """The transition matrix as an interval function."""
        return GeneralIF(self.dim, self.transition_matrix, support=self.event_times, step_like=True)

    def transition_deviation_if(self) -> GeneralIF:
        """Transition matrix minus the identity, as an interval function."""
        eye = np.eye(self.dim)
        return GeneralIF(
            self.dim,
            lambda a: self.transition_matrix(a) - eye,
            support=self.event_times,
            step_like=True,
        )

    # -- expected counting and status measures ----------------------------

    def counting_mean(self) -> AdditiveIF:
        """The expected-count measure: its (j, k) atom at a jump time is the
        mass jumping from j to k there (a zero diagonal).  Built once per
        space."""
        return self._counts

    @cached_property
    def _counts(self) -> AdditiveIF:
        return AdditiveIF(self.dim, self.event_times, self._one_step.moves[self._one_step.events])

    def indicator_matrix(self, a: Interval) -> np.ndarray:
        """Probability of status j at the left of ``a`` and k at its right,
        for every j != k, with a zero diagonal.

        Same endpoint conventions as ``transition_matrix`` but
        unconditional, so on a singleton this equals the expected count of
        the instantaneous direct transition.
        """
        out = self._table(*self.columns(a)).joint.copy()
        np.fill_diagonal(out, 0.0)
        return out

    def indicator_if(self) -> GeneralIF:
        """``indicator_matrix`` as an interval function."""
        return GeneralIF(self.dim, self.indicator_matrix, support=self.event_times, step_like=True)

    # -- hazards -----------------------------------------------------------

    def jump_mass(self, u: float) -> np.ndarray:
        """Expected j -> k jump mass exactly at ``u``: the (j, k) entry is the
        weight of the paths jumping from j to k there."""
        i = bisect_left(self.grid, u)
        if i < len(self.grid) and self.grid[i] == u:
            return self._one_step.moves[i].copy()
        return np.zeros((self.dim, self.dim))

    def hazard_matrix(self) -> HazardMatrixIF:
        """Cumulative transition hazard: atom mass / occupation just before.

        Pure-jump for a finite path space.  Off-diagonal entry (j, k) at a
        jump time is the expected j -> k mass there divided by the
        occupation of j just before; the diagonal carries minus the row
        sum.  Built once per space, by ``HazardMatrixIF.from_counts``.
        """
        return self._hazard

    @cached_property
    def _hazard(self) -> HazardMatrixIF:
        events = self._one_step.events  # the tick before each event time holds its occupation
        return HazardMatrixIF.from_counts(
            self.event_times, self._one_step.moves[events], self._one_step.occupation[events]
        )
