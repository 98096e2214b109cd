"""Matrix-valued interval functions and their calculus.

An interval function assigns a d-by-d matrix to every subinterval of the
time window.  This module provides:

* ``AdditiveIF`` -- the canonical finitely additive representative, a
  finite set of jump atoms with an exact variation norm, and its
  ``HazardMatrixIF``, whose steps are formed from transition counts and
  risk sets in one place (``from_counts``);
* ``GeneralIF`` -- an arbitrary evaluator together with its declared
  candidate discontinuity times; a continuous part of a function enters
  as one that is not step-like, and its transforms are the limits below;
* the refinement engine: a window's canonical schedule is the Young
  partition at the declared support, then repeated open-cell halving;
* additive and multiplicative transforms, the summed defect against a
  proposed transform and the variation norm, all read from one walk of the
  schedule that sums (or multiplies) each partition's cell values.  A
  function that is not step-like is evaluated on every cell, and its
  transforms are limits.  A step-like one (constant on cells that hold the
  same support times) is evaluated once per Young cell, and their
  combination is its value at every depth if each gap is neutral (0 for a
  sum, the identity for a product); any other gap is refused at depth 0;
* the exact product integral of an additive function, a finite product
  over its atoms (also swept over the right endpoints of (lo, t] in one
  running product), and the integral of a regulated step function against
  an additive function.

All inequality checks use the maximum absolute row-sum norm, which is
submultiplicative (``norm(x @ y) <= norm(x) * norm(y)``); the max-entry
norm is not, and the exponential envelopes checked by the test suite need
submultiplicativity.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache, reduce
from typing import Callable, Iterator

import numpy as np

from .intervals import Interval

DEFAULT_TOL = 1e-10
DEFAULT_MAX_DEPTH = 24


def matrix_norm(x) -> float:
    """Maximum absolute row sum; the absolute value for 1x1 input."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return float(np.abs(x).sum(axis=1).max())


@lru_cache(maxsize=None)
def _identity(dim: int) -> np.ndarray:
    """The read-only ``dim`` x ``dim`` identity, one per dimension: a
    result that can be the identity itself is handed out as a copy."""
    eye = np.eye(dim)
    eye.setflags(write=False)
    return eye


class ConvergenceError(RuntimeError):
    """A transform's refinement schedule failed to settle within max_depth,
    or a step-like function is not neutral on a gap (depth 0)."""

    def __init__(self, message: str, last_value, last_change: float, depth: int):
        super().__init__(message)
        self.last_value = last_value
        self.last_change = last_change
        self.depth = depth


@dataclass(frozen=True, eq=False)
class AdditiveIF:
    """Finitely additive pure-jump interval function in canonical form.

    The atoms are ``times``, strictly increasing floats, and ``jumps``,
    their finite matrices as one read-only (atom x dim x dim) array; the
    atoms an interval holds are one slice of both, found by bisection.  The
    value on an interval is the sum of the atoms it holds, so additivity
    holds by construction, the variation norm is exact and the function is
    step-like with its atom times as support.  It holds arrays, so it
    equals only itself.
    """

    dim: int
    times: tuple = ()
    jumps: np.ndarray = ()

    step_like = True  # a class attribute, not a field

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")
        times = tuple([float(t) for t in self.times])
        jumps = np.array(self.jumps, dtype=float).reshape((len(times), self.dim, self.dim))
        if not np.isfinite(jumps).all():
            raise ValueError("matrix entries must be finite")
        if not all(earlier < later for earlier, later in zip(times, times[1:])):
            raise ValueError("atom times must be strictly increasing")
        jumps.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "jumps", jumps)

    @property
    def support(self) -> tuple[float, ...]:
        """Candidate discontinuity times: the atom times."""
        return self.times

    def __call__(self, a: Interval) -> np.ndarray:
        total = np.zeros((self.dim, self.dim))
        for jump in self.jumps[slice(*index_range(self.times, a))]:
            total += jump
        return total

    def variation(self, a: Interval) -> float:
        """Exact variation norm on ``a``: the sum of its atoms' norms."""
        total = 0.0
        for jump in self.jumps[slice(*index_range(self.times, a))]:
            total += matrix_norm(jump)
        return total


def first_failure(times, checks) -> str | None:
    """"<message> at <time>" for the first of ``times`` that fails one of
    ``checks``, naming the first check it fails there; None if every time
    passes.  A check is a (flags, message) pair whose boolean ``flags``
    array has one leading entry per time and fails a time with any flag."""
    if not any(flags.any() for flags, _ in checks):
        return None
    failed = [flags.reshape(len(times), -1).any(axis=1) for flags, _ in checks]
    i = int(np.logical_or.reduce(failed).argmax())
    return f"{next(message for flags, (_, message) in zip(failed, checks) if flags[i])} at {times[i]}"


@dataclass(frozen=True, eq=False)
class HazardMatrixIF(AdditiveIF):
    """Additive hazard matrix: nonnegative off-diagonals, zero row sums.

    Each atom's off-diagonal row mass is at most one (a state cannot expect
    to leave more than once instantaneously).
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        off = self.jumps * (1.0 - _identity(self.dim))  # the diagonal zeroed (a -0.0 fails no check)
        failure = first_failure(self.times, (
            (off < 0.0, "negative off-diagonal hazard"),
            (off.sum(axis=2) > 1.0 + 1e-12, "instantaneous exit mass above 1"),
            (np.abs(self.jumps.sum(axis=2)) > 1e-12, "hazard rows must sum to zero"),
        ))
        if failure:
            raise ValueError(failure)

    @classmethod
    def from_counts(cls, times, counts, at_risk) -> "HazardMatrixIF":
        """The hazard with an atom at each of ``times``: row j of the step at
        ``times[e]`` is row j of ``counts[e]`` (the j -> k transition counts
        or masses there, a zero diagonal) over ``at_risk[e, j]`` (the count
        or occupation of j just before), with minus its sum on the diagonal.
        A row without counts is all zeros; counts out of a state with
        nobody at risk raise ``ValueError`` naming the state and the time.
        The steps array is the hazard's ``jumps``, passed whole.
        """
        counts = np.asarray(counts, dtype=float)
        at_risk = np.asarray(at_risk)
        leaving = counts.any(axis=2)
        stranded = leaving & (at_risk <= 0)
        if stranded.any():
            e, j = np.argwhere(stranded)[0].tolist()
            raise ValueError(f"transitions out of state {j + 1} at {times[e]} with nobody at risk just before")
        size, d = leaving.shape
        steps = np.divide(counts, at_risk[:, :, None], out=np.zeros_like(counts), where=leaving[:, :, None])
        steps.reshape(size, d * d)[:, :: d + 1] = np.where(leaving, -steps.sum(axis=2), 0.0)
        return cls(d, times, steps)


@dataclass(frozen=True)
class GeneralIF:
    """Interval function given by an arbitrary evaluator.

    ``support`` must list every time where the function can be
    discontinuous; refinement schedules start from the Young partition at
    these times, and the constructors in this package all know their own
    jump times.  Discontinuity detection is not attempted.  ``step_like``
    declares the function constant on cells that hold the same support
    times, so the refinement engine evaluates it once per Young cell.
    """

    dim: int
    evaluator: Callable[[Interval], np.ndarray]
    support: tuple[float, ...] = ()
    step_like: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "support", tuple(sorted(self.support)))

    def __call__(self, a: Interval) -> np.ndarray:
        return np.asarray(self.evaluator(a), dtype=float).reshape((self.dim, self.dim))


def plus_identity(f) -> GeneralIF:
    """The interval function ``a -> identity + f(a)``."""
    eye = _identity(f.dim)
    return GeneralIF(f.dim, lambda a: eye + f(a), support=tuple(f.support), step_like=f.step_like)


# -- the refinement engine ---------------------------------------------------


def _halvings(cell: Interval, depth: int) -> list[Interval]:
    """``cell`` halved ``depth`` times, in order: each halving turns (a, b)
    into (a, m), [m, m], (m, b) with m = 0.5 * (a + b)."""
    if depth == 0:
        return [cell]
    mid = 0.5 * (cell.lo + cell.hi)
    if not cell.lo < mid < cell.hi:
        raise ValueError("a cell is too narrow to halve: its midpoint is an endpoint")
    return (
        _halvings(Interval(cell.lo, mid, cell.lo_closed, False), depth - 1)
        + [Interval.point(mid)]
        + _halvings(Interval(mid, cell.hi, False, cell.hi_closed), depth - 1)
    )


def _young_cells(times, a: Interval) -> list[Interval]:
    """The Young partition of ``a`` at ``times`` (sorted, inside ``a``): a
    point at each time and the gaps between."""
    cells = []
    lo, lo_closed = a.lo, a.lo_closed
    for t in times:
        if t > lo:
            cells.append(Interval(lo, t, lo_closed, False))
        cells.append(Interval.point(t))
        lo, lo_closed = t, False
    if lo < a.hi or not cells:  # the last gap, or a point window that holds no time
        cells.append(Interval(lo, a.hi, lo_closed, a.hi_closed))
    return cells


def _cell_product(values) -> np.ndarray:
    """The product of the cell values, left to right in cell order."""
    return reduce(operator.matmul, values)


def _refinement_values(term, step_like: bool, support, a: Interval, depth: int, what: str, combine=sum, neutral=0.0):
    """``combine`` of ``term``'s values in cell order on each partition of
    ``a``'s schedule over ``support`` up to ``depth``: the one walk that
    transforms, defects and variation norms read.  A general ``term`` is
    evaluated on every cell, and a depth with a cell too narrow to halve
    raises ``ValueError``.  A ``step_like`` one is evaluated once per Young
    cell, and their combination is its value at every depth: a gap stands
    for any number of cells, so each must be ``neutral`` for ``combine``,
    or ``ConvergenceError`` names ``what``, ``a``, the gap and its value at
    depth 0.  That refuses an idempotent or contracting gap factor too,
    although its powers converge."""
    young = _young_cells(sorted({t for t in support if a.contains(t)}), a)
    if not step_like:
        for k in range(depth + 1):
            yield combine([term(c) for cell in young for c in ([cell] if cell.is_point else _halvings(cell, k))])
        return
    values = [term(cell) for cell in young]
    value = combine(values)
    for cell, gap in zip(young, values):
        if not (cell.is_point or np.all(gap == neutral)):
            raise ConvergenceError(
                f"{what} over {a} is refused at depth 0: the step-like term is {np.asarray(gap).tolist()} "
                f"on the gap {cell}, not {np.asarray(neutral).tolist()}", value, math.inf, 0,
            )
    for _ in range(depth + 1):
        yield value


def _check_arguments(depth: int, tol: float = DEFAULT_TOL) -> None:
    """The engine's one rule for its arguments, written so that NaN breaks it."""
    if not (depth >= 0 and tol > 0):
        raise ValueError(f"depth must be nonnegative and tolerance positive, got depth {depth!r}, tol {tol!r}")


def _limit_over_refinements(f, a, combine, neutral, tol, max_depth, what):
    _check_arguments(max_depth, tol)
    previous = None
    change = math.inf
    values = _refinement_values(f, f.step_like, f.support, a, max_depth, what, combine, neutral)
    for depth, current in enumerate(values):
        if not np.isfinite(current).all():  # it cannot settle, and deeper partitions cost twice as much
            raise ConvergenceError(f"{what} over {a} is not finite at depth {depth}", current, change, depth)
        if f.step_like:  # the Young value is the same at every depth
            return current
        if previous is not None:
            change = matrix_norm(current - previous)
            if change < tol:
                return current
        previous = current
    raise ConvergenceError(
        f"{what} over {a} still moved by {change:.3e} at depth {depth} (tol {tol:.1e})",
        previous,
        change,
        depth,
    )


def additive_transform(
    f, a: Interval, tol: float = DEFAULT_TOL, max_depth: int = DEFAULT_MAX_DEPTH
) -> np.ndarray:
    """Limit of the cell sums of ``f`` along the refinement schedule.

    For a step-like function it is the sum over the Young partition, which
    exists only if ``f`` is 0 on every gap between its support times; a
    continuous part converges geometrically and doubles the work per depth
    step.
    """
    return _limit_over_refinements(f, a, sum, 0.0, tol, max_depth, "additive transform")


def multiplicative_transform(
    f, a: Interval, tol: float = DEFAULT_TOL, max_depth: int = DEFAULT_MAX_DEPTH
) -> np.ndarray:
    """Limit of the ordered cell products of ``f`` along the schedule.

    Cells enter the product from left to right, matching the forward
    (chronological) product convention used everywhere in this package.
    For a step-like function it is the product over the Young partition,
    taken only if ``f`` is the identity on every gap.
    """
    return _limit_over_refinements(
        f, a, _cell_product, _identity(f.dim), tol, max_depth, "multiplicative transform"
    )


def _distance_term(f, target, a: Interval, distance):
    """The cell term ``distance(f - target)``, and whether it is constant on
    the support ranges of ``f`` (both step-like, and every support time of
    ``target`` inside ``a`` one of ``f``'s)."""
    step_like = (
        f.step_like
        and target.step_like
        and {t for t in target.support if a.contains(t)} <= set(f.support)
    )
    return (lambda cell: distance(f(cell) - target(cell))), step_like


def strict_transform_defect(f, target, a: Interval, depth: int = 0, distance=matrix_norm):
    """Summed cell-wise distance between ``f`` and a proposed transform on
    the depth-``depth`` partition of ``a``'s refinement schedule.

    A vanishing defect along refinements is what makes ``target`` a strict
    (additive or multiplicative) transform of ``f``.  ``distance`` maps a
    cell's difference to its term; ``np.abs`` gives every entry's defect at
    once.
    """
    _check_arguments(depth)
    # sum the deepest partition only: summing every depth's terms, as the
    # default combine would, costs a count-mean defect about a third more
    term, step_like = _distance_term(f, target, a, distance)
    *_, values = _refinement_values(term, step_like, f.support, a, depth, "transform defect", list)
    return sum(values)


def defect_profile(f, target, a: Interval, depths: int = 6) -> list[tuple[str, float]]:
    """Defect against ``target`` on the trivial partition and the schedule."""
    _check_arguments(depths)
    term, step_like = _distance_term(f, target, a, matrix_norm)
    coarse = term(a)  # the trivial partition {a}
    defects = _refinement_values(term, step_like, f.support, a, depths, "defect profile")
    return [("coarse", coarse)] + [(f"depth {d}", v) for d, v in enumerate(defects)]


def variation_norm(f, a: Interval, depth: int = 6) -> float:
    """Variation norm of ``f`` on ``a``.

    Exact for an ``AdditiveIF``, and the summed Young cell norms for
    another step-like function.  Otherwise the supremum of the summed cell
    norms over the refinement schedule up to ``depth``, which is a monotone
    nondecreasing lower bound for the true variation.
    """
    _check_arguments(depth)
    if isinstance(f, AdditiveIF):
        return f.variation(a)
    values = _refinement_values(lambda cell: matrix_norm(f(cell)), f.step_like, f.support, a, depth, "variation norm")
    return max(0.0, *values)


def product_integral(lam: AdditiveIF, a: Interval) -> np.ndarray:
    """Exact product integral of ``identity + lam`` over ``a``: the
    ``identity + jump`` factors of the atoms in ``a``, multiplied in time
    order."""
    eye = result = _identity(lam.dim)
    for jump in lam.jumps[slice(*index_range(lam.times, a))]:
        result = result @ (eye + jump)
    return eye.copy() if result is eye else result


def index_range(times, a: Interval) -> tuple[int, int]:
    """(start, stop) with ``times[start:stop]`` the sorted ``times`` that
    lie in ``a``."""
    start = bisect_left(times, a.lo) if a.lo_closed else bisect_right(times, a.lo)
    stop = bisect_right(times, a.hi) if a.hi_closed else bisect_left(times, a.hi)
    return start, stop


def product_integral_sweep(lam: AdditiveIF, lo: float, times) -> Iterator[np.ndarray]:
    """``product_integral(lam, (lo, t])`` for each t of the nondecreasing
    ``times``, all at or after ``lo`` (the identity at ``t == lo``), from one
    running product.

    ``lam``'s ``times`` and ``jumps`` are walked by index.  Each value
    multiplies the same ``identity + jump`` factors in the same order as its
    own product integral, so the two agree bit for bit.  Times with no atom
    between them share one value, so a value is read-only, or a copy of the
    identity before the first atom.
    """
    eye = _identity(lam.dim)
    result, i, previous = eye, bisect_right(lam.times, lo), lo
    for t in times:
        if t < previous:
            raise ValueError(f"sweep times must be nondecreasing from {lo}, got {t} after {previous}")
        while i < len(lam.times) and lam.times[i] <= t:
            result = result @ (eye + lam.jumps[i])
            result.setflags(write=False)
            i += 1
        previous = t
        yield eye.copy() if result is eye else result


@dataclass(frozen=True)
class StepFunction:
    """Real piecewise-constant function with declared breakpoints.

    ``between_values[i]`` is the constant value on the open segment between
    ``breakpoints[i-1]`` and ``breakpoints[i]`` (the leading and trailing
    segments extend indefinitely), and ``at_values[i]`` is the value taken
    exactly at ``breakpoints[i]``.  One-sided limits are therefore explicit
    in the representation, and a value change is only possible at a
    declared breakpoint.
    """

    breakpoints: tuple[float, ...]
    at_values: tuple[float, ...]
    between_values: tuple[float, ...]

    def __post_init__(self) -> None:
        breaks = tuple(float(t) for t in self.breakpoints)
        ats = tuple(float(v) for v in self.at_values)
        betweens = tuple(float(v) for v in self.between_values)
        for earlier, later in zip(breaks, breaks[1:]):
            if not earlier < later:
                raise ValueError("breakpoints must be strictly increasing")
        if len(ats) != len(breaks):
            raise ValueError("need one at-value per breakpoint")
        if len(betweens) != len(breaks) + 1:
            raise ValueError("need one between-value per segment (len(breakpoints) + 1)")
        if not all(map(math.isfinite, breaks + ats + betweens)):
            raise ValueError("step function data must be finite")
        object.__setattr__(self, "breakpoints", breaks)
        object.__setattr__(self, "at_values", ats)
        object.__setattr__(self, "between_values", betweens)

    def __call__(self, t: float) -> float:
        i = bisect_left(self.breakpoints, t)
        if i < len(self.breakpoints) and self.breakpoints[i] == t:
            return self.at_values[i]
        return self.between_values[i]

    def sup_abs(self, a: Interval) -> float:
        """Supremum of ``|f|`` over ``a``: the values at the breakpoints it
        holds and on the open segments it meets."""
        if a.is_point:
            return abs(self(a.lo))
        start, stop = index_range(self.breakpoints, a)
        segments = slice(bisect_right(self.breakpoints, a.lo), bisect_left(self.breakpoints, a.hi) + 1)
        return max(map(abs, self.at_values[start:stop] + self.between_values[segments]))


def kolmogorov_integral(f: StepFunction, mu: AdditiveIF, a: Interval) -> np.ndarray:
    """Integral of the step function ``f`` against the additive ``mu`` on ``a``.

    Each atom in ``a`` contributes ``f(t) * jump``.  Satisfies
    ``matrix_norm(result) <= f.sup_abs(a) * mu.variation(a)``.
    """
    total = np.zeros((mu.dim, mu.dim))
    held = slice(*index_range(mu.times, a))
    for t, jump in zip(mu.times[held], mu.jumps[held]):
        total += f(t) * jump
    return total
