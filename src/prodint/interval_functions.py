"""Matrix-valued interval functions and their calculus.

An interval function assigns a d-by-d matrix to every subinterval of the
time window.  This module provides:

* ``AdditiveIF`` -- the canonical finitely additive representative (jump
  atoms plus a piecewise-constant matrix density), with an exact variation
  norm, and its pure-jump ``HazardMatrixIF``, whose steps are formed from
  transition counts and risk sets in one place (``from_counts``);
* ``GeneralIF`` -- an arbitrary evaluator together with its declared
  candidate discontinuity times;
* the refinement engine (``refinement_runs``): the canonical schedule of a
  window (Young partition at the declared support, then repeated halving of
  the open cells) given as runs of consecutive cells that hold the same
  support times;
* additive and multiplicative transforms, computed as limits along that
  schedule, and the summed defect against a proposed transform.  A
  step-like function (constant on cells that hold the same support times)
  is evaluated once per support range, any other on every cell;
* the exact product integral of an additive function (also swept over
  the right endpoints of (lo, t] in one running product), and the
  integral of a regulated step function against an additive function.

All inequality checks use the maximum absolute row-sum norm, which is
submultiplicative (``norm(x @ y) <= norm(x) * norm(y)``); the max-entry
norm is not, and the exponential envelopes checked by the test suite need
submultiplicativity.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .intervals import Interval

DEFAULT_TOL = 1e-10
DEFAULT_MAX_DEPTH = 24


def matrix_norm(x) -> float:
    """Maximum absolute row sum; the absolute value for 1x1 input."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    return float(np.abs(x).sum(axis=1).max())


class ConvergenceError(RuntimeError):
    """A transform's refinement schedule failed to settle within max_depth."""

    def __init__(self, message: str, last_value, last_change: float, depth: int):
        super().__init__(message)
        self.last_value = last_value
        self.last_change = last_change
        self.depth = depth


def _frozen_stack(matrices, dim: int) -> np.ndarray:
    """``matrices`` as one read-only (count x dim x dim) array of finite floats."""
    if not matrices:
        stack = np.zeros((0, dim, dim))
    else:
        stack = np.array(matrices, dtype=float).reshape((len(matrices), dim, dim))
        if not np.isfinite(stack).all():
            raise ValueError("matrix entries must be finite")
    stack.setflags(write=False)
    return stack


@dataclass(frozen=True)
class AdditiveIF:
    """Finitely additive interval function in canonical form.

    ``atoms`` is a sorted tuple of ``(time, matrix)`` jumps; ``density`` is
    a tuple of ``(start, end, rate_matrix)`` pieces with disjoint
    increasing spans.  The value on an interval is the sum of the atoms it
    contains plus the density integrated over it, so additivity holds by
    construction and the variation norm is exact.  The atoms' times are
    ``times`` and their matrices views of ``jumps``, one read-only (atom x
    dim x dim) array; the atoms an interval holds are found by bisection.
    """

    dim: int
    atoms: tuple = ()
    density: tuple = ()

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")
        atoms, pieces = tuple(self.atoms), ()
        jumps = _frozen_stack([m for _, m in atoms], self.dim)
        times = tuple([float(t) for t, _ in atoms])
        if not all(earlier < later for earlier, later in zip(times, times[1:])):
            raise ValueError("atom times must be strictly increasing")
        if self.density:
            density = tuple(self.density)
            rates = _frozen_stack([r for _, _, r in density], self.dim)
            pieces = tuple((float(s), float(e), r) for (s, e, _), r in zip(density, rates))
            if not all(s < e for s, e, _ in pieces):
                raise ValueError("density pieces must have positive width")
            if any(e1 > s2 for (_, e1, _), (s2, _, _) in zip(pieces, pieces[1:])):
                raise ValueError("density pieces must be disjoint and ordered")
        object.__setattr__(self, "atoms", tuple(zip(times, jumps)))
        object.__setattr__(self, "density", pieces)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "jumps", jumps)

    @property
    def step_like(self) -> bool:
        """Without a density, the value on a cell is the sum of the atoms it
        holds."""
        return not self.density

    @property
    def support(self) -> tuple[float, ...]:
        """Candidate discontinuity times: atom times and density edges."""
        edges = [edge for start, end, _ in self.density for edge in (start, end)]
        return tuple(sorted({*self.times, *edges}))

    def _atoms_in(self, a: Interval) -> tuple:
        """The atoms ``a`` holds, in time order."""
        return self.atoms[slice(*index_range(self.times, a))]

    def __call__(self, a: Interval) -> np.ndarray:
        total = np.zeros((self.dim, self.dim))
        for _, jump in self._atoms_in(a):
            total += jump
        for start, end, rate in self.density:
            overlap = min(a.hi, end) - max(a.lo, start)
            if overlap > 0:
                total += overlap * rate
        return total

    def variation(self, a: Interval) -> float:
        """Exact variation norm on ``a``: atom norms plus density norm mass."""
        total = 0.0
        for _, jump in self._atoms_in(a):
            total += matrix_norm(jump)
        for start, end, rate in self.density:
            overlap = min(a.hi, end) - max(a.lo, start)
            if overlap > 0:
                total += overlap * matrix_norm(rate)
        return total

    def scale(self, factor: float) -> "AdditiveIF":
        return AdditiveIF(
            self.dim,
            tuple((t, factor * m) for t, m in self.atoms),
            tuple((s, e, factor * r) for s, e, r in self.density),
        )


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


@dataclass(frozen=True)
class HazardMatrixIF(AdditiveIF):
    """Additive hazard matrix: nonnegative off-diagonals, zero row sums.

    Pure-jump by construction; each atom's off-diagonal row mass is at most
    one (a state cannot expect to leave more than once instantaneously).
    """

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.density:
            raise ValueError("hazard matrices are pure-jump")
        steps = self.jumps
        off = steps * (1.0 - np.eye(self.dim))  # the diagonal zeroed (a -0.0 fails no check)
        failure = first_failure(self.times, (
            (off < 0.0, "negative off-diagonal hazard"),
            (off.sum(axis=2) > 1.0 + 1e-12, "instantaneous exit mass above 1"),
            (np.abs(steps.sum(axis=2)) > 1e-12, "hazard rows must sum to zero"),
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
        return cls(d, tuple(zip(times, steps)))


@dataclass(frozen=True)
class GeneralIF:
    """Interval function given by an arbitrary evaluator.

    ``support`` must list every time where the function can be
    discontinuous; refinement schedules start from the Young partition at
    these times, and the constructors in this package all know their own
    jump times.  Discontinuity detection is not attempted.  ``step_like``
    declares the function constant on cells that hold the same support
    times, so the refinement engine evaluates it once per support range.
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
    eye = np.eye(f.dim)
    return GeneralIF(f.dim, lambda a: eye + f(a), support=tuple(f.support), step_like=f.step_like)


# -- the refinement engine ---------------------------------------------------


class Run(NamedTuple):
    """``multiplicity`` consecutive cells of one partition, each holding
    exactly the support times ``times[start:stop]`` (``times`` being the
    sorted support times inside the window).  They are the Young cell
    ``cell`` halved ``depth`` times, so ``cell`` holds the same support
    times and stands for all of them."""

    start: int
    stop: int
    multiplicity: int
    cell: Interval
    depth: int

    def cells(self) -> list[Interval]:
        """The run's cells in order."""
        return _halvings(self.cell, self.depth)


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


def _young_runs(times, a: Interval) -> list[Run]:
    """The Young partition of ``a`` at ``times`` (sorted, inside ``a``): a
    point at each time and the gaps between, one run per cell."""
    runs = []
    lo, lo_closed = a.lo, a.lo_closed
    for i, t in enumerate(times):
        if t > lo:
            runs.append(Run(i, i, 1, Interval(lo, t, lo_closed, False), 0))
        runs.append(Run(i, i + 1, 1, Interval.point(t), 0))
        lo, lo_closed = t, False
    if lo < a.hi:
        runs.append(Run(len(times), len(times), 1, Interval(lo, a.hi, lo_closed, a.hi_closed), 0))
    elif not runs:
        runs.append(Run(0, 0, 1, Interval.point(a.lo), 0))
    return runs


def _halved(run: Run) -> Run:
    """A gap's run one depth further down."""
    gap, depth = run.cell, run.depth
    # A float midpoint lies within one ulp of the largest endpoint (u) of the
    # exact midpoint of its float cell, so the depth-k cells are at least
    # width / 2**k - 2k u wide, and a cell wider than 2 u has its float
    # midpoint strictly inside.  The extra 6 u cover the rounding of the width.
    # Closer to the float resolution, halve the cells one by one, which raises
    # where one of them is too narrow (or a sum of endpoints could overflow).
    largest = max(abs(gap.lo), abs(gap.hi))
    margin = 2.0**depth * (2 * depth + 8) * math.ulp(largest)
    if not (largest < 2.0**1022 and gap.hi - gap.lo > margin):
        _halvings(gap, depth + 1)
    return Run(run.start, run.stop, 2 * run.multiplicity + 1, gap, depth + 1)


def refinement_runs(
    support, a: Interval, max_depth: int, trivial: bool = False
) -> Iterator[list[Run]]:
    """The canonical refinement schedule of ``a``: one partition per depth
    0..``max_depth``, each given lazily as its runs in cell order.

    Depth 0 is the Young partition at the support times inside ``a``, and
    each depth halves every cell that is not a point.  The halvings of a gap
    hold no support time, so each gap stays one run of 2**(depth + 1) - 1
    cells: a partition over E support times is at most 2E + 1 runs at any
    depth.  With ``trivial`` the partition {a} comes first.  Reaching a
    depth at which a cell is too narrow to halve raises ``ValueError``.
    """
    times = sorted({t for t in support if a.contains(t)})
    if trivial:
        yield [Run(0, len(times), 1, a, 0)]
    runs = _young_runs(times, a)
    yield runs
    for _ in range(max_depth):
        runs = [run if run.cell.is_point else _halved(run) for run in runs]
        yield runs


def _values(f, step_like: bool, runs, memo: dict) -> list[tuple]:
    """(value, multiplicity) of each run in cell order.  A ``step_like``
    ``f`` is evaluated once per support range, memoized in ``memo`` across
    the partitions of one schedule; any other on every cell."""
    if not step_like:
        return [(f(cell), 1) for run in runs for cell in run.cells()]
    values = []
    for run in runs:
        key = (run.start, run.stop)
        if key not in memo:
            memo[key] = f(run.cell)
        values.append((memo[key], run.multiplicity))
    return values


def _cell_sum(values):
    """The builtin ``sum`` of every cell's value, in cell order.  Runs of an
    exact zero are left out: the sum starts from 0, so it never holds -0.0,
    and adding a zero changes none of its bits."""
    kept = [
        (v, n)
        for v, n in values
        if n == 1 or (v.any() if isinstance(v, np.ndarray) else v != 0.0)
    ]
    return sum(chain.from_iterable(repeat(v, n) for v, n in kept or values[:1]))


def _cell_product(values) -> np.ndarray:
    """The product of every cell's value, left to right in cell order."""
    result = None
    for value, n in values:
        for _ in range(n):
            result = value if result is None else result @ value
    return result


def _limit_over_refinements(f, a, combine, tol, max_depth, what):
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    previous = None
    change = math.inf
    depth = -1
    memo = {}
    for depth, runs in enumerate(refinement_runs(f.support, a, max_depth)):
        current = combine(_values(f, f.step_like, runs, memo))
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

    For step-like functions the sums are exact once the schedule separates
    the support times, so the limit terminates; a density part converges
    geometrically and doubles the work per depth step.
    """
    return _limit_over_refinements(f, a, _cell_sum, tol, max_depth, "additive transform")


def multiplicative_transform(
    f, a: Interval, tol: float = DEFAULT_TOL, max_depth: int = DEFAULT_MAX_DEPTH
) -> np.ndarray:
    """Limit of the ordered cell products of ``f`` along the schedule.

    Cells enter the product from left to right, matching the forward
    (chronological) product convention used everywhere in this package.
    """
    return _limit_over_refinements(
        f, a, _cell_product, tol, max_depth, "multiplicative transform"
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
    term, step_like = _distance_term(f, target, a, distance)
    *_, runs = refinement_runs(f.support, a, depth)
    return _cell_sum(_values(term, step_like, runs, {}))


def defect_profile(f, target, a: Interval, depths: int = 6) -> list[tuple[str, float]]:
    """Defect against ``target`` on the trivial partition and the schedule."""
    term, step_like = _distance_term(f, target, a, matrix_norm)
    memo = {}
    defects = [
        _cell_sum(_values(term, step_like, runs, memo))
        for runs in refinement_runs(f.support, a, depths, trivial=True)
    ]
    return [("coarse", defects[0])] + [(f"depth {d}", v) for d, v in enumerate(defects[1:])]


def _largest_cell_sum(term, step_like: bool, support, a: Interval, depth: int) -> float:
    """The largest summed cell term over the partitions of the schedule up
    to ``depth``."""
    best = 0.0
    memo = {}
    for runs in refinement_runs(support, a, depth):
        best = max(best, _cell_sum(_values(term, step_like, runs, memo)))
    return best


def variation_norm(f, a: Interval, depth: int = 6) -> float:
    """Variation norm of ``f`` on ``a``.

    Exact for an ``AdditiveIF``.  Otherwise the supremum of the summed cell
    norms over the refinement schedule up to ``depth``, which is a monotone
    nondecreasing lower bound for the true variation.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if isinstance(f, AdditiveIF):
        return f.variation(a)
    return _largest_cell_sum(lambda cell: matrix_norm(f(cell)), f.step_like, f.support, a, depth)


def _density_factor(lam: AdditiveIF, lo: float, hi: float) -> np.ndarray | None:
    """exp of the density integrated over (lo, hi), or None where there is none."""
    total = None
    for start, end, rate in lam.density:
        overlap = min(hi, end) - max(lo, start)
        if overlap > 0:
            total = overlap * rate if total is None else total + overlap * rate
    if total is None:
        return None
    # imported here: only a density needs it, and importing it takes about as
    # long as importing the rest of the package
    from scipy.linalg import expm

    return expm(total)


def product_integral(lam: AdditiveIF, a: Interval) -> np.ndarray:
    """Exact product integral of ``identity + lam`` over ``a``.

    Multiplies ``identity + jump`` factors over the atoms in ``a`` in time
    order, interleaved with matrix exponentials of the density integrated
    over the open gaps.  For a pure-jump input this is a finite matrix
    product.
    """
    eye = np.eye(lam.dim)
    result = eye
    cursor = a.lo
    for t, jump in lam._atoms_in(a):
        if t > cursor:
            factor = _density_factor(lam, cursor, t)
            if factor is not None:
                result = result @ factor
        result = result @ (eye + jump)
        cursor = t
    if a.hi > cursor:
        factor = _density_factor(lam, cursor, a.hi)
        if factor is not None:
            result = result @ factor
    return result


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

    ``lam`` must be pure-jump.  Each value multiplies the same
    ``identity + jump`` factors in the same order as its own product
    integral, so the two agree bit for bit.
    """
    if lam.density:
        raise ValueError("the product integral sweep takes a pure-jump function")
    eye = np.eye(lam.dim)
    atoms = lam.atoms[bisect_right(lam.times, lo) :]
    result, i, previous = eye, 0, lo
    for t in times:
        if t < previous:
            raise ValueError(f"sweep times must be nondecreasing from {lo}, got {t} after {previous}")
        while i < len(atoms) and atoms[i][0] <= t:
            result = result @ (eye + atoms[i][1])
            i += 1
        previous = t
        yield result


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

    Atoms contribute ``f(t) * jump``; each density piece contributes the
    rate scaled by the integral of ``f`` over the overlap, evaluated
    segment by segment between the breakpoints of ``f``.  Satisfies
    ``matrix_norm(result) <= f.sup_abs(a) * mu.variation(a)``.
    """
    total = np.zeros((mu.dim, mu.dim))
    for t, jump in mu._atoms_in(a):
        total += f(t) * jump
    for start, end, rate in mu.density:
        lo = max(start, a.lo)
        hi = min(end, a.hi)
        if hi <= lo:
            continue
        points = [lo] + [b for b in f.breakpoints if lo < b < hi] + [hi]
        for u, v in zip(points, points[1:]):
            total += f(0.5 * (u + v)) * (v - u) * rate
    return total


class BoundCheck(NamedTuple):
    lhs: float
    rhs: float
    ok: bool


def check_product_variation_bound(
    mu: AdditiveIF, a: Interval, depths: int = 4
) -> BoundCheck:
    """Deviation-from-identity variation of the product integral of ``mu``
    against the exponential envelope ``exp(V) * V`` with ``V`` the exact
    variation of ``mu`` on ``a``.

    The left side sweeps the refinement schedule (the Young partition at
    the support already separates the atoms) and takes the largest summed
    cell deviation.  Without a density a cell's product integral depends
    only on the atoms it contains, so each support range is evaluated once;
    with one, every cell is evaluated.
    """
    v = mu.variation(a)
    rhs = math.exp(v) * v
    eye = np.eye(mu.dim)

    def deviation(cell):
        return matrix_norm(product_integral(mu, cell) - eye)

    lhs = _largest_cell_sum(deviation, mu.step_like, mu.support, a, depths)
    return BoundCheck(lhs, rhs, lhs <= rhs + 1e-12)
