"""Matrix-valued interval functions and their calculus.

An interval function assigns a d-by-d matrix to every subinterval of the
time window.  This module provides:

* ``AdditiveIF`` -- the canonical finitely additive representative (jump
  atoms plus a piecewise-constant matrix density), with an exact variation
  norm;
* ``GeneralIF`` -- an arbitrary evaluator together with its declared
  candidate discontinuity times;
* additive and multiplicative transforms, computed as limits along the
  canonical refinement schedule (Young partition at the declared support,
  then repeated halving of the open cells);
* the same schedule as endpoint arrays (``refinement_cells``), whose cells
  can be classed by the support times they contain and evaluated once per
  class;
* the summed defect against a proposed transform on a given partition;
* the exact product integral of an additive function, and the integral of
  a regulated step function against an additive function.

All inequality checks use the maximum absolute row-sum norm, which is
submultiplicative (``norm(x @ y) <= norm(x) * norm(y)``); the max-entry
norm is not, and the exponential envelopes checked by the test suite need
submultiplicativity.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

import numpy as np

from .intervals import Interval, Partition, halve_open_cells, young_partition

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


def _frozen_matrix(x, dim: int) -> np.ndarray:
    m = np.array(x, dtype=float).reshape((dim, dim))
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    m.setflags(write=False)
    return m


@dataclass(frozen=True)
class AdditiveIF:
    """Finitely additive interval function in canonical form.

    ``atoms`` is a sorted tuple of ``(time, matrix)`` jumps; ``density`` is
    a tuple of ``(start, end, rate_matrix)`` pieces with disjoint
    increasing spans.  The value on an interval is the sum of the atoms it
    contains plus the density integrated over it, so additivity holds by
    construction and the variation norm is exact.
    """

    dim: int
    atoms: tuple = ()
    density: tuple = ()

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dimension must be at least 1")
        atoms = tuple((float(t), _frozen_matrix(m, self.dim)) for t, m in self.atoms)
        for (earlier, _), (later, _) in zip(atoms, atoms[1:]):
            if not earlier < later:
                raise ValueError("atom times must be strictly increasing")
        pieces = tuple(
            (float(s), float(e), _frozen_matrix(r, self.dim)) for s, e, r in self.density
        )
        for s, e, _ in pieces:
            if not s < e:
                raise ValueError("density pieces must have positive width")
        for (_, e1, _), (s2, _, _) in zip(pieces, pieces[1:]):
            if e1 > s2:
                raise ValueError("density pieces must be disjoint and ordered")
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "density", pieces)

    @property
    def support(self) -> tuple[float, ...]:
        """Candidate discontinuity times: atom times and density edges."""
        times = {t for t, _ in self.atoms}
        for s, e, _ in self.density:
            times.add(s)
            times.add(e)
        return tuple(sorted(times))

    def __call__(self, a: Interval) -> np.ndarray:
        total = np.zeros((self.dim, self.dim))
        for t, jump in self.atoms:
            if a.contains(t):
                total += jump
        for start, end, rate in self.density:
            overlap = min(a.hi, end) - max(a.lo, start)
            if overlap > 0:
                total += overlap * rate
        return total

    def variation(self, a: Interval) -> float:
        """Exact variation norm on ``a``: atom norms plus density norm mass."""
        total = 0.0
        for t, jump in self.atoms:
            if a.contains(t):
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

    def entry(self, j: int, k: int) -> "AdditiveIF":
        """The (j, k) entry (states numbered from 1) as a scalar function."""
        atoms = tuple(
            (t, [[m[j - 1, k - 1]]]) for t, m in self.atoms if m[j - 1, k - 1] != 0.0
        )
        density = tuple(
            (s, e, [[r[j - 1, k - 1]]]) for s, e, r in self.density if r[j - 1, k - 1] != 0.0
        )
        return AdditiveIF(1, atoms, density)


@dataclass(frozen=True)
class GeneralIF:
    """Interval function given by an arbitrary evaluator.

    ``support`` must list every time where the function can be
    discontinuous; refinement schedules start from the Young partition at
    these times, and the constructors in this package all know their own
    jump times.  Discontinuity detection is not attempted.
    """

    dim: int
    evaluator: Callable[[Interval], np.ndarray]
    support: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "support", tuple(sorted(self.support)))

    def __call__(self, a: Interval) -> np.ndarray:
        return np.asarray(self.evaluator(a), dtype=float).reshape((self.dim, self.dim))


def plus_identity(f) -> GeneralIF:
    """The interval function ``a -> identity + f(a)``."""
    eye = np.eye(f.dim)
    return GeneralIF(f.dim, lambda a: eye + f(a), support=tuple(f.support))


def refinement_partitions(support, a: Interval, max_depth: int) -> Iterator[Partition]:
    """Canonical refinement schedule of ``a``.

    Starts from the Young partition at the support times inside ``a`` and
    halves every open cell once per step.  Yields ``max_depth + 1``
    partitions.
    """
    times = sorted({t for t in support if a.contains(t)})
    part = young_partition(times, a)
    yield part
    for _ in range(max_depth):
        part = halve_open_cells(part)
        yield part


def _limit_over_refinements(f, a, combine, tol, max_depth, what):
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    previous = None
    change = math.inf
    depth = -1
    for depth, part in enumerate(refinement_partitions(f.support, a, max_depth)):
        current = combine([f(cell) for cell in part.cells])
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
    return _limit_over_refinements(f, a, sum, tol, max_depth, "additive transform")


def _ordered_product(values) -> np.ndarray:
    result = values[0]
    for value in values[1:]:
        result = result @ value
    return result


def multiplicative_transform(
    f, a: Interval, tol: float = DEFAULT_TOL, max_depth: int = DEFAULT_MAX_DEPTH
) -> np.ndarray:
    """Limit of the ordered cell products of ``f`` along the schedule.

    Cells enter the product from left to right, matching the forward
    (chronological) product convention used everywhere in this package.
    """
    return _limit_over_refinements(
        f, a, _ordered_product, tol, max_depth, "multiplicative transform"
    )


def strict_transform_defect(f, target, p: Partition) -> float:
    """Summed cell-wise distance between ``f`` and a proposed transform.

    A vanishing defect along refinements is what makes ``target`` a strict
    (additive or multiplicative) transform of ``f``.
    """
    return sum(matrix_norm(f(cell) - target(cell)) for cell in p.cells)


def defect_profile(f, target, a: Interval, depths: int = 6) -> list[tuple[str, float]]:
    """Defect against ``target`` on the trivial partition and the schedule."""
    partitions = [Partition((a,))] + list(refinement_partitions(f.support, a, depths))
    defects = [strict_transform_defect(f, target, p) for p in partitions]
    return [("coarse", defects[0])] + [(f"depth {d}", v) for d, v in enumerate(defects[1:])]


class CellSchedule(NamedTuple):
    """Consecutive partitions of one window as endpoint arrays.

    Cell i is ``Interval(lo[i], hi[i], lo_closed[i], hi_closed[i])``, and
    partition p holds the cells ``bounds[p]:bounds[p + 1]``.
    """

    lo: np.ndarray
    hi: np.ndarray
    lo_closed: np.ndarray
    hi_closed: np.ndarray
    bounds: tuple[int, ...]

    def cell(self, i: int) -> Interval:
        return Interval(
            float(self.lo[i]), float(self.hi[i]), bool(self.lo_closed[i]), bool(self.hi_closed[i])
        )

    def since(self, p: int) -> "CellSchedule":
        """The partitions from ``p`` on."""
        first = self.bounds[p]
        return CellSchedule(
            self.lo[first:],
            self.hi[first:],
            self.lo_closed[first:],
            self.hi_closed[first:],
            tuple(b - first for b in self.bounds[p:]),
        )

    def ranges(self, times) -> tuple[np.ndarray, np.ndarray]:
        """The (start, stop) index arrays for which cell i contains exactly
        ``times[start[i]:stop[i]]`` of the sorted ``times``."""
        times = np.asarray(times, dtype=float)
        start = np.where(
            self.lo_closed,
            np.searchsorted(times, self.lo, "left"),
            np.searchsorted(times, self.lo, "right"),
        )
        stop = np.where(
            self.hi_closed,
            np.searchsorted(times, self.hi, "right"),
            np.searchsorted(times, self.hi, "left"),
        )
        return start, stop

    def classes(self, start, stop) -> tuple[list[Interval], np.ndarray]:
        """Class the cells by their (start, stop) index pair: each class's
        first cell in schedule order, and every cell's class."""
        keys = start * (int(stop.max(initial=0)) + 1) + stop
        _, first, classes = np.unique(keys, return_index=True, return_inverse=True)
        return [self.cell(i) for i in first.tolist()], classes

    def sums(self, values: np.ndarray, classes: np.ndarray) -> list[float]:
        """Per partition, the sum of its cells' ``values[classes]`` taken in
        cell order with the builtin ``sum``, as a loop over the cells adds."""
        terms = values[classes].tolist()
        return [sum(terms[start:stop]) for start, stop in zip(self.bounds, self.bounds[1:])]


def _halved(lo, hi, lo_closed, hi_closed):
    """``halve_open_cells`` on endpoint arrays: a cell (a, b) becomes
    (a, m), [m, m], (m, b); a point stays whole."""
    split = lo < hi
    mid = 0.5 * (lo + hi)
    if not ((lo < mid) & (mid < hi))[split].all():
        raise ValueError("a cell is too narrow to halve: its midpoint is an endpoint")
    counts = 1 + 2 * split
    first = (np.cumsum(counts) - counts)[split]
    second, third = first + 1, first + 2
    lo, hi, lo_closed, hi_closed = (np.repeat(x, counts) for x in (lo, hi, lo_closed, hi_closed))
    mid = mid[split]
    lo[second] = lo[third] = hi[first] = hi[second] = mid
    lo_closed[second] = hi_closed[second] = True
    lo_closed[third] = hi_closed[first] = False
    return lo, hi, lo_closed, hi_closed


def _endpoint_arrays(cells) -> tuple[np.ndarray, ...]:
    return (
        np.array([c.lo for c in cells], dtype=float),
        np.array([c.hi for c in cells], dtype=float),
        np.array([c.lo_closed for c in cells], dtype=bool),
        np.array([c.hi_closed for c in cells], dtype=bool),
    )


def refinement_cells(support, a: Interval, max_depth: int) -> CellSchedule:
    """The trivial partition ``{a}``, then ``refinement_partitions(support, a,
    max_depth)``, as one ``CellSchedule`` of ``max_depth + 2`` partitions.

    Each halving is one array step over the previous partition, with the
    midpoint computed as ``halve_open_cells`` computes it, so the cells equal
    the ``Interval`` schedule's exactly.
    """
    times = sorted({t for t in support if a.contains(t)})
    partitions = [_endpoint_arrays((a,)), _endpoint_arrays(young_partition(times, a).cells)]
    for _ in range(max_depth):
        partitions.append(_halved(*partitions[-1]))
    bounds = tuple(np.cumsum([0] + [len(p[0]) for p in partitions]).tolist())
    return CellSchedule(*(np.concatenate(side) for side in zip(*partitions)), bounds)


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
    best = 0.0
    for part in refinement_partitions(f.support, a, depth):
        best = max(best, sum(matrix_norm(f(cell)) for cell in part.cells))
    return best


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
    for t, jump in lam.atoms:
        if not a.contains(t):
            continue
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

    def left_limit(self, t: float) -> float:
        i = bisect_left(self.breakpoints, t)
        return self.between_values[i]

    def right_limit(self, t: float) -> float:
        i = bisect_right(self.breakpoints, t)
        return self.between_values[i]

    def sup_abs(self, a: Interval) -> float:
        """Supremum of ``|f|`` over ``a``."""
        if a.is_point:
            return abs(self(a.lo))
        candidates = []
        if a.lo_closed:
            candidates.append(abs(self(a.lo)))
        if a.hi_closed:
            candidates.append(abs(self(a.hi)))
        edges = (-math.inf,) + self.breakpoints + (math.inf,)
        for i, value in enumerate(self.between_values):
            if min(edges[i + 1], a.hi) > max(edges[i], a.lo):
                candidates.append(abs(value))
        for t, value in zip(self.breakpoints, self.at_values):
            if a.contains(t):
                candidates.append(abs(value))
        return max(candidates)


def kolmogorov_integral(f: StepFunction, mu: AdditiveIF, a: Interval) -> np.ndarray:
    """Integral of the step function ``f`` against the additive ``mu`` on ``a``.

    Atoms contribute ``f(t) * jump``; each density piece contributes the
    rate scaled by the integral of ``f`` over the overlap, evaluated
    segment by segment between the breakpoints of ``f``.  Satisfies
    ``matrix_norm(result) <= f.sup_abs(a) * mu.variation(a)``.
    """
    total = np.zeros((mu.dim, mu.dim))
    for t, jump in mu.atoms:
        if a.contains(t):
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
    only on the atoms it contains, so each range of atom indices is
    evaluated once; with one, every cell is evaluated.
    """
    v = mu.variation(a)
    rhs = math.exp(v) * v
    eye = np.eye(mu.dim)

    def deviation(cell):
        return matrix_norm(product_integral(mu, cell) - eye)

    lhs = 0.0
    if mu.density:
        for part in refinement_partitions(mu.support, a, depths):
            lhs = max(lhs, sum(map(deviation, part.cells)))
    else:
        schedule = refinement_cells(mu.support, a, depths).since(1)
        cells, classes = schedule.classes(*schedule.ranges([t for t, _ in mu.atoms]))
        values = np.array([deviation(cell) for cell in cells])
        for total in schedule.sums(values, classes):
            lhs = max(lhs, total)
    return BoundCheck(lhs, rhs, lhs <= rhs + 1e-12)
