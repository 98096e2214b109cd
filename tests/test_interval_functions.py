import math
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import prodint
from prodint import (
    AdditiveIF,
    ConvergenceError,
    GeneralIF,
    HazardMatrixIF,
    Interval,
    StepFunction,
    additive_transform,
    defect_profile,
    kolmogorov_integral,
    matrix_norm,
    multiplicative_transform,
    plus_identity,
    product_integral,
    strict_transform_defect,
    variation_norm,
)
from prodint.checks import random_jump_function, random_subinterval
from prodint.interval_functions import _refinement_values, index_range, product_integral_sweep

import oracle_enum
import reference_impl
from reference_impl import Partition, bits, outcome, refinement_partitions

OC = Interval.open_closed
OO = Interval.open_open
PT = Interval.point


def scalar_atoms(*pairs):
    return AdditiveIF(1, [t for t, _ in pairs], [v for _, v in pairs])


def with_density(mu, pieces):
    """The atoms of ``mu`` plus, on a cell, each ``(start, end, rate)``
    piece's rate times its overlap with the cell: a continuous part, so a
    ``GeneralIF`` that is not step-like, with the piece edges in its
    support."""

    def evaluator(a):
        total = mu(a)
        for start, end, rate in pieces:
            overlap = min(a.hi, end) - max(a.lo, start)
            if overlap > 0:
                total += overlap * np.asarray(rate, dtype=float)
        return total

    edges = [edge for start, end, _ in pieces for edge in (start, end)]
    return GeneralIF(mu.dim, evaluator, support=tuple(sorted({*mu.support, *edges})))


def transform_bound(mu, a, depth=4):
    """(lhs, rhs, holds) of the product-variation bound as the transform-bound
    check makes it: the variation of the product integral's deviation from
    the identity against exp(V) * V, with V the exact variation of ``mu``."""
    eye = np.eye(mu.dim)
    deviation = GeneralIF(mu.dim, lambda b: product_integral(mu, b) - eye, mu.support, mu.step_like)
    lhs = variation_norm(deviation, a, depth)
    v = mu.variation(a)
    rhs = math.exp(v) * v
    return lhs, rhs, lhs <= rhs + 1e-12


def reference_bound(mu, a, depth=4, partitions=reference_impl.refinement_partitions):
    return tuple(reference_impl.check_product_variation_bound(mu, a, depth, partitions))


def p22_minus_one(ps):
    """Scalar (2,2) entry of the transition function minus one."""
    return GeneralIF(
        1, lambda a: ps.transition_matrix(a)[1:2, 1:2] - 1.0, support=ps.event_times
    )


class TestMatrixNorm:
    def test_max_row_sum(self):
        assert matrix_norm(np.array([[1.0, -2.0], [0.5, 0.25]])) == 3.0
        assert matrix_norm(np.array([[-0.5]])) == 0.5

    def test_submultiplicative(self, rng):
        for _ in range(200):
            d = int(rng.integers(1, 5))
            x = rng.normal(size=(d, d))
            y = rng.normal(size=(d, d))
            assert matrix_norm(x @ y) <= matrix_norm(x) * matrix_norm(y) + 1e-12


class TestAdditiveIF:
    def test_variation_sums_atom_norms(self):
        mu = scalar_atoms((1.0, 0.5), (2.0, 0.25))
        assert mu.variation(OC(0, 3)) == 0.75

    def test_variation_uses_absolute_values(self):
        mu = scalar_atoms((1.0, -0.5), (2.0, 0.25))
        assert mu.variation(OC(0, 3)) == 0.75
        assert mu(OC(0, 3))[0, 0] == -0.25

    def test_value_respects_endpoints(self):
        mu = scalar_atoms((1.0, 0.5))
        assert mu(OO(0, 1))[0, 0] == 0.0
        assert mu(OC(0, 1))[0, 0] == 0.5

    def test_upper_continuity_at_empty(self):
        mu = scalar_atoms((1.0, 0.5), (1.25, 0.25))
        values = [abs(mu(OO(1.0, 1.0 + eps))[0, 0]) for eps in (1.0, 0.5, 0.25, 0.125)]
        assert values == [0.25, 0.25, 0.0, 0.0]

    def test_rejects_unsorted_atoms(self):
        with pytest.raises(ValueError):
            scalar_atoms((2.0, 0.5), (1.0, 0.5))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 5), st.integers(0, 2**32 - 1))
    def test_atoms_and_rates_are_read_only_copies(self, dim, n_atoms, seed):
        rng = np.random.default_rng(seed)
        given_times = [0.5 * (i + 1) for i in range(n_atoms)]
        given_jumps = [rng.uniform(-1.0, 1.0, size=(dim, dim)) for _ in range(n_atoms)]
        mu = AdditiveIF(dim, given_times, given_jumps)
        assert mu.jumps.shape == (n_atoms, dim, dim) and not mu.jumps.flags.writeable
        assert list(mu.times) == given_times
        for matrix, original in zip(mu.jumps, given_jumps):
            assert np.array_equal(matrix, original)
            original[...] = 9.0  # the function keeps its own copy
            assert not np.array_equal(matrix, original)
            with pytest.raises(ValueError):
                matrix[...] = 7.0

    def test_rejects_a_count_of_jumps_other_than_of_times(self):
        with pytest.raises(ValueError):
            AdditiveIF(2, (1.0, 2.0), [np.eye(2)])
        with pytest.raises(ValueError):
            AdditiveIF(1, (), [[[0.5]]])

    @pytest.mark.parametrize("cls", [AdditiveIF, HazardMatrixIF])
    def test_compares_and_hashes_by_identity(self, cls):
        # it holds arrays, so a value comparison would raise for d >= 2
        step = [[-0.5, 0.5], [0.0, 0.0]]
        f, g = cls(2, (1.0,), [step]), cls(2, (1.0,), [step])
        assert f == f and f != g and hash(f) == hash(f)
        assert len({f, g}) == 2

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_matrices(self, bad):
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            AdditiveIF(2, (1.0, 2.0), ([[0.0, 0.5], [0.0, 0.0]], [[0.0, bad], [0.0, 0.0]]))


class TestAdditiveTransform:
    def test_additive_function_is_its_own_transform(self):
        mu = scalar_atoms((1.0, 0.5))
        for depth in (0, 2, 6):
            got = additive_transform(mu, OC(0, 2), max_depth=max(depth, 1))
            assert got[0, 0] == 0.5

    def test_recovers_count_mean_from_status_mean(self, idn_space):
        got = additive_transform(idn_space.indicator_if(), OC(0, 3))
        assert got[0, 1] == pytest.approx(0.75, abs=1e-12)
        assert oracle_enum.count_mean(oracle_enum.IDN_PATHS, 1, 2, (0, 3, False, True)) == 0.75

    def test_recovers_hazard_from_transition_deviation(self, idn_space):
        got = additive_transform(p22_minus_one(idn_space), OC(1, 3))
        assert got[0, 0] == pytest.approx(-0.6, abs=1e-12)

    def test_additive_across_contiguous_intervals(self, idn_space):
        f = idn_space.indicator_if()
        whole = additive_transform(f, OC(0, 3))
        parts = additive_transform(f, OC(0, 1.5)) + additive_transform(f, OC(1.5, 3))
        assert abs(whole - parts).max() < 1e-10

    def test_nonconvergent_input_raises(self):
        noisy = GeneralIF(1, lambda a: np.array([[1.0]]), support=())
        with pytest.raises(ConvergenceError) as err:
            additive_transform(noisy, OC(0, 1), max_depth=4)
        assert err.value.depth == 4
        assert err.value.last_change > 0


class TestMultiplicativeTransform:
    def test_single_atom_product(self):
        f = plus_identity(scalar_atoms((1.0, 0.5)))
        assert multiplicative_transform(f, OC(0, 2))[0, 0] == 1.5

    def test_hazard_product_reproduces_occupation(self, idn_space):
        f = plus_identity(idn_space.hazard_matrix())
        got = multiplicative_transform(f, OC(0, 3))
        np.testing.assert_allclose(got[0], [0.25, 0.30, 0.45], atol=1e-12)

    def test_transition_function_is_not_multiplicative(self, idn_space):
        window = OC(1, 3)
        transform = multiplicative_transform(idn_space.transition_if(), window)
        assert transform[1, 1] == pytest.approx(0.4, abs=1e-12)
        assert idn_space.transition_matrix(window)[1, 1] == pytest.approx(0.2, abs=1e-12)

    def test_multiplicative_over_ordered_split(self, idn_space):
        f = plus_identity(idn_space.hazard_matrix())
        whole = multiplicative_transform(f, OC(0, 3))
        split = multiplicative_transform(f, OC(0, 1.5)) @ multiplicative_transform(f, OC(1.5, 3))
        assert matrix_norm(whole - split) < 1e-10

    def test_density_converges_to_exponential(self):
        lam = with_density(AdditiveIF(1), ((0.0, 1.0, [[0.2]]),))
        got = multiplicative_transform(plus_identity(lam), OC(0, 1), tol=1e-6, max_depth=20)
        assert got[0, 0] == pytest.approx(math.exp(0.2), abs=1e-4)

    def test_stops_at_the_first_value_that_is_not_finite(self):
        # the product overflows near depth 10; it once refined on to max_depth,
        # twice the work per depth, and then reported "still moved by nan"
        doubling = GeneralIF(1, lambda a: np.array([[2.0]]), support=(1.0,), step_like=True)
        with np.errstate(over="ignore"), pytest.raises(ConvergenceError, match="is not finite at depth") as err:
            multiplicative_transform(doubling, OC(0.0, 2.0))
        assert err.value.depth <= 11
        assert not np.isfinite(err.value.last_value).all()


class TestVariationNorm:
    def test_exact_for_additive(self):
        mu = scalar_atoms((1.0, 0.5), (2.0, 0.25))
        assert variation_norm(mu, OC(0, 3), depth=0) == 0.75

    def test_monotone_in_depth(self, idn_space):
        f = p22_minus_one(idn_space)
        values = [variation_norm(f, OC(0, 3), depth=d) for d in range(5)]
        assert values == sorted(values)

    def test_frozen_sweep_value_for_transition_deviation(self, idn_space):
        # Enumerated over the Young refinement schedule: the only cell with
        # a non-unit conditional stay probability is the singleton at the
        # death time, |0.4 - 1| = 0.6.
        stay_drop = 1.0 - oracle_enum.conditional(
            oracle_enum.IDN_PATHS, 2, 2, (3.0, 3.0, True, True)
        )
        assert stay_drop == pytest.approx(0.6, abs=1e-12)
        got = variation_norm(p22_minus_one(idn_space), OC(0, 3), depth=6)
        assert got == pytest.approx(stay_drop, abs=1e-12)

    def test_frozen_sweep_value_for_ill_row(self, idn_space):
        # The full ill-state row of (transition - identity) adds the exit
        # and entry legs at the death time: |-0.6| + |0.6| = 1.2.
        def ill_row(a):
            m = idn_space.transition_matrix(a) - np.eye(3)
            out = np.zeros((3, 3))
            out[1] = m[1]
            return out

        f = GeneralIF(3, ill_row, support=idn_space.event_times)
        assert variation_norm(f, OC(0, 3), depth=6) == pytest.approx(1.2, abs=1e-12)


class TestStrictTransformDefect:
    def test_self_defect_vanishes(self):
        mu = scalar_atoms((1.0, 0.5), (2.0, 0.25))
        assert strict_transform_defect(mu, mu, OC(0, 3)) == 0.0

    def test_count_mean_defect_vanishes_once_atoms_split(self, idn_space):
        # depth 0 is the Young partition at the event times 1, 2 and 3
        defect = strict_transform_defect(
            idn_space.indicator_if(), idn_space.counting_mean(), OC(0, 3), distance=np.abs
        )
        assert defect[0, 1] == 0.0 and not defect.any()

    def test_transition_deviation_profile_decreases(self, idn_space):
        rows = defect_profile(
            idn_space.transition_deviation_if(), idn_space.hazard_matrix(), OC(0, 3), depths=6
        )
        values = [v for _, v in rows]
        assert values[0] > 1.0  # the single coarse cell is far from additive
        assert all(later <= earlier + 1e-12 for earlier, later in zip(values, values[1:]))
        assert values[-1] < 1e-10


SCHEDULE_TIMES = st.sampled_from([k * 0.25 for k in range(17)]) | st.floats(-1e3, 1e3)


def schedule_windows(ends, support, on_lo, on_hi):
    """The four shapes of the window between ``ends`` and the point at its
    left end, with support times on the edges (when drawn), inside,
    outside, or none."""
    lo, hi = sorted(ends)
    support = support + [lo] * on_lo + [hi] * on_hi
    windows = [Interval(lo, hi, lc, hc) for lc in (False, True) for hc in (False, True)]
    return windows + [PT(lo)], support


def partitions_until_narrow(schedule):
    """The partitions a schedule yields, then True if it raised ValueError
    (a cell too narrow to halve) where it stopped."""
    parts = []
    try:
        for part in schedule:
            parts.append(part)
    except ValueError:
        return parts, True
    return parts, False


class TestRefinementCells:
    """The engine walks the ``Interval`` schedule of the reference: a general
    term sees every cell and raises where the reference raises; a step-like
    term is evaluated once per support range, counted once per cell that
    holds it, and halves no cell."""

    @staticmethod
    def engine_walk(support, a, depths, step_like):
        """The (cell, multiplicity) pairs the engine combines on each
        partition, after {a}, and whether it raised; and the cells the term
        was evaluated on."""
        evaluated = []

        def term(cell):
            evaluated.append(cell)
            return cell

        values = _refinement_values(term, step_like, support, a, depths, combine=list, trivial=True)
        return (*partitions_until_narrow(values), evaluated)

    @classmethod
    def assert_walks_the_schedule(cls, support, a, depths):
        parts, raised = partitions_until_narrow(
            chain([Partition((a,))], refinement_partitions(support, a, depths))
        )
        general, general_raised, _ = cls.engine_walk(support, a, depths, False)
        assert (len(general), general_raised) == (len(parts), raised)
        for pairs, part in zip(general, parts):
            assert pairs == [(cell, 1) for cell in part.cells]
        times = sorted({t for t in support if a.contains(t)})

        def support_range(cell):
            """(support times before ``cell``, support times before or in it)."""
            before = sum(t < cell.lo or (t == cell.lo and not cell.lo_closed) for t in times)
            return before, before + sum(map(cell.contains, times))

        notional = [[a]] + list(reference_impl.notional_partitions(support, a, depths))
        step, step_raised, evaluated = cls.engine_walk(support, a, depths, True)
        assert (len(step), step_raised) == (depths + 2, False)
        ranges = list(map(support_range, evaluated))
        assert len(ranges) == len(set(ranges)) <= 2 * len(times) + 2
        for depth, pairs in enumerate(step):
            assert len(pairs) <= 2 * len(times) + 1
            # a cell the term read for the trivial partition stands for any
            # cell that holds the same support times
            cells = [support_range(cell) for cell, n in pairs for _ in range(n)]
            assert cells == list(map(support_range, notional[depth]))
            if depth < len(parts):
                assert cells == list(map(support_range, parts[depth].cells))

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(SCHEDULE_TIMES, min_size=2, max_size=2, unique=True),
        st.lists(SCHEDULE_TIMES, max_size=6),
        st.booleans(),
        st.booleans(),
        st.integers(0, 5),
    )
    def test_equals_the_interval_schedule(self, ends, support, on_lo, on_hi, depths):
        windows, support = schedule_windows(ends, support, on_lo, on_hi)
        for a in windows:
            self.assert_walks_the_schedule(support, a, depths)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(allow_nan=False, allow_infinity=False),
        st.integers(1, 300),
        st.integers(0, 2),
        st.integers(0, 9),
    )
    def test_narrow_windows_raise_at_the_same_depth(self, lo, ulps, inside, depths):
        # windows a few hundred ulps wide, where float midpoints round
        hi = lo
        for _ in range(ulps):
            hi = math.nextafter(hi, math.inf)
        if not math.isfinite(hi):
            return
        support = [lo, hi] + [0.5 * (lo + hi)] * inside
        for a in schedule_windows([lo, hi], support, False, False)[0]:
            self.assert_walks_the_schedule(support, a, depths)

    def test_narrow_cell_is_rejected_like_the_interval_schedule(self):
        a = OC(1.0, math.nextafter(1.0, 2.0))
        with pytest.raises(ValueError):
            list(refinement_partitions((), a, 1))
        # the trivial partition and the Young one come before the depth that raises
        general, raised, _ = self.engine_walk((), a, 1, False)
        assert (general, raised) == ([[(a, 1)], [(a, 1)]], True)
        # a step-like term reads the one gap, counted once per cell it stands for
        step, raised, evaluated = self.engine_walk((), a, 1, True)
        assert (step, raised, evaluated) == ([[(a, 1)], [(a, 1)], [(a, 3)]], False, [a])


def assert_same_as_reference(name, *args, step_like=False, **kwargs):
    """The library's ``name`` and the reference's give the same bits; where
    the reference's schedule holds a cell too narrow to halve, a
    ``step_like`` call gives the bits of the notional walk instead."""
    got = outcome(getattr(prodint, name), *args, **kwargs)
    expected = outcome(getattr(reference_impl, name), *args, **kwargs)
    if expected == "narrow" and step_like:
        expected = outcome(
            getattr(reference_impl, name), *args, partitions=reference_impl.notional_partitions, **kwargs
        )
    assert got == expected, name


def step_like_defect(f, target, a):
    """Whether the engine reads the defect of ``f`` against ``target`` on
    ``a`` once per support range of ``f``."""
    return f.step_like and target.step_like and {t for t in target.support if a.contains(t)} <= set(f.support)


class TestEngineMatchesIntervalReference:
    """Transforms, variation norms, defect profiles and the product bound on
    the engine equal the one-cell-at-a-time ``Interval`` walk bit for bit,
    for pure-jump functions and ones with a continuous part (the general
    path, on every cell), every window shape and points."""

    @staticmethod
    def measures(seed, support, dim):
        """A pure-jump function with atoms at ``support``, the same plus two
        density pieces (``with_density``), and a pure-jump one with atoms
        elsewhere."""
        rng = np.random.default_rng(seed)
        times = sorted(set(support))
        steps = [rng.uniform(-0.6, 0.6, size=(dim, dim)) for _ in times]
        jumps = AdditiveIF(dim, times, steps)
        lo, hi = (times[0], times[-1]) if times else (0.0, 1.0)
        lo, hi = min(lo, 0.0), max(hi, 4.0)
        rates = rng.uniform(-0.5, 0.5, size=(2, dim, dim)) / (hi - lo)
        pieces = ((lo, 0.5 * (lo + hi), rates[0]), (0.75 * hi + 0.25 * lo, hi, rates[1]))
        density = with_density(jumps, pieces)
        other = AdditiveIF(dim, (0.5 * (lo + hi) + 0.125,), (rng.uniform(-0.6, 0.6, size=(dim, dim)),))
        return jumps, density, other

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(SCHEDULE_TIMES, min_size=2, max_size=2, unique=True),
        st.lists(SCHEDULE_TIMES, max_size=5),
        st.booleans(),
        st.booleans(),
        st.integers(0, 4),
        st.integers(1, 3),
        st.integers(0, 2**32 - 1),
    )
    @example(ends=[0.0, 5e-324], support=[], on_lo=False, on_hi=False, depth=2, dim=2, seed=0)
    def test_bit_equal_to_the_interval_walk(self, ends, support, on_lo, on_hi, depth, dim, seed):
        windows, support = schedule_windows(ends, support, on_lo, on_hi)
        jumps, density, other = self.measures(seed, support, dim)
        half = 0.5 * np.eye(dim)
        for mu in (jumps, density):
            # a GeneralIF view, so that variation_norm sweeps the schedule
            view = GeneralIF(dim, mu, support=mu.support, step_like=mu.step_like)
            # half the identity on every gap cell, so every factor and term counts
            shifted = GeneralIF(dim, lambda b, mu=mu: half + mu(b), support=mu.support, step_like=mu.step_like)
            step = {"step_like": mu.step_like}
            for a in windows:
                assert_same_as_reference("additive_transform", mu, a, max_depth=depth, **step)
                assert_same_as_reference("additive_transform", view, a, max_depth=depth, **step)
                assert_same_as_reference("additive_transform", shifted, a, max_depth=depth, **step)
                assert_same_as_reference("multiplicative_transform", plus_identity(mu), a, max_depth=depth, **step)
                assert_same_as_reference("multiplicative_transform", shifted, a, max_depth=depth, **step)
                assert_same_as_reference("variation_norm", view, a, depth, **step)
                assert_same_as_reference("variation_norm", plus_identity(mu), a, depth, **step)
                halved = GeneralIF(dim, lambda b, mu=mu: 0.5 * mu(b), support=mu.support, step_like=mu.step_like)
                for target in (mu, halved, other, jumps):
                    step_defect = step_like_defect(view, target, a)
                    assert_same_as_reference("defect_profile", view, target, a, depth, step_like=step_defect)
                if mu is jumps:  # the bound reads the exact product integral, of atoms only
                    expected = outcome(reference_bound, mu, a, depth)
                    if expected == "narrow":
                        expected = outcome(reference_bound, mu, a, depth, reference_impl.notional_partitions)
                    assert outcome(transform_bound, mu, a, depth) == expected

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(SCHEDULE_TIMES, min_size=2, max_size=2, unique=True),
        st.lists(SCHEDULE_TIMES, max_size=5),
        st.integers(0, 4),
        st.integers(0, 2**32 - 1),
    )
    @example(ends=[0.0, 5e-324], support=[], depth=2, seed=0)
    def test_strict_defect_is_the_last_profile_row(self, ends, support, depth, seed):
        windows, support = schedule_windows(ends, support, True, False)
        jumps, density, other = self.measures(seed, support, 2)
        for f, target in ((jumps, reference_impl.scaled(jumps, 0.25)), (density, jumps), (jumps, other)):
            for a in windows:
                partitions = reference_impl.refinement_partitions
                if step_like_defect(f, target, a) and partitions_until_narrow(partitions(f.support, a, depth))[1]:
                    partitions = reference_impl.notional_partitions
                profile = reference_impl.defect_profile
                expected = outcome(lambda: profile(f, target, a, depth, partitions)[-1][1])
                assert outcome(strict_transform_defect, f, target, a, depth) == expected

                def entries():
                    *_, part = partitions(f.support, a, depth)
                    return reference_impl.strict_transform_defect(f, target, part, distance=np.abs)

                got = outcome(strict_transform_defect, f, target, a, depth, distance=np.abs)
                assert got == outcome(entries)


@pytest.mark.parametrize(
    "call",
    [
        lambda f, a: additive_transform(f, a, max_depth=-1),
        lambda f, a: additive_transform(f, a, tol=math.nan),
        lambda f, a: additive_transform(f, a, tol=0.0),
        lambda f, a: multiplicative_transform(plus_identity(f), a, max_depth=-1),
        lambda f, a: multiplicative_transform(plus_identity(f), a, tol=math.nan),
        lambda f, a: strict_transform_defect(f, f, a, depth=-1),
        lambda f, a: defect_profile(f, f, a, depths=-3),
        lambda f, a: variation_norm(f, a, depth=-1),
    ],
    ids=[
        "additive-depth", "additive-nan-tol", "additive-zero-tol", "multiplicative-depth",
        "multiplicative-nan-tol", "strict-defect-depth", "defect-profile-depth", "variation-depth",
    ],
)
def test_engine_refuses_a_negative_depth_or_a_tolerance_not_above_zero(call):
    # a negative depth once gave the depth-0 value or a row named "depth 0",
    # and a NaN tolerance walked all 24 depths before it raised
    f = scalar_atoms((1.0, 0.5))
    with pytest.raises(ValueError, match="depth must be nonnegative and tolerance positive"):
        call(GeneralIF(1, f, f.support, True), OC(0.0, 2.0))


class TestProductIntegral:
    def test_unit_negative_atom_extinguishes(self):
        lam = scalar_atoms((1.0, -1.0))
        assert product_integral(lam, OC(0, 2))[0, 0] == 0.0

    def test_idn_hazard_product(self, idn_space):
        got = product_integral(idn_space.hazard_matrix(), OC(0, 3))
        np.testing.assert_allclose(got[0], [0.25, 0.30, 0.45], atol=1e-12)

    def test_multiplicative_across_splits(self, rng):
        for _ in range(50):
            d = int(rng.integers(1, 4))
            times = sorted(rng.choice(np.arange(1, 12) * 0.25, size=3, replace=False))
            lam = AdditiveIF(d, times, [rng.uniform(-0.4, 0.4, size=(d, d)) for _ in times])
            cut = 1.5
            whole = product_integral(lam, OC(0, 3))
            split = product_integral(lam, OC(0, cut)) @ product_integral(lam, OC(cut, 3))
            assert matrix_norm(whole - split) < 1e-12

    def test_endpoint_closedness_matters(self):
        lam = scalar_atoms((1.0, 0.5), (2.0, 0.5))
        assert product_integral(lam, OO(1, 2))[0, 0] == 1.0
        assert product_integral(lam, Interval.closed(1, 2))[0, 0] == 2.25


class TestProductIntegralSweep:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_each_value_is_its_own_product_integral(self, seed):
        rng = np.random.default_rng(seed)
        lam = random_jump_function(rng)
        ends = sorted(rng.choice(np.arange(0, 17) * 0.25, size=int(rng.integers(1, 8))).tolist())
        lo = float(rng.choice([e for e in [0.0, 0.5, 1.0, 2.0] if e <= ends[0]]))
        for t, value in zip(ends, product_integral_sweep(lam, lo, ends)):
            expected = np.eye(lam.dim) if t == lo else product_integral(lam, OC(lo, t))
            assert reference_impl.bits(value) == reference_impl.bits(expected)

    def test_rejects_a_density_and_decreasing_times(self):
        with pytest.raises(ValueError, match="nondecreasing"):
            list(product_integral_sweep(scalar_atoms((1.0, 0.5)), 0.0, [2.0, 1.0]))
        with pytest.raises(ValueError, match="nondecreasing"):
            list(product_integral_sweep(scalar_atoms((1.0, 0.5)), 1.0, [0.5]))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_index_range_holds_the_times_inside(seed):
    rng = np.random.default_rng(seed)
    times = sorted(rng.choice(np.arange(0, 17) * 0.25, size=int(rng.integers(0, 8)), replace=False).tolist())
    a = random_subinterval(rng)
    start, stop = index_range(times, a)
    assert times[start:stop] == [t for t in times if a.contains(t)]


class TestStepFunction:
    def f(self):
        # 1 up to t=1, 3 at t=1, 2 after
        return StepFunction((1.0,), (3.0,), (1.0, 2.0))

    def test_lookup_and_limits(self):
        f = self.f()
        assert f(0.5) == 1.0 and f(1.0) == 3.0 and f(1.5) == 2.0

    def test_sup_abs(self):
        f = self.f()
        assert f.sup_abs(OO(0, 1)) == 1.0
        assert f.sup_abs(OC(0, 1)) == 3.0
        assert f.sup_abs(PT(1.0)) == 3.0
        assert f.sup_abs(OC(1, 2)) == 2.0

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            StepFunction((1.0,), (1.0, 2.0), (1.0, 2.0))
        with pytest.raises(ValueError):
            StepFunction((1.0,), (1.0,), (1.0,))


class TestKolmogorovIntegral:
    def test_unit_integrand_returns_measure(self):
        f = StepFunction((), (), (1.0,))
        mu = scalar_atoms((1.0, 0.5))
        assert kolmogorov_integral(f, mu, OC(0, 2))[0, 0] == 0.5

    def test_zero_integrand(self):
        f = StepFunction((), (), (0.0,))
        mu = scalar_atoms((1.0, 0.5), (2.0, 0.25))
        assert kolmogorov_integral(f, mu, OC(0, 3))[0, 0] == 0.0

    def test_reciprocal_occupation_times_counts_gives_hazard(self, idn_space):
        # two ill entries: 0.5 weighted at occupation 1, 0.25 at occupation 1/2
        occupation = reference_impl.left_occupation(idn_space, 1)

        def inverse(values):
            return [1.0 / v if v else 0.0 for v in values]

        reciprocal = StepFunction(occupation.breakpoints, inverse(occupation.at_values), inverse(occupation.between_values))
        got = kolmogorov_integral(reciprocal, idn_space.counting_mean(), OC(0, 3))
        assert got[0, 1] == pytest.approx(1.0, abs=1e-12)
        # multiplied through, as hazard-integral checks it: the occupation
        # against the hazard gives the counts, 0.5 + 0.25
        got = kolmogorov_integral(occupation, idn_space.hazard_matrix(), OC(0, 3))
        assert got[0, 1] == pytest.approx(0.75, abs=1e-12)

    def test_sup_bound(self, idn_space):
        f = reference_impl.left_occupation(idn_space, 2)
        mu = idn_space.hazard_matrix()
        for a in (OC(0, 3), OC(1, 3), OO(1, 3), PT(3.0)):
            value = matrix_norm(kolmogorov_integral(f, mu, a))
            assert value <= f.sup_abs(a) * mu.variation(a) + 1e-12
            # the hazard's off-diagonals are nonnegative, so entry (2, 3) of their variation is their value
            assert abs(kolmogorov_integral(f, mu, a)[1, 2]) <= f.sup_abs(a) * mu(a)[1, 2] + 1e-12


class TestProductVariationBound:
    """The transform-bound quantity: ``variation_norm`` of the product
    integral's deviation from the identity, against exp(V) * V."""

    def test_zero_function(self):
        mu = AdditiveIF(1)
        assert transform_bound(mu, OC(0, 1)) == (0.0, 0.0, True)

    def test_single_atom(self):
        mu = scalar_atoms((1.0, 0.5))
        lhs, rhs, ok = transform_bound(mu, OC(0, 2))
        assert lhs == pytest.approx(0.5)
        assert rhs == pytest.approx(0.5 * math.exp(0.5))
        assert ok

    def test_idn_hazard(self, idn_space):
        lam = idn_space.hazard_matrix()
        lhs, rhs, ok = transform_bound(lam, OC(0, 3))
        assert ok and lhs <= rhs

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(0, 4))
    def test_matches_per_cell_reference(self, seed, depths):
        rng = np.random.default_rng(seed)
        mu = random_jump_function(rng)
        for a in (OC(0.0, 4.0), random_subinterval(rng), random_subinterval(rng)):
            assert outcome(transform_bound, mu, a, depths) == outcome(reference_bound, mu, a, depths)

    def test_pure_jump_evaluates_each_atom_range_once(self):
        mu = random_jump_function(np.random.default_rng(5))
        times = mu.times
        cells = []

        def recording(a):
            cells.append(a)
            return product_integral(mu, a) - np.eye(mu.dim)

        variation_norm(GeneralIF(mu.dim, recording, mu.support, mu.step_like), OC(0.0, 4.0), 4)
        schedule = sum(len(p) for p in refinement_partitions(mu.support, OC(0.0, 4.0), 4))
        # (atoms below the cell, atoms below or inside it)
        ranges = []
        for a in cells:
            below = sum(t < a.lo or (t == a.lo and not a.lo_closed) for t in times)
            ranges.append((below, below + sum(map(a.contains, times))))
        assert len(set(ranges)) == len(ranges) < schedule

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_verify_records_are_the_reference_bound(self, seed):
        from prodint.checks import random_jump_function, random_subinterval, transform_duality_checks

        records = transform_duality_checks(np.random.default_rng(seed), count=3, subintervals=2)
        bounds = [(r.lhs, r.rhs, r.passed) for r in records if r.name == "transform-bound"]
        replay = np.random.default_rng(seed)
        expected = []
        for _ in range(3):
            mu = random_jump_function(replay)
            for _ in range(2):
                random_subinterval(replay)
            expected.append(reference_bound(mu, OC(0.0, 4.0)))
        assert bits(bounds) == bits(expected)


class TestTransformDuality:
    def test_product_equals_transform_and_inverse_recovers(self, rng):
        from prodint.checks import random_jump_function, random_subinterval

        for _ in range(25):
            mu = random_jump_function(rng)
            a = random_subinterval(rng)
            forward = multiplicative_transform(plus_identity(mu), a)
            assert matrix_norm(forward - product_integral(mu, a)) < 1e-10
            deviation = GeneralIF(
                mu.dim,
                lambda b: product_integral(mu, b) - np.eye(mu.dim),
                support=mu.support,
            )
            recovered = additive_transform(deviation, a)
            assert matrix_norm(recovered - mu(a)) < 1e-10
