import math
import os
import subprocess
import sys
from itertools import chain

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import prodint
from prodint import (
    AdditiveIF,
    ConvergenceError,
    GeneralIF,
    Interval,
    StepFunction,
    additive_transform,
    check_product_variation_bound,
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
from prodint.interval_functions import index_range, product_integral_sweep, refinement_runs

import oracle_enum
import reference_impl
from reference_impl import Partition, outcome, refinement_partitions

OC = Interval.open_closed
OO = Interval.open_open
PT = Interval.point


def scalar_atoms(*pairs):
    return AdditiveIF(1, tuple((t, [[v]]) for t, v in pairs))


def p22_minus_one(ps):
    """Scalar (2,2) entry of the transition function minus one."""
    return GeneralIF(
        1, lambda a: np.array([[ps.transition(2, 2, a) - 1.0]]), support=ps.event_times
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

    def test_density_integrates_length(self):
        mu = AdditiveIF(1, (), ((0.0, 2.0, [[0.25]]),))
        assert mu(OC(0.5, 1.5))[0, 0] == pytest.approx(0.25)
        assert mu.variation(OC(0, 2)) == pytest.approx(0.5)

    def test_upper_continuity_at_empty(self):
        mu = AdditiveIF(1, ((1.0, [[0.5]]),), ((0.0, 3.0, [[0.125]]),))
        values = [abs(mu(OO(1.0, 1.0 + eps))[0, 0]) for eps in (1.0, 0.5, 0.25, 0.125)]
        assert values == sorted(values, reverse=True)
        assert values[-1] < 0.02

    def test_rejects_unsorted_atoms(self):
        with pytest.raises(ValueError):
            scalar_atoms((2.0, 0.5), (1.0, 0.5))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4), st.integers(0, 5), st.integers(0, 2), st.integers(0, 2**32 - 1))
    def test_atoms_and_rates_are_read_only_copies(self, dim, n_atoms, n_pieces, seed):
        rng = np.random.default_rng(seed)
        given_atoms = [(0.5 * (i + 1), rng.uniform(-1.0, 1.0, size=(dim, dim))) for i in range(n_atoms)]
        given_pieces = [(i + 0.0, i + 0.5, rng.uniform(-1.0, 1.0, size=(dim, dim))) for i in range(n_pieces)]
        mu = AdditiveIF(dim, tuple(given_atoms), tuple(given_pieces))
        assert mu.jumps.shape == (n_atoms, dim, dim) and not mu.jumps.flags.writeable
        assert [t for t, _ in mu.atoms] == [t for t, _ in given_atoms]
        for (_, matrix), (_, original), jump in zip(mu.atoms, given_atoms, mu.jumps):
            assert np.array_equal(matrix, original) and np.array_equal(matrix, jump)
            original[...] = 9.0  # the function keeps its own copy
            assert not np.array_equal(matrix, original)
            with pytest.raises(ValueError):
                matrix[...] = 7.0
        for _, _, rate in mu.density:
            with pytest.raises(ValueError):
                rate[...] = 7.0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite_matrices(self, bad):
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            AdditiveIF(2, ((1.0, [[0.0, 0.5], [0.0, 0.0]]), (2.0, [[0.0, bad], [0.0, 0.0]])))
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            AdditiveIF(1, (), ((0.0, 1.0, [[bad]]),))


class TestAdditiveTransform:
    def test_additive_function_is_its_own_transform(self):
        mu = scalar_atoms((1.0, 0.5))
        for depth in (0, 2, 6):
            got = additive_transform(mu, OC(0, 2), max_depth=max(depth, 1))
            assert got[0, 0] == 0.5

    def test_recovers_count_mean_from_status_mean(self, idn_space):
        got = additive_transform(idn_space.indicator_mean_if(1, 2), OC(0, 3))
        assert got[0, 0] == pytest.approx(0.75, abs=1e-12)
        assert oracle_enum.count_mean(oracle_enum.IDN_PATHS, 1, 2, (0, 3, False, True)) == 0.75

    def test_recovers_hazard_from_transition_deviation(self, idn_space):
        got = additive_transform(p22_minus_one(idn_space), OC(1, 3))
        assert got[0, 0] == pytest.approx(-0.6, abs=1e-12)

    def test_additive_across_contiguous_intervals(self, idn_space):
        f = idn_space.indicator_mean_if(1, 2)
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
        assert idn_space.transition(2, 2, window) == pytest.approx(0.2, abs=1e-12)

    def test_multiplicative_over_ordered_split(self, idn_space):
        f = plus_identity(idn_space.hazard_matrix())
        whole = multiplicative_transform(f, OC(0, 3))
        split = multiplicative_transform(f, OC(0, 1.5)) @ multiplicative_transform(f, OC(1.5, 3))
        assert matrix_norm(whole - split) < 1e-10

    def test_density_converges_to_exponential(self):
        lam = AdditiveIF(1, (), ((0.0, 1.0, [[0.2]]),))
        got = multiplicative_transform(plus_identity(lam), OC(0, 1), tol=1e-6, max_depth=20)
        assert got[0, 0] == pytest.approx(math.exp(0.2), abs=1e-4)


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
            idn_space.indicator_mean_if(1, 2), idn_space.counting_mean_if(1, 2), OC(0, 3)
        )
        assert defect == 0.0

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
    """The engine's runs are the ``Interval`` schedule of the reference, cell
    by cell, and raise where it raises."""

    @staticmethod
    def assert_runs_are_the_schedule(support, a, depths):
        runs, runs_raised = partitions_until_narrow(refinement_runs(support, a, depths, trivial=True))
        parts, raised = partitions_until_narrow(
            chain([Partition((a,))], refinement_partitions(support, a, depths))
        )
        assert (len(runs), runs_raised) == (len(parts), raised)
        times = sorted({t for t in support if a.contains(t)})
        for partition, part in zip(runs, parts):
            assert [cell for run in partition for cell in run.cells()] == list(part.cells)
            assert len(partition) <= 2 * len(times) + 1
            for run in partition:
                cells = run.cells()
                assert len(cells) == run.multiplicity
                for cell in cells + [run.cell]:
                    assert [t for t in times if cell.contains(t)] == times[run.start : run.stop]

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
            self.assert_runs_are_the_schedule(support, a, depths)

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
            self.assert_runs_are_the_schedule(support, a, depths)

    def test_narrow_cell_is_rejected_like_the_interval_schedule(self):
        a = OC(1.0, math.nextafter(1.0, 2.0))
        with pytest.raises(ValueError):
            list(refinement_partitions((), a, 1))
        with pytest.raises(ValueError):
            list(refinement_runs((), a, 1))
        # the Young partition and the trivial one come before the depth that raises
        schedule = refinement_runs((), a, 1, trivial=True)
        assert [run.cell for run in next(schedule)] == [a]
        assert [run.cell for run in next(schedule)] == [a]
        with pytest.raises(ValueError):
            next(schedule)


def assert_same_as_reference(name, *args, **kwargs):
    """The library's ``name`` and the reference's give the same bits."""
    got = outcome(getattr(prodint, name), *args, **kwargs)
    assert got == outcome(getattr(reference_impl, name), *args, **kwargs), name


class TestEngineMatchesIntervalReference:
    """Transforms, variation norms, defect profiles and the product bound on
    the engine equal the one-cell-at-a-time ``Interval`` walk bit for bit,
    for pure-jump and density functions, every window shape and points."""

    @staticmethod
    def measures(seed, support, dim):
        """A pure-jump function with atoms at ``support``, the same plus two
        density pieces, and a pure-jump one with atoms elsewhere."""
        rng = np.random.default_rng(seed)
        times = sorted(set(support))
        atoms = tuple((t, rng.uniform(-0.6, 0.6, size=(dim, dim))) for t in times)
        jumps = AdditiveIF(dim, atoms)
        lo, hi = (times[0], times[-1]) if times else (0.0, 1.0)
        lo, hi = min(lo, 0.0), max(hi, 4.0)
        # rates of total mass below one, so that exp(variation) stays finite
        rates = rng.uniform(-0.5, 0.5, size=(2, dim, dim)) / (hi - lo)
        pieces = ((lo, 0.5 * (lo + hi), rates[0]), (0.75 * hi + 0.25 * lo, hi, rates[1]))
        density = AdditiveIF(dim, atoms, pieces)
        other = AdditiveIF(dim, ((0.5 * (lo + hi) + 0.125, rng.uniform(-0.6, 0.6, size=(dim, dim))),))
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
    def test_bit_equal_to_the_interval_walk(self, ends, support, on_lo, on_hi, depth, dim, seed):
        windows, support = schedule_windows(ends, support, on_lo, on_hi)
        jumps, density, other = self.measures(seed, support, dim)
        half = 0.5 * np.eye(dim)
        for mu in (jumps, density):
            # a GeneralIF view, so that variation_norm sweeps the schedule
            view = GeneralIF(dim, mu, support=mu.support, step_like=mu.step_like)
            # half the identity on every gap cell, so every factor and term counts
            shifted = GeneralIF(dim, lambda b, mu=mu: half + mu(b), support=mu.support, step_like=mu.step_like)
            for a in windows:
                assert_same_as_reference("additive_transform", mu, a, max_depth=depth)
                assert_same_as_reference("additive_transform", view, a, max_depth=depth)
                assert_same_as_reference("additive_transform", shifted, a, max_depth=depth)
                assert_same_as_reference("multiplicative_transform", plus_identity(mu), a, max_depth=depth)
                assert_same_as_reference("multiplicative_transform", shifted, a, max_depth=depth)
                assert_same_as_reference("variation_norm", view, a, depth)
                assert_same_as_reference("variation_norm", plus_identity(mu), a, depth)
                for target in (mu, mu.scale(0.5), other, jumps):
                    assert_same_as_reference("defect_profile", view, target, a, depth)
                assert_same_as_reference("check_product_variation_bound", mu, a, depth)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(SCHEDULE_TIMES, min_size=2, max_size=2, unique=True),
        st.lists(SCHEDULE_TIMES, max_size=5),
        st.integers(0, 4),
        st.integers(0, 2**32 - 1),
    )
    def test_strict_defect_is_the_last_profile_row(self, ends, support, depth, seed):
        windows, support = schedule_windows(ends, support, True, False)
        jumps, density, other = self.measures(seed, support, 2)
        for f, target in ((jumps, jumps.scale(0.25)), (density, jumps), (jumps, other)):
            for a in windows:
                expected = outcome(lambda: reference_impl.defect_profile(f, target, a, depth)[-1][1])
                assert outcome(strict_transform_defect, f, target, a, depth) == expected

                def entries():
                    *_, part = refinement_partitions(f.support, a, depth)
                    return reference_impl.strict_transform_defect(f, target, part, distance=np.abs)

                got = outcome(strict_transform_defect, f, target, a, depth, distance=np.abs)
                assert got == outcome(entries)


class TestProductIntegral:
    def test_unit_negative_atom_extinguishes(self):
        lam = scalar_atoms((1.0, -1.0))
        assert product_integral(lam, OC(0, 2))[0, 0] == 0.0

    def test_idn_hazard_product(self, idn_space):
        got = product_integral(idn_space.hazard_matrix(), OC(0, 3))
        np.testing.assert_allclose(got[0], [0.25, 0.30, 0.45], atol=1e-12)

    def test_constant_density_exponentiates(self):
        lam = AdditiveIF(1, (), ((0.0, 1.0, [[0.7]]),))
        assert product_integral(lam, OC(0, 1))[0, 0] == pytest.approx(math.exp(0.7), abs=1e-12)

    def test_scipy_is_imported_only_for_a_density(self):
        # a fresh interpreter: the command-line module alone must not load
        # scipy.linalg, and the density path must still find expm
        script = (
            "import sys\n"
            "import prodint.cli\n"
            "assert 'scipy.linalg' not in sys.modules\n"
            "from prodint import AdditiveIF, Interval, product_integral\n"
            "lam = AdditiveIF(1, (), ((0.0, 1.0, [[0.7]]),))\n"
            "print(float(product_integral(lam, Interval.open_closed(0.0, 1.0))[0, 0]))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=120
        )
        assert done.returncode == 0, done.stderr
        assert float(done.stdout) == pytest.approx(math.exp(0.7), abs=1e-12)

    def test_atom_density_interleaving(self):
        lam = AdditiveIF(1, ((1.0, [[0.5]]),), ((0.0, 2.0, [[0.25]]),))
        expected = math.exp(0.25) * 1.5 * math.exp(0.25)
        assert product_integral(lam, OC(0, 2))[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_multiplicative_across_splits(self, rng):
        for _ in range(50):
            d = int(rng.integers(1, 4))
            atoms = tuple(
                (float(t), rng.uniform(-0.4, 0.4, size=(d, d)))
                for t in sorted(rng.choice(np.arange(1, 12) * 0.25, size=3, replace=False))
            )
            lam = AdditiveIF(d, atoms)
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
        with pytest.raises(ValueError, match="pure-jump"):
            list(product_integral_sweep(AdditiveIF(1, (), ((0.0, 1.0, [[0.7]]),)), 0.0, [1.0]))
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
        assert f.left_limit(1.0) == 1.0 and f.right_limit(1.0) == 2.0

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
        from prodint.checks import left_occupation_reciprocal

        f = left_occupation_reciprocal(idn_space, 1)
        got = kolmogorov_integral(f, idn_space.counting_mean_if(1, 2), OC(0, 3))
        assert got[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_density_splits_at_breakpoints(self):
        f = StepFunction((1.0,), (5.0,), (2.0, 4.0))
        mu = AdditiveIF(1, (), ((0.0, 2.0, [[1.0]]),))
        got = kolmogorov_integral(f, mu, OC(0, 2))[0, 0]
        assert got == pytest.approx(2.0 * 1.0 + 4.0 * 1.0, abs=1e-12)

    def test_sup_bound(self, idn_space):
        from prodint.checks import left_occupation_reciprocal

        f = left_occupation_reciprocal(idn_space, 2)
        mu = idn_space.counting_mean_if(2, 3)
        for a in (OC(0, 3), OC(1, 3), OO(1, 3), PT(3.0)):
            value = matrix_norm(kolmogorov_integral(f, mu, a))
            assert value <= f.sup_abs(a) * mu.variation(a) + 1e-12


class TestProductVariationBound:
    def test_zero_function(self):
        mu = AdditiveIF(1)
        lhs, rhs, ok = check_product_variation_bound(mu, OC(0, 1))
        assert (lhs, rhs, ok) == (0.0, 0.0, True)

    def test_single_atom(self):
        mu = scalar_atoms((1.0, 0.5))
        lhs, rhs, ok = check_product_variation_bound(mu, OC(0, 2))
        assert lhs == pytest.approx(0.5)
        assert rhs == pytest.approx(0.5 * math.exp(0.5))
        assert ok

    def test_idn_hazard(self, idn_space):
        lam = idn_space.hazard_matrix()
        lhs, rhs, ok = check_product_variation_bound(lam, OC(0, 3))
        assert ok and lhs <= rhs

    @staticmethod
    def random_measure(rng, with_density):
        """A jump function as `verify` draws it, optionally with two density pieces."""
        from prodint.checks import random_jump_function

        mu = random_jump_function(rng)
        if not with_density:
            return mu
        rates = rng.uniform(-0.5, 0.5, size=(2, mu.dim, mu.dim))
        return AdditiveIF(mu.dim, mu.atoms, ((0.3, 1.75, rates[0]), (2.5, 4.0, rates[1])))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(0, 4))
    def test_matches_per_cell_reference(self, seed, with_density, depths):
        from prodint.checks import random_subinterval

        rng = np.random.default_rng(seed)
        mu = self.random_measure(rng, with_density)
        for a in (OC(0.0, 4.0), random_subinterval(rng), random_subinterval(rng)):
            expected = reference_impl.check_product_variation_bound(mu, a, depths)
            assert check_product_variation_bound(mu, a, depths) == expected

    @pytest.mark.parametrize("with_density", [False, True])
    def test_pure_jump_evaluates_each_atom_range_once(self, monkeypatch, with_density):
        import prodint.interval_functions as module

        mu = self.random_measure(np.random.default_rng(5), with_density)
        times = [t for t, _ in mu.atoms]
        cells = []

        def recording(lam, a):
            cells.append(a)
            return product_integral(lam, a)

        monkeypatch.setattr(module, "product_integral", recording)
        check_product_variation_bound(mu, OC(0.0, 4.0))
        schedule = sum(len(p) for p in refinement_partitions(mu.support, OC(0.0, 4.0), 4))
        if with_density:
            assert len(cells) == schedule
            return
        # (atoms below the cell, atoms below or inside it)
        ranges = []
        for a in cells:
            below = sum(t < a.lo or (t == a.lo and not a.lo_closed) for t in times)
            ranges.append((below, below + sum(map(a.contains, times))))
        assert len(set(ranges)) == len(ranges) < schedule


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
