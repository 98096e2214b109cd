import re

import numpy as np
import pytest

from prodint import (
    Interval,
    EventHistory,
    PathSpace,
    exact_pathspace,
    product_integral,
)
from prodint.checks import SUITES, SuiteInputs, extinction_checks, occupation_bound_checks
from prodint.interval_functions import product_integral_sweep

import oracle_enum
from corpora import forced_exit_scenario, two_state_scenario
from reference_impl import counting_mean, jump_at, state_at, state_before, tick_before

OC = Interval.open_closed
OO = Interval.open_open
CO = Interval.closed_open
CC = Interval.closed
PT = Interval.point

SHAPES = (OC, OO, CO, CC)


class TestStatePath:
    """Lookups on a path of states, held as an ``EventHistory``."""

    def test_right_continuous_lookup(self):
        path = EventHistory(0, 1, ((1.0, 2), (3.0, 3)))
        assert state_at(path, 0.0) == 1
        assert state_at(path, 1.0) == 2
        assert state_before(path, 1.0) == 1
        assert state_before(path, 0.0) == 1
        assert state_at(path, 3.0) == 3

    def test_jump_lookup(self):
        path = EventHistory(0, 1, ((1.0, 2), (3.0, 3)))
        assert jump_at(path, 1.0) == (1, 2)
        assert jump_at(path, 2.0) is None


def two_path_space(states=((1, 1), (1, 2)), weights=(0.5, 0.5), grid=(1.0,), dim=2, tau=2.0):
    return PathSpace(dim, tau, grid, np.array(states), np.array(weights))


class TestPathSpaceValidation:
    def test_accepts_a_valid_law(self):
        ps = two_path_space()
        assert ps.event_times == (1.0,)
        assert not ps.states.flags.writeable and not ps.weights.flags.writeable

    def test_rejects_unnormalized_weights(self):
        with pytest.raises(ValueError, match="sum to"):
            PathSpace(2, 1.0, (), np.array([[1]]), np.array([0.5]))

    def test_rejects_state_beyond_dim(self):
        with pytest.raises(ValueError, match="1..1"):
            two_path_space(((1, 1), (1, 2)), dim=1)

    @pytest.mark.parametrize(
        "states, match",
        [
            (((0, 1), (1, 2)), "1..2"),
            (((1, 1, 2), (1, 2, 2)), "tick columns"),
            ((1, 2), "2-D integer"),
            (((1.0, 1.0), (1.0, 2.0)), "2-D integer"),
        ],
    )
    def test_rejects_bad_state_matrix(self, states, match):
        with pytest.raises(ValueError, match=match):
            two_path_space(states)

    def test_rejects_zero_paths(self):
        with pytest.raises(ValueError, match="at least one path"):
            PathSpace(2, 2.0, (1.0,), np.empty((0, 2), dtype=int), np.empty(0))

    def test_rejects_weight_length_mismatch(self):
        with pytest.raises(ValueError, match="one weight per path"):
            two_path_space(weights=(0.25, 0.25, 0.5))

    @pytest.mark.parametrize("bad", [0.0, -1.0, float("inf"), float("nan")])
    def test_rejects_non_positive_or_non_finite_weight(self, bad):
        with pytest.raises(ValueError, match=f"weight 1 is {bad!r}"):
            PathSpace(3, 1.0, (), np.array([[1], [2], [3]]), np.array([1.0, bad, 0.5]))

    @pytest.mark.parametrize("tau", [float("nan"), -1.0, 0.0, float("inf")])
    def test_rejects_bad_tau(self, tau):
        # with no grid time to bound, a bad tau once surfaced only inside a suite
        with pytest.raises(ValueError, match=re.escape(f"tau must be a positive finite time, got {tau!r}")):
            PathSpace(2, tau, (), np.array([[1], [2]]), np.array([0.5, 0.5]))

    def test_rejects_tau_where_midpoints_overflow(self):
        with pytest.raises(ValueError, match=r"^tau must be below 2\*\*1023, .* got 1\.7e\+308$"):
            PathSpace(2, 1.7e308, (1e308,), np.array([[1, 1], [1, 2]]), np.array([0.5, 0.5]))

    @pytest.mark.parametrize("grid", [(1.0, 1.0), (1.5, 1.0), (0.0,), (3.0,), (float("nan"),)])
    def test_rejects_bad_grid(self, grid):
        with pytest.raises(ValueError, match="grid times"):
            two_path_space(tuple((1,) * (1 + len(grid)) for _ in range(2)), grid=grid)

    def test_weights_are_summed_without_rounding_drift(self):
        weights = np.full(100_000, 1e-5)
        # a running float sum misses 1 by about 1.9e-12, beyond the 1e-12 tolerance
        total = 0.0
        for w in weights.tolist():
            total += w
        assert abs(total - 1.0) > 1e-12
        ps = PathSpace(1, 1.0, (), np.ones((100_000, 1), dtype=int), weights)
        assert len(ps.paths) == 100_000

    def test_is_compared_by_identity(self):
        ps = two_path_space()
        assert ps == ps and ps != two_path_space()
        assert hash(ps) == hash(ps)

    def test_rejects_state_outside_range(self, idn_space):
        with pytest.raises(ValueError):
            idn_space.occupation(0, 1.0)


class TestOccupation:
    def test_idn_values(self, idn_space):
        assert idn_space.occupation(1, 3.0) == pytest.approx(0.25, abs=1e-12)
        # just before 3.0 is the tick 2.0
        assert idn_space.occupation(2, 2.0) == pytest.approx(0.75, abs=1e-12)

    def test_matches_enumeration_oracle(self, idn_space):
        for j in (1, 2, 3):
            for t in (0.0, 0.5, 1.0, 2.0, 2.5, 3.0):
                assert idn_space.occupation(j, t) == oracle_enum.occupation(
                    oracle_enum.IDN_PATHS, j, t
                )
                assert idn_space.occupation(j, tick_before(idn_space.grid, t)) == oracle_enum.occupation(
                    oracle_enum.IDN_PATHS, j, t, left=True
                )

    def test_total_probability(self, idn_space):
        for t in (0.0, 1.0, 1.5, 2.0, 3.0):
            assert idn_space.occupation_vector(t).sum() == pytest.approx(1.0, abs=1e-12)


class TestTransition:
    def test_idn_examples(self, idn_space):
        assert idn_space.transition_matrix(OC(1, 3))[1, 1] == pytest.approx(0.2, abs=1e-12)
        assert idn_space.transition_matrix(OC(1, 2))[1, 1] == 1.0

    def test_zero_conditioning_convention(self, idn_space):
        # nothing occupies state 3 before time 3
        row = idn_space.transition_matrix(PT(0.5))[2]
        assert row[2] == 1.0 and row[0] == 0.0

    def test_all_shapes_match_enumeration_oracle(self, idn_space):
        for make in SHAPES:
            for lo, hi in ((0.5, 1.0), (1.0, 2.0), (1.0, 3.0), (2.0, 3.0)):
                a = make(lo, hi)
                shape = (lo, hi, a.lo_closed, a.hi_closed)
                matrix = idn_space.transition_matrix(a)
                for j in (1, 2, 3):
                    for k in (1, 2, 3):
                        assert matrix[j - 1, k - 1] == oracle_enum.conditional(
                            oracle_enum.IDN_PATHS, j, k, shape
                        )

    def test_shared_identity_never_leaks(self, idn_space):
        # the calculus shares one identity per dimension; a result that can be
        # the identity itself is a copy, so writing into it changes no later result
        eye = np.eye(3)
        hazard = idn_space.hazard_matrix()  # its first atom is at 1.0
        for _ in range(2):
            results = [
                product_integral(hazard, OC(0.0, 0.5)),  # no atoms
                *product_integral_sweep(hazard, 0.0, (0.0, 0.5)),  # before the first atom
            ]
            for result in results:
                np.testing.assert_array_equal(result, eye)
                result += 1.0
            row = idn_space.transition_matrix(PT(0.5))[2]  # nothing occupies state 3 before 3.0
            np.testing.assert_array_equal(row, eye[2])
            row[:] = 5.0

    def test_rows_are_stochastic(self, idn_space):
        for a in (OC(0, 3), CC(1, 2), PT(3.0), OO(0.5, 2.5)):
            rows = idn_space.transition_matrix(a).sum(axis=1)
            np.testing.assert_allclose(rows, 1.0, atol=1e-12)


class TestCountingAndIndicatorMeans:
    def test_counting_examples(self, idn_space):
        assert counting_mean(idn_space, 1, 2, OC(0, 3)) == pytest.approx(0.75, abs=1e-12)
        assert counting_mean(idn_space, 2, 3, OC(0, 3)) == pytest.approx(0.45, abs=1e-12)
        assert counting_mean(idn_space, 1, 2, OO(2.0, 2.5)) == 0.0
        counts = idn_space.counting_mean()
        assert counts(OC(0, 3))[0, 1] == pytest.approx(0.75, abs=1e-12)
        assert counts(OC(0, 3))[1, 2] == pytest.approx(0.45, abs=1e-12)
        assert counts(OO(2.0, 2.5))[0, 1] == 0.0
        assert not np.diag(counts(OC(0, 3))).any()

    def test_indicator_examples(self, idn_space):
        assert idn_space.indicator_matrix(OC(0, 1))[0, 1] == pytest.approx(0.5, abs=1e-12)
        assert idn_space.indicator_matrix(OC(0, 3))[0, 1] == pytest.approx(0.3, abs=1e-12)

    def test_singleton_indicator_equals_count(self, idn_space):
        for t in (1.0, 2.0, 3.0):
            for j, k in ((1, 2), (2, 3), (1, 3)):
                assert idn_space.indicator_matrix(PT(t))[j - 1, k - 1] == counting_mean(
                    idn_space, j, k, PT(t)
                )


class TestHazard:
    def test_idn_atoms(self, idn_space):
        lam = idn_space.hazard_matrix()
        atoms = dict(zip(lam.times, lam.jumps))
        assert atoms[1.0][0, 1] == pytest.approx(0.5, abs=1e-12)
        assert atoms[2.0][0, 1] == pytest.approx(0.5, abs=1e-12)
        assert atoms[3.0][1, 2] == pytest.approx(0.6, abs=1e-12)
        for t, matrix in zip(lam.times, lam.jumps):
            np.testing.assert_allclose(matrix.sum(axis=1), 0.0, atol=1e-15)
            assert matrix[1, 2] == pytest.approx(
                oracle_enum.hazard_atom(oracle_enum.IDN_PATHS, 2, 3, t), abs=1e-15
            )

    def test_no_jumps_means_zero_hazard(self):
        ps = PathSpace(2, 1.0, (), np.array([[1], [2]]), np.array([0.5, 0.5]))
        assert ps.hazard_matrix().times == () and ps.hazard_matrix().jumps.shape == (0, 2, 2)

    def test_two_state_atom(self):
        ps = exact_pathspace(two_state_scenario())
        lam = ps.hazard_matrix()
        assert len(lam.times) == 1
        assert lam.jumps[0][0, 1] == 0.5

    def test_hazard_diagonal_is_minus_the_exit_total(self, idn_space):
        # the exit hazard of state 1 over (0, 3]: all of its mass leaves
        total = idn_space.hazard_matrix()(OC(0, 3))
        assert -total[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert -total[0, 0] == pytest.approx(total[0, 1:].sum(), abs=1e-12)

    @pytest.mark.parametrize("j", [0, 4])
    def test_occupation_rejects_states_outside_the_space(self, idn_space, j):
        with pytest.raises(ValueError, match=f"^state {j} outside 1..3$"):
            idn_space.occupation(j, 1.0)


def iterated_product(ps, s, t, cuts=()):
    """Occupation row at ``s`` pushed forward through the transition matrices
    of the half-open cells (t_{i-1}, t_i] of the cut sequence s < ... < t."""
    if s > t:
        raise ValueError("need s <= t")
    for earlier, later in zip(cuts, cuts[1:]):
        if not earlier < later:
            raise ValueError("cuts must be strictly increasing")
    for c in cuts:
        if not s <= c <= t:
            raise ValueError(f"cut {c} outside [{s}, {t}]")
    points = [s] + [c for c in cuts if s < c < t] + [t] if t > s else [s]
    result = ps.occupation_vector(s)
    for lo, hi in zip(points, points[1:]):
        result = result @ ps.transition_matrix(OC(lo, hi))
    return result


class TestIteratedProduct:
    def test_full_cuts_reproduce_occupation(self, idn_space):
        got = iterated_product(idn_space, 0.0, 3.0, (1.0, 2.0, 3.0))
        np.testing.assert_allclose(got, [0.25, 0.30, 0.45], atol=1e-12)

    def test_single_cell(self, idn_space):
        got = iterated_product(idn_space, 0.0, 3.0)
        np.testing.assert_allclose(got, [0.25, 0.30, 0.45], atol=1e-12)

    def test_empty_product(self, idn_space):
        np.testing.assert_allclose(
            iterated_product(idn_space, 2.0, 2.0), idn_space.occupation_vector(2.0)
        )

    def test_intermediate_cuts_also_exact(self, idn_space):
        # the iterated identity holds for any cut set, not only event times
        got = iterated_product(idn_space, 0.0, 3.0, (0.5, 2.5))
        np.testing.assert_allclose(got, [0.25, 0.30, 0.45], atol=1e-12)

    def test_rejects_unsorted_cuts(self, idn_space):
        with pytest.raises(ValueError):
            iterated_product(idn_space, 0.0, 3.0, (2.0, 1.0))
        with pytest.raises(ValueError):
            iterated_product(idn_space, 0.0, 3.0, (4.0,))


def floor(ps, j, s, t):
    """The occupation-lower-bound record of j from s to t."""
    detail = f"instance 0 j={j} on [{s:g},{t:g}]"
    records = occupation_bound_checks(ps, label="instance 0")
    (record,) = [r for r in records if r.name == "occupation-lower-bound" and r.detail == detail]
    return record


class TestOccupationLowerBound:
    def test_equality_without_inflow(self, idn_space):
        record = floor(idn_space, 1, 0.0, 3.0)
        assert record.passed
        assert record.lhs == pytest.approx(0.25, abs=1e-12)
        assert record.rhs == pytest.approx(0.25, abs=1e-12)

    def test_strict_with_inflow(self, idn_space):
        record = floor(idn_space, 2, 1.0, 3.0)
        assert record.passed
        assert record.lhs == pytest.approx(0.3, abs=1e-12)
        assert record.rhs == pytest.approx(0.2, abs=1e-12)

    def test_unoccupied_start(self, idn_space):
        record = floor(idn_space, 3, 0.0, 2.0)
        assert record.passed and record.rhs == 0.0


class TestExtinction:
    def test_idn_never_extinguishes(self, idn_space):
        assert extinction_checks(idn_space) == []

    def test_forced_exit_boundary(self):
        ps = exact_pathspace(forced_exit_scenario())
        (record,) = extinction_checks(ps, label="instance 0")
        assert record.detail == "instance 0 j=1 at t=1"
        assert record.lhs == 1.0
        assert record.passed

    @pytest.mark.parametrize("corpus", [True, False])
    def test_coverage_record_only_on_a_corpus(self, idn_space, corpus):
        # neither idn nor surv empties a state: a corpus of them lacks its extinction
        spaces = [idn_space, exact_pathspace(two_state_scenario())]
        inputs = SuiteInputs(spaces, ["idn.json", "surv.json"], np.random.default_rng(0), 0, corpus=corpus)
        records = SUITES["extinction-exit"](inputs)
        if corpus:
            (record,) = records
            assert not record.passed and record.detail == "no extinction boundary found in the corpus"
        else:
            assert records == []


class TestTransformAgreesWithProductIntegral:
    """The transition function's multiplicative transform must reproduce the
    hazard's product integral on every subinterval, Markov or not."""

    def probe(self, ps, rng, draws=12):
        from prodint import matrix_norm, multiplicative_transform, product_integral
        from prodint.checks import random_subinterval

        hazard = ps.hazard_matrix()
        transition = ps.transition_if()
        for _ in range(draws):
            a = random_subinterval(rng, tau=ps.tau)
            gap = matrix_norm(
                multiplicative_transform(transition, a) - product_integral(hazard, a)
            )
            assert gap < 1e-10, (a, gap)

    def test_on_illness_death(self, idn_space, rng):
        self.probe(idn_space, rng, draws=30)

    def test_on_random_laws(self, rng):
        from corpora import random_corpus
        from prodint.checks import hazard_defect_checks

        for ps in random_corpus(rng, 20):
            self.probe(ps, rng, draws=5)
            assert all(r.passed for r in hazard_defect_checks(ps, depths=3))


class TestSerialization:
    def test_enumerated_matches_manual(self, idn_space, idn_enumerated):
        manual = {(p.initial_state, p.jumps): w for p, w in idn_space.paths}
        produced = {(p.initial_state, p.jumps): w for p, w in idn_enumerated.paths}
        assert set(manual) == set(produced)
        for key, weight in manual.items():
            assert produced[key] == pytest.approx(weight, abs=1e-15)
