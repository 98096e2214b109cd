"""The one-step tables of a path space and the laws derived from them once
per space -- event times, jump masses, the hazard and counting means --
and the hazard-side verify suites built on them,
occupation floors and extinction exit masses included, agree bit for bit
with the per-path and per-event-time references,
on the generator's scenarios and on their decimal (non-dyadic)
counterparts.  An array a query hands out cannot change a later query."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prodint import HazardMatrixIF, exact_pathspace, product_integral
from prodint.checks import (
    extinction_checks,
    hazard_integral_checks,
    markov_product_checks,
    occupation_bound_checks,
    occupation_identity_checks,
    random_scenario,
    random_subinterval,
)
from prodint.interval_functions import index_range

from corpora import decimal_scenario, kernel_scenarios, random_scenarios
import reference_impl
from reference_impl import bits

PROBE_TIMES = (0.0, 0.25, 0.3, 0.5, 0.7, 1.0, 1.1, 1.9, 2.5, 3.7, 4.0)


def spaces():
    """Path spaces of the generator's scenarios and of their decimal versions."""
    return (random_scenarios() | random_scenarios().map(decimal_scenario)).map(exact_pathspace)


def atom_pairs(f):
    """The (time, matrix) atoms of the additive ``f``, in time order."""
    return list(zip(f.times, f.jumps))


def atom_bits(f):
    return bits(atom_pairs(f))


def record_bits(records):
    return [(r.name, bits(r.lhs), bits(r.rhs), bits(r.tol), r.passed, r.detail, r.kind) for r in records]


def off_diagonal_pairs(dim):
    return [(j, k) for j in range(1, dim + 1) for k in range(1, dim + 1) if j != k]


@settings(max_examples=200, deadline=None)
@given(spaces())
def test_one_step_laws_match_per_path_references(ps):
    occupation, moves = reference_impl.one_step_tables(ps)
    assert bits(ps._one_step.occupation) == bits(occupation)
    assert bits(ps._one_step.moves) == bits(moves)
    assert ps.event_times == reference_impl.event_times(ps)
    for u in sorted(set(PROBE_TIMES + ps.grid)):
        assert bits(ps.jump_mass(u)) == bits(reference_impl.jump_mass(ps, u))
    assert atom_bits(ps.hazard_matrix()) == bits(reference_impl.hazard_atoms(ps))
    counts = ps.counting_mean()
    assert counts.times == ps.event_times
    assert not np.diagonal(counts.jumps, axis1=1, axis2=2).any()
    for j, k in off_diagonal_pairs(ps.dim):
        assert atom_bits(reference_impl.entry_if(counts, j, k)) == atom_bits(reference_impl.counting_mean_if(ps, j, k))


@settings(max_examples=200, deadline=None)
@given(spaces())
def test_occupation_floors_match_one_product_integral_per_pair(ps):
    ticks = (0.0,) + ps.grid
    floors = iter(r for r in occupation_bound_checks(ps, label="instance 0") if r.name == "occupation-lower-bound")
    for j in range(1, ps.dim + 1):
        for si, s in enumerate(ticks):
            for t in ticks[si:]:
                floor = next(floors)
                lhs, rhs, ok = reference_impl.occupation_lower_bound(ps, j, s, t)
                assert floor.detail == f"instance 0 j={j} on [{s:g},{t:g}]"
                assert bits([floor.lhs, floor.rhs, floor.passed]) == bits([float(lhs), float(rhs), ok])
    assert next(floors, None) is None


@settings(max_examples=150, deadline=None)
@given(spaces())
def test_hazard_suites_match_per_record_references(ps):
    assert record_bits(occupation_identity_checks(ps, "x")) == record_bits(
        reference_impl.occupation_identity_checks(ps, "x")
    )
    assert record_bits(hazard_integral_checks(ps, "x")) == record_bits(
        reference_impl.hazard_integral_checks(ps, "x")
    )
    assert record_bits(occupation_bound_checks(ps, "x")) == record_bits(reference_impl.occupation_bound_checks(ps, "x"))


@settings(max_examples=200, deadline=None)
@given(kernel_scenarios())
def test_extinction_exits_and_hazard_integral_counts_match_references(scenario):
    # every rule kind, on a whole-number grid and a decimal one; the suite
    # reads each exit mass off the hazard's diagonal
    ps = exact_pathspace(scenario)
    expected = [
        (f"x j={j} at t={u:g}", bits(float(m[0, 0])))
        for j in range(1, ps.dim + 1)
        for u, m in atom_pairs(reference_impl.exit_hazard(ps, j))
        if reference_impl.occupation(ps, j, u) == 0.0
    ]
    assert [(r.detail, bits(r.lhs)) for r in extinction_checks(ps, "x")] == expected
    cases = list(reference_impl.hazard_integral_cases(ps))
    records = [r for r in hazard_integral_checks(ps, "x") if r.name == "hazard-integral"]
    assert [r.detail for r in records] == [f"x ({j},{k}) on {a}" for j, k, a in cases]
    for r, (j, k, a) in zip(records, cases):
        assert abs(r.lhs - reference_impl.counting_mean(ps, j, k, a)) <= 1e-15


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 8))
def test_markov_product_matches_one_subinterval_at_a_time(seed, subintervals):
    # the suite draws an instance's subintervals before building its space and
    # takes all of its gaps as one array norm
    got = markov_product_checks(np.random.default_rng(seed), count=3, subintervals=subintervals)
    expected = reference_impl.markov_product_checks(
        np.random.default_rng(seed), 3, subintervals, random_scenario, random_subinterval
    )
    assert record_bits(got) == record_bits(expected) and len(got) == 3 * subintervals


@settings(max_examples=100, deadline=None)
@given(spaces(), st.integers(0, 2**32 - 1))
def test_product_integral_depends_only_on_the_atoms_held(ps, seed):
    # markov-product computes one product integral per range of atoms
    hazard = ps.hazard_matrix()
    times = list(hazard.times)
    rng = np.random.default_rng(seed)
    by_range = {}
    for a in [random_subinterval(rng, ps.tau) for _ in range(16)]:
        start, stop = index_range(times, a)
        assert times[start:stop] == [t for t in times if a.contains(t)]
        product = bits(product_integral(hazard, a))
        assert by_range.setdefault((start, stop), product) == product


@settings(max_examples=100, deadline=None)
@given(spaces(), st.integers(0, 2**32 - 1))
def test_returned_arrays_cannot_change_later_queries(ps, seed):
    rng = np.random.default_rng(seed)
    a = random_subinterval(rng, ps.tau)
    queries = [lambda: ps.transition_matrix(a), lambda: ps.indicator_matrix(a)]
    queries += [lambda t=t: ps.occupation_vector(t) for t in PROBE_TIMES]
    queries += [lambda t=t: ps.occupation_vector(t) for t in ps.grid]
    queries += [lambda u=u: ps.jump_mass(u) for u in ps.grid]
    laws = [ps.hazard_matrix(), ps.counting_mean()]
    queries += [lambda f=f: f(a) for f in laws]
    for query in queries:
        before = bits(query())
        query()[...] = 7.0
        assert bits(query()) == before
    for f in laws:
        for matrix in f.jumps:
            with pytest.raises(ValueError):
                matrix[...] = 7.0
    for table in ps._one_step:
        with pytest.raises(ValueError):
            table[...] = 0
    assert ps.hazard_matrix() is laws[0] and ps.counting_mean() is laws[-1]


@settings(max_examples=200, deadline=None)
@given(random_scenarios())
def test_decimal_scenarios_give_laws_whose_weights_sum_to_one(scenario):
    ps = exact_pathspace(decimal_scenario(scenario))  # the constructor checks the sum within 1e-12
    assert abs(math.fsum(ps.weights.tolist()) - 1.0) <= 1e-12
    for row in ps._one_step.occupation:
        assert abs(math.fsum(row.tolist()) - 1.0) <= 1e-12
    # the decimal scenario keeps every path of the dyadic one
    assert np.array_equal(ps.states, exact_pathspace(scenario).states)


def state_one_extinctions(ps):
    """The extinction-exit records of state 1."""
    return [r for r in extinction_checks(ps, label="instance 0") if r.detail.startswith("instance 0 j=1 ")]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.booleans())
def test_forced_exit_always_empties_state_one(seed, progressive, decimal):
    scenario = random_scenario(np.random.default_rng(seed), forced_exit=True, progressive=progressive)
    if decimal:
        scenario = decimal_scenario(scenario)
    ps = exact_pathspace(scenario)
    last = scenario.grid[-1]
    records = state_one_extinctions(ps)
    assert records and all(r.passed for r in records)
    assert ps.occupation(1, last) == 0.0
    before = ps.occupation(1, reference_impl.tick_before(ps.grid, last))
    assert before == reference_impl.occupation(ps, 1, last, side="left")
    if before > 0.0:
        assert (records[-1].detail, records[-1].lhs) == (f"instance 0 j=1 at t={last:g}", 1.0)


def test_forced_exit_can_empty_state_one_before_the_last_grid_time():
    # a certain exit from state 1 at t = 1.5 empties it before the planted
    # one at the last grid time, so the boundary lies at 1.5
    scenario = random_scenario(np.random.default_rng(9), forced_exit=True, progressive=True)
    ps = exact_pathspace(scenario)
    assert scenario.grid[-1] == 3.0
    assert ps.occupation(1, reference_impl.tick_before(ps.grid, 3.0)) == 0.0 == reference_impl.occupation(
        ps, 1, 3.0, side="left"
    )
    assert [(r.detail, r.lhs) for r in state_one_extinctions(ps)] == [("instance 0 j=1 at t=1.5", 1.0)]


@pytest.mark.parametrize(
    "second, message",
    [
        ([[-0.5, 0.5], [-0.1, 0.1]], "negative off-diagonal hazard at 2.0"),
        ([[-1.5, 1.5], [0.0, 0.0]], "instantaneous exit mass above 1 at 2.0"),
        ([[0.0, 0.5], [0.0, 0.0]], "hazard rows must sum to zero at 2.0"),
    ],
)
def test_hazard_matrix_checks_name_the_first_bad_atom(second, message):
    good = [[-0.5, 0.5], [0.0, 0.0]]
    with pytest.raises(ValueError, match=f"^{message}$"):
        HazardMatrixIF(2, (1.0, 2.0, 3.0), (good, second, [[-2.0, 2.0], [0.0, 0.0]]))
    assert HazardMatrixIF(2, (1.0,), (good,)).times[0] == 1.0


HAZARD_MESSAGES = (
    "negative off-diagonal hazard at {}",
    "instantaneous exit mass above 1 at {}",
    "hazard rows must sum to zero at {}",
)


def first_hazard_failure(atoms):
    """The message of the first check the first bad atom fails, one atom at a time."""
    for t, step in atoms:
        off = step - np.diag(np.diag(step))
        failed = [(off < 0.0).any(), (off.sum(axis=1) > 1.0 + 1e-12).any(), (np.abs(step.sum(axis=1)) > 1e-12).any()]
        if any(failed):
            return HAZARD_MESSAGES[failed.index(True)].format(t)
    return None


@st.composite
def hazard_atoms(draw):
    """Up to five hazard atoms on sixteenths, some spoilt in one of three ways."""
    dim = draw(st.integers(1, 4))
    atoms = []
    for i in range(draw(st.integers(0, 5))):
        off = np.array(draw(st.lists(st.integers(0, 16 // dim), min_size=dim * dim, max_size=dim * dim)))
        step = off.reshape(dim, dim) / 16.0
        np.fill_diagonal(step, 0.0)
        np.fill_diagonal(step, -step.sum(axis=1))
        j, k = draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1))
        spoil = draw(st.sampled_from(["none", "none", "negative", "exit", "row sum"]))
        if spoil == "negative" and j != k:
            step[j, k] = -0.25
        elif spoil == "exit" and j != k:
            step[j, k] += 1.5
            step[j, j] -= 1.5
        elif spoil == "row sum":
            step[j, k] += 0.125
        atoms.append((1.0 + i, step))
    return dim, atoms


@settings(max_examples=300, deadline=None)
@given(hazard_atoms())
def test_hazard_checks_raise_at_the_first_bad_atom(case):
    dim, atoms = case
    expected = first_hazard_failure(atoms)
    if expected is None:
        hazard = HazardMatrixIF(dim, [t for t, _ in atoms], [step for _, step in atoms])
        assert all(np.array_equal(m, step) and not m.flags.writeable for m, (_, step) in zip(hazard.jumps, atoms))
    else:
        with pytest.raises(ValueError, match=f"^{expected}$"):
            HazardMatrixIF(dim, [t for t, _ in atoms], [step for _, step in atoms])


def test_hazard_is_built_once_per_space():
    ps = exact_pathspace(random_scenario(np.random.default_rng(5)))
    assert ps.hazard_matrix() is ps.hazard_matrix()
