"""The tick-indexed path-space queries and the defect suites, which evaluate
one term per tick-column pair, agree exactly with the per-path and per-cell
references."""

import numpy as np
from hypothesis import given, settings, strategies as st

from prodint import (
    Interval,
    Partition,
    PathSpace,
    StatePath,
    defect_profile,
    exact_pathspace,
    forced_exit_scenario,
    illness_death_scenario,
    refinement_partitions,
)
from prodint.checks import (
    count_mean_defect_checks,
    hazard_defect_checks,
    hazard_defect_table,
    random_scenario,
    random_subinterval,
)
from prodint import interval_functions, multistate
from prodint.simulation import RULE_KINDS

from corpora import random_corpus
import reference_impl

# ticks of the generator's grid, points between them (dyadic and not), 0 and tau
PROBE_TIMES = (0.0, 0.25, 0.3, 0.5, 1.0, 1.25, 1.7, 2.0, 2.5, 3.0, 3.5, 3.9, 4.0)
VARIANTS = ("plain", "progressive", "forced_exit")


@st.composite
def random_spaces(draw):
    """Laws from the generator `verify` uses, for every rule kind and variant."""
    kind = draw(st.sampled_from(RULE_KINDS))
    variant = draw(st.sampled_from(VARIANTS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    flags = {"progressive": variant == "progressive", "forced_exit": variant == "forced_exit"}
    scenario = random_scenario(rng, **flags)
    while scenario.rule != kind:
        scenario = random_scenario(rng, **flags)
    return exact_pathspace(scenario)


@st.composite
def weighted_spaces(draw):
    """Hand-drawn paths with non-dyadic weights, where the order in which
    weights are added shows in the last bits of every sum.  Sometimes no
    path jumps at one of the grid ticks."""
    dim = draw(st.integers(2, 4))
    grid = tuple(sorted(draw(st.sets(st.sampled_from([0.5, 1.0, 1.5, 2.5, 4.0]), min_size=1))))
    quiet = draw(st.none() | st.sampled_from(grid))
    paths = []
    for _ in range(draw(st.integers(1, 12))):
        state = draw(st.integers(1, dim))
        initial, jumps = state, []
        for t in grid:
            if t != quiet and draw(st.booleans()):
                state = draw(st.sampled_from([s for s in range(1, dim + 1) if s != state]))
                jumps.append((t, state))
        paths.append(StatePath(initial, tuple(jumps)))
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=len(paths), max_size=len(paths)))
    total = sum(raw)
    return PathSpace(dim, 4.0, tuple((p, x / total) for p, x in zip(paths, raw)), grid=grid)


def probe_intervals(rng, tau):
    """Random subintervals (all four shapes and points), off-grid endpoints,
    the whole window and singletons at every probe time."""
    intervals = [random_subinterval(rng, tau) for _ in range(12)]
    for lo, hi in ((0.0, tau), (0.3, 1.7), (1.25, 3.9), (0.0, 0.3)):
        for lo_closed in (False, True):
            for hi_closed in (False, True):
                intervals.append(Interval(lo, hi, lo_closed, hi_closed))
    intervals += [Interval.point(t) for t in PROBE_TIMES]
    return intervals


def pairs(dim):
    return [(j, k) for j in range(1, dim + 1) for k in range(1, dim + 1)]


@settings(max_examples=300, deadline=None)
@given(random_spaces() | weighted_spaces(), st.integers(0, 2**32 - 1))
def test_queries_match_per_path_scans(ps, seed):
    for t in PROBE_TIMES:
        for side in ("right", "left"):
            expected = [reference_impl.occupation(ps, j, t, side) for j in range(1, ps.dim + 1)]
            assert np.array_equal(ps.occupation_vector(t, side), expected)
            assert [ps.occupation(j, t, side) for j in range(1, ps.dim + 1)] == expected

    for a in probe_intervals(np.random.default_rng(seed), ps.tau):
        matrix = ps.transition_matrix(a)
        indicators = ps.indicator_matrix(a)
        assert np.array_equal(np.diag(indicators), np.zeros(ps.dim))
        for j, k in pairs(ps.dim):
            expected = reference_impl.transition(ps, j, k, a)
            assert ps.transition(j, k, a) == expected == matrix[j - 1, k - 1]
            if j == k:
                continue
            expected = reference_impl.indicator_mean(ps, j, k, a)
            assert ps.indicator_mean(j, k, a) == expected == indicators[j - 1, k - 1]

    for u in sorted(set(PROBE_TIMES + ps.grid + (ps.tau,))):
        assert np.array_equal(ps.jump_mass(u), reference_impl.jump_mass(ps, u))

    for j, k in pairs(ps.dim):
        if j == k:
            continue
        fast, slow = ps.counting_mean_if(j, k), reference_impl.counting_mean_if(ps, j, k)
        assert [t for t, _ in fast.atoms] == [t for t, _ in slow.atoms]
        assert all(np.array_equal(x, y) for (_, x), (_, y) in zip(fast.atoms, slow.atoms))


@settings(max_examples=100, deadline=None)
@given(random_spaces() | weighted_spaces(), st.integers(0, 3))
def test_count_mean_defect_matches_per_pair_profiles(ps, depths):
    fast = count_mean_defect_checks(ps, depths=depths, label="x")
    assert fast == reference_impl.count_mean_defect_checks(ps, depths=depths, label="x")


def per_cell_hazard_profile(ps, depths):
    window = Interval.open_closed(0.0, ps.tau)
    return defect_profile(ps.transition_deviation_if(), ps.hazard_matrix(), window, depths)


@settings(max_examples=100, deadline=None)
@given(random_spaces() | weighted_spaces(), st.integers(0, 3))
def test_hazard_profile_matches_per_cell_profile(ps, depths):
    assert hazard_defect_table(ps, depths) == per_cell_hazard_profile(ps, depths)


def test_count_mean_defect_at_default_depth():
    for scenario in (illness_death_scenario(), forced_exit_scenario()):
        ps = exact_pathspace(scenario)
        assert count_mean_defect_checks(ps) == reference_impl.count_mean_defect_checks(ps)


def test_hazard_profile_at_default_depth():
    for scenario in (illness_death_scenario(), forced_exit_scenario()):
        ps = exact_pathspace(scenario)
        assert hazard_defect_table(ps) == per_cell_hazard_profile(ps, 6)


def test_quiet_tick_gives_distinct_pairs_with_equal_terms():
    # no path jumps at t = 2, so these cells read different column pairs
    # although their transition matrices and hazard atoms agree
    paths = (
        (StatePath(1, ((1.0, 2), (3.0, 3))), 0.3),
        (StatePath(1, ((3.0, 2),)), 0.2),
        (StatePath(2, ((1.0, 1),)), 0.5),
    )
    ps = PathSpace(3, 4.0, paths, grid=(1.0, 2.0, 3.0))
    a, b = Interval.open_closed(1.0, 1.5), Interval.open_closed(1.0, 2.5)
    assert ps.columns(a) != ps.columns(b)
    f, hazard = ps.transition_deviation_if(), ps.hazard_matrix()
    assert np.array_equal(f(a) - hazard(a), f(b) - hazard(b))
    for depths in range(7):
        assert hazard_defect_table(ps, depths) == per_cell_hazard_profile(ps, depths)
        assert count_mean_defect_checks(ps, depths) == reference_impl.count_mean_defect_checks(
            ps, depths
        )


def test_defect_suites_evaluate_each_column_pair_once(monkeypatch):
    spaces = [exact_pathspace(illness_death_scenario()), exact_pathspace(forced_exit_scenario())]
    spaces += random_corpus(np.random.default_rng(3), 6)
    seen = []

    def recording(query):
        def wrapper(self, a):
            seen.append(self.columns(a))
            return query(self, a)

        return wrapper

    monkeypatch.setattr(PathSpace, "transition_matrix", recording(PathSpace.transition_matrix))
    monkeypatch.setattr(PathSpace, "indicator_matrix", recording(PathSpace.indicator_matrix))
    for ps in spaces:
        window = Interval.open_closed(0.0, ps.tau)
        schedule = [Partition((window,))] + list(refinement_partitions(ps.event_times, window, 6))
        # the hazard profile reads every partition, the count-mean suite the deepest
        suites = ((hazard_defect_checks, schedule), (count_mean_defect_checks, schedule[-1:]))
        for suite, partitions in suites:
            seen.clear()
            suite(ps)
            pairs_in_schedule = {ps.columns(cell) for p in partitions for cell in p.cells}
            assert len(seen) == len(set(seen)) and set(seen) == pairs_in_schedule


def test_defect_suites_build_one_schedule_per_space(monkeypatch):
    spaces = [exact_pathspace(illness_death_scenario()), exact_pathspace(forced_exit_scenario())]
    spaces += random_corpus(np.random.default_rng(4), 6)
    built = []

    def counting(support, a, depths):
        built.append(depths)
        return refinement_partitions(support, a, depths)

    monkeypatch.setattr(multistate, "refinement_partitions", counting)
    monkeypatch.setattr(interval_functions, "refinement_partitions", counting)
    for ps in spaces:
        hazard_defect_checks(ps)
        count_mean_defect_checks(ps)
        hazard_defect_table(ps)
        window = Interval.open_closed(0.0, ps.tau)
        assert ps.refinement_schedule(6) == tuple(refinement_partitions(ps.event_times, window, 6))
    assert built == [6] * len(spaces)


def test_zero_conditioning_gives_identity_row():
    ps = exact_pathspace(forced_exit_scenario())  # state 1 empties at t = 1
    assert ps.occupation(1, 1.0) == 0.0
    for a in (Interval.open_closed(1.0, 2.0), Interval.open_open(1.0, 2.0), Interval.point(2.0)):
        for k in (1, 2):
            assert ps.transition(1, k, a) == reference_impl.transition(ps, 1, k, a)
            assert ps.transition(1, k, a) == (1.0 if k == 1 else 0.0)
        assert np.array_equal(ps.transition_matrix(a)[0], [1.0, 0.0])


def test_returned_arrays_do_not_alias_the_memo():
    ps = exact_pathspace(illness_death_scenario())
    a = Interval.open_closed(1.0, 3.0)
    queries = (
        lambda: ps.transition_matrix(a),
        lambda: ps.indicator_matrix(a),
        lambda: ps.occupation_vector(2.0),
        lambda: ps.jump_mass(2.0),
    )
    for query in queries:
        before = query()
        query()[...] = 7.0
        assert np.array_equal(query(), before)
