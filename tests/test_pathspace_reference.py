"""The tick-indexed path-space queries, the interval functions a path space
builds and the defect suites, which evaluate one term per support range,
agree exactly with the per-path and per-cell references."""

import numpy as np
from hypothesis import given, settings, strategies as st

from prodint import (
    EventHistory,
    Interval,
    PathSpace,
    exact_pathspace,
    forced_exit_scenario,
    illness_death_scenario,
    plus_identity,
)
from prodint.checks import (
    count_mean_defect_checks,
    hazard_defect_checks,
    hazard_defect_table,
    random_subinterval,
)
import prodint
from prodint import interval_functions
from prodint.interval_functions import refinement_runs

from corpora import random_corpus, random_scenarios
import reference_impl
from reference_impl import bits, outcome

# ticks of the generator's grid, points between them (dyadic and not), 0 and tau
PROBE_TIMES = (0.0, 0.25, 0.3, 0.5, 1.0, 1.25, 1.7, 2.0, 2.5, 3.0, 3.5, 3.9, 4.0)


def random_spaces():
    return random_scenarios().map(exact_pathspace)


@st.composite
def tick_matrices(draw):
    """(dim, grid, tick rows, weights) of hand-drawn paths with non-dyadic
    weights, where the order in which weights are added shows in the last
    bits of every sum.  Sometimes no path jumps at one of the grid ticks."""
    dim = draw(st.integers(2, 4))
    grid = tuple(sorted(draw(st.sets(st.sampled_from([0.5, 1.0, 1.5, 2.5, 4.0]), min_size=1))))
    quiet = draw(st.none() | st.sampled_from(grid))
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        row = [draw(st.integers(1, dim))]
        for t in grid:
            row.append(row[-1] if t == quiet else draw(st.integers(1, dim)))
        rows.append(row)
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=len(rows), max_size=len(rows)))
    total = sum(raw)
    return dim, grid, rows, [x / total for x in raw]


def tick_space(dim, grid, rows, weights):
    return PathSpace(dim, 4.0, grid, np.array(rows), np.array(weights))


def weighted_spaces():
    return tick_matrices().map(lambda matrix: tick_space(*matrix))


@settings(max_examples=200, deadline=None)
@given(tick_matrices())
def test_paths_are_the_drawn_rows_in_order(matrix):
    dim, grid, rows, weights = matrix
    ps = tick_space(dim, grid, rows, weights)
    expected = []
    for i, (row, weight) in enumerate(zip(rows, weights)):
        jumps = tuple((t, s) for t, before, s in zip(grid, row, row[1:]) if s != before)
        expected.append((EventHistory(i, row[0], jumps), weight))
    assert list(ps.paths) == expected
    assert ps.event_times == tuple(sorted({t for path, _ in expected for t, _ in path.jumps}))


@settings(max_examples=200, deadline=None)
@given(random_scenarios())
def test_enumerated_paths_are_the_jump_walk_in_order(scenario):
    assert list(exact_pathspace(scenario).paths) == reference_impl.enumerate_paths(scenario)


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
    return reference_impl.defect_profile(ps.transition_deviation_if(), ps.hazard_matrix(), window, depths)


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
        (EventHistory(0, 1, ((1.0, 2), (3.0, 3))), 0.3),
        (EventHistory(1, 1, ((3.0, 2),)), 0.2),
        (EventHistory(2, 2, ((1.0, 1),)), 0.5),
    )
    ps = reference_impl.pathspace(3, 4.0, (1.0, 2.0, 3.0), paths)
    a, b = Interval.open_closed(1.0, 1.5), Interval.open_closed(1.0, 2.5)
    assert ps.columns(a) != ps.columns(b)
    f, hazard = ps.transition_deviation_if(), ps.hazard_matrix()
    assert np.array_equal(f(a) - hazard(a), f(b) - hazard(b))
    for depths in range(7):
        assert hazard_defect_table(ps, depths) == per_cell_hazard_profile(ps, depths)
        assert count_mean_defect_checks(ps, depths) == reference_impl.count_mean_defect_checks(
            ps, depths
        )


def support_range(ps, a):
    """(event times before ``a``, event times before or inside it)."""
    before = sum(t < a.lo or (t == a.lo and not a.lo_closed) for t in ps.event_times)
    return before, before + sum(map(a.contains, ps.event_times))


def test_defect_suites_evaluate_each_support_range_once(monkeypatch):
    spaces = [exact_pathspace(illness_death_scenario()), exact_pathspace(forced_exit_scenario())]
    spaces += random_corpus(np.random.default_rng(3), 6)
    seen = []

    def recording(query):
        def wrapper(self, a):
            seen.append(support_range(self, a))
            return query(self, a)

        return wrapper

    monkeypatch.setattr(PathSpace, "transition_matrix", recording(PathSpace.transition_matrix))
    monkeypatch.setattr(PathSpace, "indicator_matrix", recording(PathSpace.indicator_matrix))
    for ps in spaces:
        window = Interval.open_closed(0.0, ps.tau)
        schedule = list(refinement_runs(ps.event_times, window, 6, trivial=True))
        # the hazard profile reads every partition, the count-mean suite the deepest
        suites = ((hazard_defect_checks, schedule), (count_mean_defect_checks, schedule[-1:]))
        for suite, partitions in suites:
            seen.clear()
            suite(ps)
            ranges = {support_range(ps, cell) for runs in partitions for run in runs for cell in run.cells()}
            assert len(seen) == len(set(seen)) and set(seen) == ranges


def test_defect_suites_build_one_schedule_per_space(monkeypatch):
    spaces = [exact_pathspace(illness_death_scenario()), exact_pathspace(forced_exit_scenario())]
    spaces += random_corpus(np.random.default_rng(4), 6)
    built = []
    runs = interval_functions.refinement_runs

    def counting(support, a, depths, trivial=False):
        built.append((depths, trivial))
        return runs(support, a, depths, trivial)

    def per_cell(*args):
        raise AssertionError("the defect suites halve no cell one by one")

    monkeypatch.setattr(interval_functions, "refinement_runs", counting)
    monkeypatch.setattr(interval_functions, "_halvings", per_cell)
    for ps in spaces:
        built.clear()
        hazard_defect_checks(ps)
        count_mean_defect_checks(ps)
        # one run schedule per suite and space, to the default depth; the
        # hazard profile starts from the trivial partition
        assert built == [(6, True), (6, False)]


def schedule_windows(ps, seed):
    """The window of the defect suites in its four shapes, random
    subintervals and points."""
    windows = [Interval(0.0, ps.tau, lc, hc) for lc in (False, True) for hc in (True, False)]
    windows += probe_intervals(np.random.default_rng(seed), ps.tau)[:4]
    return windows + [Interval.point(0.0), Interval.point(ps.grid[0])]


@settings(max_examples=100, deadline=None)
@given(random_spaces() | weighted_spaces(), st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_cells_of_one_support_range_read_equal_tables(ps, depths, seed):
    # quiet ticks give cells of one range distinct column pairs, yet the
    # columns hold the same states
    for window in schedule_windows(ps, seed):
        for runs in refinement_runs(ps.event_times, window, depths, trivial=True):
            for run in runs:
                first = bits([ps.transition_matrix(run.cell), ps.indicator_matrix(run.cell)])
                for cell in run.cells():
                    assert support_range(ps, cell) == support_range(ps, run.cell)
                    assert bits([ps.transition_matrix(cell), ps.indicator_matrix(cell)]) == first


@settings(max_examples=100, deadline=None)
@given(random_spaces() | weighted_spaces(), st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_pathspace_functions_match_the_interval_walk(ps, depth, seed):
    transition, deviation, hazard = ps.transition_if(), ps.transition_deviation_if(), ps.hazard_matrix()
    j = 1 + seed % ps.dim
    k = 1 + j % ps.dim
    indicator, counts = ps.indicator_mean_if(j, k), ps.counting_mean_if(j, k)
    for window in schedule_windows(ps, seed):
        calls = [
            ("additive_transform", deviation, window),
            ("additive_transform", indicator, window),
            ("multiplicative_transform", transition, window),
            ("multiplicative_transform", plus_identity(hazard), window),
            ("variation_norm", deviation, window, depth),
            ("defect_profile", deviation, hazard, window, depth),
            ("defect_profile", transition, hazard, window, depth),
            ("defect_profile", indicator, counts, window, depth),
        ]
        for name, *args in calls:
            got = outcome(getattr(prodint, name), *args)
            assert got == outcome(getattr(reference_impl, name), *args), name


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
