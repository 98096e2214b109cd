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
    illness_death_scenario,
    plus_identity,
)
from prodint.checks import (
    count_mean_defect_checks,
    hazard_defect_checks,
    hazard_defect_table,
    random_subinterval,
    transform_duality_checks,
)
import prodint
from prodint import interval_functions

from corpora import forced_exit_scenario, random_corpus, random_scenarios
import reference_impl
from reference_impl import Partition, bits, outcome, refinement_partitions

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
        expected = [reference_impl.occupation(ps, j, t) for j in range(1, ps.dim + 1)]
        assert np.array_equal(ps.occupation_vector(t), expected)
        assert [ps.occupation(j, t) for j in range(1, ps.dim + 1)] == expected
        # just before t, the paths hold their states at the tick before it
        before = [reference_impl.occupation(ps, j, t, "left") for j in range(1, ps.dim + 1)]
        assert np.array_equal(ps.occupation_vector(reference_impl.tick_before(ps.grid, t)), before)

    for a in probe_intervals(np.random.default_rng(seed), ps.tau):
        matrix = ps.transition_matrix(a)
        indicators = ps.indicator_matrix(a)
        assert np.array_equal(np.diag(indicators), np.zeros(ps.dim))
        for j, k in pairs(ps.dim):
            assert matrix[j - 1, k - 1] == reference_impl.transition(ps, j, k, a)
            if j == k:
                continue
            assert reference_impl.indicator_mean(ps, j, k, a) == indicators[j - 1, k - 1]

    for u in sorted(set(PROBE_TIMES + ps.grid + (ps.tau,))):
        assert np.array_equal(ps.jump_mass(u), reference_impl.jump_mass(ps, u))

    counts = ps.counting_mean()
    for j, k in pairs(ps.dim):
        if j == k:
            continue
        fast, slow = reference_impl.entry_if(counts, j, k), reference_impl.counting_mean_if(ps, j, k)
        assert fast.times == slow.times
        assert all(np.array_equal(x, y) for x, y in zip(fast.jumps, slow.jumps))


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
        schedule = [Partition((window,)), *refinement_partitions(ps.event_times, window, 6)]
        # the hazard profile reads every partition, the count-mean suite the deepest
        suites = ((hazard_defect_checks, schedule), (count_mean_defect_checks, schedule[-1:]))
        for suite, partitions in suites:
            seen.clear()
            suite(ps)
            ranges = {support_range(ps, cell) for part in partitions for cell in part}
            assert len(seen) == len(set(seen)) and set(seen) == ranges


def test_defect_suites_build_one_schedule_per_space(monkeypatch):
    spaces = [exact_pathspace(illness_death_scenario()), exact_pathspace(forced_exit_scenario())]
    spaces += random_corpus(np.random.default_rng(4), 6)
    built = []
    walk = interval_functions._refinement_values

    def counting(term, step_like, support, a, depth, combine=interval_functions._cell_sum, trivial=False):
        built.append((step_like, depth, trivial))
        return walk(term, step_like, support, a, depth, combine, trivial)

    def per_cell(*args):
        raise AssertionError("no step-like term has a cell halved")

    monkeypatch.setattr(interval_functions, "_refinement_values", counting)
    monkeypatch.setattr(interval_functions, "_halvings", per_cell)
    for ps in spaces:
        built.clear()
        hazard_defect_checks(ps)
        count_mean_defect_checks(ps)
        # one step-like schedule per suite and space, to the default depth;
        # the hazard profile starts from the trivial partition
        assert built == [(True, 6, True), (True, 6, False)]
    # the transforms and the product-variation bound of pure-jump measures
    records = transform_duality_checks(np.random.default_rng(5), count=20)
    assert records and all(record.passed for record in records)
    assert built[2:] and all(step_like for step_like, _, _ in built[2:])


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
        first = {}
        for part in [Partition((window,)), *refinement_partitions(ps.event_times, window, depths)]:
            for cell in part:
                tables = bits([ps.transition_matrix(cell), ps.indicator_matrix(cell)])
                assert first.setdefault(support_range(ps, cell), tables) == tables


@settings(max_examples=100, deadline=None)
@given(random_spaces() | weighted_spaces(), st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_pathspace_functions_match_the_interval_walk(ps, depth, seed):
    transition, deviation, hazard = ps.transition_if(), ps.transition_deviation_if(), ps.hazard_matrix()
    indicator, counts = ps.indicator_if(), ps.counting_mean()
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
            assert ps.transition_matrix(a)[0, k - 1] == reference_impl.transition(ps, 1, k, a)
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
