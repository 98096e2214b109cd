"""The tick-indexed path-space queries, the interval functions a path space
builds and the defect suites, which evaluate one term per Young cell,
agree exactly with the per-path and per-cell references."""

from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from prodint import (
    EventHistory,
    Interval,
    PathSpace,
    ScenarioConfig,
    TransitionRule,
    exact_pathspace,
    exact_pathspaces,
    illness_death_scenario,
    load_scenario,
    plus_identity,
)
from prodint.checks import (
    PROFILE_DEPTHS,
    count_mean_defect_checks,
    hazard_defect_checks,
    hazard_defect_table,
    random_scenario,
    random_subinterval,
    transform_duality_checks,
)
import prodint
from prodint import interval_functions

from corpora import forced_exit_scenario, kernel_scenarios, random_corpus, random_scenarios
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


GENERATOR_FLAGS = (
    {},
    {"progressive": True},
    {"forced_exit": True},
    {"markov_only": True, "positive_occupation": True},
)
# the tests/data laws that build, and a law whose 300 states need uint16
FIXED_LAWS = [
    load_scenario(Path(__file__).parent / "data" / f"{name}.json")
    for name in ("underflow", "rounding_slack", "tiny_occupation", "duration_dependent", "close_grid", "no_moves")
] + [
    ScenarioConfig(
        300, 3.0, (1.0, 2.0), "markov", (0.5,) + (0.0,) * 298 + (0.5,),
        (TransitionRule(1.0, 1, ((300, 0.25), (2, 0.25))), TransitionRule(2.0, 300, ((1, 0.5),))),
    )
]


@st.composite
def generator_laws(draw):
    flags = draw(st.sampled_from(GENERATOR_FLAGS))
    return random_scenario(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), **flags)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        random_scenarios() | kernel_scenarios() | generator_laws() | st.sampled_from(FIXED_LAWS),
        min_size=1,
        max_size=6,
    )
)
def test_each_law_of_a_batch_is_the_law_enumerated_alone(batch):
    for scenario, ps in zip(batch, exact_pathspaces(batch), strict=True):
        # the walk keeps a path whose weight underflows to 0, which the path space drops
        walk = [(path, weight) for path, weight in reference_impl.enumerate_paths(scenario) if weight > 0.0]
        assert list(ps.paths) == [(path._replace(subject=i), weight) for i, (path, weight) in enumerate(walk)]
        alone = exact_pathspace(scenario)
        assert ps.states.dtype == alone.states.dtype == np.min_scalar_type(scenario.dim)
        assert ps.states.shape == alone.states.shape and ps.states.tobytes() == alone.states.tobytes()
        assert ps.weights.tobytes() == alone.weights.tobytes()


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
@given(random_spaces() | weighted_spaces())
def test_count_mean_defect_matches_per_pair_profiles(ps):
    # the suite takes no depth: its records are the per-pair profiles' at every depth
    fast = count_mean_defect_checks(ps, label="x")
    for depths in range(4):
        assert fast == reference_impl.count_mean_defect_checks(ps, depths=depths, label="x")


def per_cell_hazard_profile(ps, depths):
    window = Interval.open_closed(0.0, ps.tau)
    return reference_impl.defect_profile(ps.transition_deviation_if(), ps.hazard_matrix(), window, depths)


def assert_profile_holds_every_depth(ps, depths):
    """The first k + 2 rows of the hazard profile (the coarse value, then
    depths 0 to k) are the per-cell profile to depth k, for each k up to
    ``depths``."""
    table = hazard_defect_table(ps)
    assert len(table) == PROFILE_DEPTHS + 2
    for k in range(depths + 1):
        assert table[: k + 2] == per_cell_hazard_profile(ps, k)


@settings(max_examples=100, deadline=None)
@given(random_spaces() | weighted_spaces())
def test_hazard_profile_matches_per_cell_profile(ps):
    assert_profile_holds_every_depth(ps, 3)


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
    assert_profile_holds_every_depth(ps, PROFILE_DEPTHS)
    records = count_mean_defect_checks(ps)
    for depths in range(PROFILE_DEPTHS + 1):
        assert records == reference_impl.count_mean_defect_checks(ps, depths)


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
        (young,) = refinement_partitions(ps.event_times, window, 0)
        # the hazard profile reads the window, then each Young cell once;
        # the count-mean suite each Young cell once
        suites = ((hazard_defect_checks, [window, *young]), (count_mean_defect_checks, young.cells))
        for suite, cells in suites:
            seen.clear()
            suite(ps)
            assert seen == [support_range(ps, cell) for cell in cells]


def test_defect_suites_build_one_schedule_per_space(monkeypatch):
    spaces = [exact_pathspace(illness_death_scenario()), exact_pathspace(forced_exit_scenario())]
    spaces += random_corpus(np.random.default_rng(4), 6)
    built = []
    walk = interval_functions._refinement_values

    def counting(term, step_like, support, a, depth, *args):
        built.append((step_like, depth))
        return walk(term, step_like, support, a, depth, *args)

    def per_cell(*args):
        raise AssertionError("no step-like term has a cell halved")

    monkeypatch.setattr(interval_functions, "_refinement_values", counting)
    monkeypatch.setattr(interval_functions, "_halvings", per_cell)
    for ps in spaces:
        built.clear()
        hazard_defect_checks(ps)
        count_mean_defect_checks(ps)
        # one step-like schedule per suite and space: the hazard profile's
        # to its depth rows, the count-mean defect's to depth 0
        assert built == [(True, PROFILE_DEPTHS), (True, 0)]
    # the transforms and the product-variation bound of pure-jump measures
    records = transform_duality_checks(np.random.default_rng(5), count=20)
    assert records and all(record.passed for record in records)
    assert built[2:] and all(step_like for step_like, _ in built[2:])


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
            ("defect_profile", indicator, counts, window, depth),
        ]
        for name, *args in calls:
            got = outcome(getattr(prodint, name), *args)
            assert got == outcome(getattr(reference_impl, name), *args), name
        # the transition is the identity on a gap and the hazard 0, so their
        # defect is 1 there: no limit, and refused where the window has a gap
        got = reference_impl.engine_readings(transition, hazard, window, depth)["defect_profile"]
        (young,) = refinement_partitions(ps.event_times, window, 0)
        if all(cell.is_point for cell in young):
            assert got == outcome(reference_impl.defect_profile, transition, hazard, window, depth)
        else:
            assert got == "refused"


@settings(max_examples=100, deadline=None)
@given(random_spaces() | weighted_spaces(), st.integers(0, 4), st.integers(0, 2**32 - 1))
def test_every_reader_of_a_pathspace_function_is_its_young_value_or_refused(ps, depth, seed):
    transition, deviation, hazard = ps.transition_if(), ps.transition_deviation_if(), ps.hazard_matrix()
    indicator, counts = ps.indicator_if(), ps.counting_mean()
    # each is neutral on its gaps for some readers and not for the others
    pairs = ((transition, hazard), (deviation, hazard), (indicator, counts), (plus_identity(hazard), transition))
    for window in schedule_windows(ps, seed):
        for f, target in pairs:
            expected = reference_impl.young_readings(f, target, window, depth)
            assert reference_impl.engine_readings(f, target, window, depth) == expected


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
