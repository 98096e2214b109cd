"""The array sampler, its movers-only tick walk, the indexed rule lookup,
the CSV writer, the bulk CSV reader, the array Nelson-Aalen estimator and
the Aalen-Johansen product-integral sweep agree exactly with the
per-subject, full-width, csv.writer, per-row, per-jump, per-step and
rescanning references, and the per-subject censoring walk with its
rescan."""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from prodint import (
    CensoringConfig,
    EventHistory,
    EventSample,
    ScenarioConfig,
    TransitionRule,
    estimate,
    nelson_aalen,
    read_event_histories,
    simulate_sample,
    write_event_histories,
)
from prodint import estimators, simulation
from prodint.checks import random_scenario
from prodint.simulation import _observed_columns, _slot_times, _tick_states

from corpora import float_sum_exit_scenario, kernel_scenarios
import reference_impl
from reference_impl import apply_censoring, sample_path, state_at

# a small pool of times, so that subjects often jump at the same time
pooled_time = st.integers(1, 8).map(lambda k: k / 2.0)


@st.composite
def observed_samples(draw, states=3):
    """Histories with unobserved (state 0) starts, spans and re-entries."""
    n = draw(st.integers(1, 12))
    sample = []
    for i in range(n):
        state = draw(st.integers(0, states))
        initial = state
        jumps = []
        for t in sorted(draw(st.frozensets(pooled_time, max_size=5))):
            state = draw(st.sampled_from([s for s in range(states + 1) if s != state]))
            jumps.append((t, state))
        sample.append(EventHistory(i, initial, tuple(jumps)))
    return reference_impl.event_sample(sample)


@settings(max_examples=300, deadline=None)
@given(
    observed_samples(),
    st.none() | st.sampled_from([0.5, 1.25, 2.0, 3.0, 4.0]),
    st.sampled_from([None, 3, 4]),
)
def test_nelson_aalen_matches_rescan(sample, upto, dim):
    fast = nelson_aalen(sample, upto=upto, dim=dim)
    times, steps = reference_impl.nelson_aalen_rescan(sample, upto=upto, dim=dim)
    assert fast.times == times
    assert fast.jumps.shape == steps.shape
    assert np.array_equal(fast.jumps, steps)


def outcome(fn, *args, **kwargs):
    """fn's result, or the type and message of the exception it raised."""
    try:
        return fn(*args, **kwargs)
    except (ValueError, OSError) as exc:
        return type(exc), str(exc)


def same_bits(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def per_jump_estimate(sample, upto, dim):
    """The parts of ``estimate``'s grid, from the per-jump, per-step and
    per-subject references."""
    times, steps = reference_impl.nelson_aalen_per_jump(sample, upto=upto, dim=dim)
    transition = reference_impl.aalen_johansen_per_step(times, steps)
    p0, occupation = reference_impl.occupation_per_subject(sample, transition)
    return {"times": times, "hazard_steps": steps, "transition": transition, "p0": p0, "occupation": occupation}


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([3, 11]).flatmap(observed_samples),
    st.none() | st.sampled_from([0.5, 1.25, 2.0, 3.0, 4.0]),
    st.sampled_from([None, 2, 0, 3, 11, 12]),
)
# one subject, unobserved throughout: dimension 0 must fail as the reference does
@example(EventSample([0], [0], [0, 0], [], []), None, 0)
def test_estimate_matches_per_jump_reference(sample, upto, dim):
    # eleven states put more than eight entries in a row, where numpy sums
    # pairwise; a dimension below the largest state must raise alike.  The
    # transition part is aalen_johansen's product-integral sweep against the
    # running matrix product.
    fast = outcome(estimate, sample, upto=upto, dim=dim)
    slow = outcome(per_jump_estimate, sample, upto, dim)
    if isinstance(slow, tuple):
        assert fast == slow
        return
    assert (fast.dim, fast.n, fast.times) == (slow["hazard_steps"].shape[-1], len(sample), slow["times"])
    assert same_bits(fast.p0, slow["p0"])
    for part in ("hazard_steps", "transition", "occupation"):
        assert len(getattr(fast, part)) == len(slow[part])
        for a, b in zip(getattr(fast, part), slow[part]):
            assert same_bits(a, b)


# -- the bulk CSV reader against the per-row, per-subject reference ------------

HEADERS = ["subject,time,state", " subject , time,state", '"subject",time,state', "subject,time", "a,b,c"]
NEWLINES = ["\n", "\r\n", "\r"]
CHANGES = ["none", "format", "format", "pad", "swap", "line", "header", "newline"]


def int_texts(value):
    return [str(value), f"+{value}", f" {value} ", f"{value}.0", f"0{value}", f'"{value}"', f"{value}_0",
            f"{value}e0", "\u0663"]


def float_texts(value):
    return [repr(value), f"+{value!r}", f"{value:e}", f"{value!r}".replace(".", "_0."), "inf", "nan",
            "-0.0", "-1.0", repr(value + 0.5), "1" * 140_000, f'"{value!r}"', f"{value!r}j", f"0x{value}"]


# spaces the parsers may strip or refuse, and padding past the csv field limit
PADDING = ["", " ", "\t", "\x1c", "\xa0", " " * 140_000]


@st.composite
def csv_texts(draw):
    """The text of a valid sample with one or two of its fields, lines,
    header or separators changed."""
    sample = draw(observed_samples())
    ids = draw(st.lists(st.integers(-5, 10**6), min_size=len(sample), max_size=len(sample), unique=True))
    rows = []
    for history, subject in zip(sample, ids):
        rows.append([str(subject), "0.0", str(history.initial_state)])
        rows += [[str(subject), repr(t), str(s)] for t, s in history.jumps]
    if draw(st.booleans()):  # interleave the subjects' rows, keeping each one's order
        keys = draw(st.lists(st.integers(0, 3), min_size=len(rows), max_size=len(rows)))
        rows = [row for _, _, row in sorted(zip(keys, range(len(rows)), rows))]
    valid = [row[:] for row in rows]  # the unchanged texts, row for row
    header, newline, extra = HEADERS[0], "\n", []
    for change in draw(st.lists(st.sampled_from(CHANGES), min_size=1, max_size=2)):
        i = draw(st.integers(0, len(rows) - 1))
        column = draw(st.integers(0, 2))
        if change == "format" and column == 1:
            rows[i][column] = draw(st.sampled_from(float_texts(float(valid[i][column]))))
        elif change == "format":
            rows[i][column] = draw(st.sampled_from(int_texts(int(valid[i][column]))))
        elif change == "pad":
            rows[i][column] = draw(st.sampled_from(PADDING)) + rows[i][column] + draw(st.sampled_from(PADDING))
        elif change == "swap" and i + 1 < len(rows):
            rows[i], rows[i + 1] = rows[i + 1], rows[i]
            valid[i], valid[i + 1] = valid[i + 1], valid[i]
        elif change == "line":
            extra.append((i, draw(st.sampled_from(["", "  ", ",,", "1,0.0", "1,0.0,1,1", "\x00"]))))
        elif change == "header":
            header = draw(st.sampled_from(HEADERS))
        elif change == "newline":
            newline = draw(st.sampled_from(NEWLINES))
    lines = [",".join(row) for row in rows]
    for i, line in extra:
        lines.insert(i, line)
    return newline.join([header] + lines) + newline * draw(st.integers(0, 1))


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(csv_texts(), st.sampled_from([None, 2, 3]))
def test_reader_matches_per_subject_reference(tmp_path, text, max_state):
    path = tmp_path / "sample.csv"
    path.write_bytes(text.encode())
    got = outcome(read_event_histories, path, max_state=max_state)
    expected = outcome(reference_impl.read_event_histories_per_subject, path, max_state=max_state)
    assert got == expected


@pytest.mark.parametrize(
    "body",
    [
        "0,0.0,1\x1c\n",  # numpy's parser strips \x1c, Python's int does not
        "0,0.0,1\n0," + " " * 140_000 + "1.0,2\n",  # a number padded past the csv field limit
        "0,0.0,1\r0,1.0,2\r",  # lone CR line ends
        "0,0.0,1\r\n0,1.0,2\r\n",
        " 0 ,\t0.0 , +1\n0,1e0,2\n",
        "0,0.0,1\n\n0,1.0,2\n",
        '"0",0.0,1\n',
        "0,0.0,1\n0,1_0.5,2\n",
        "\u0663,0.0,1\n",
        "0,0.0,3.0\n",
        "0,0.0,1\n0,inf,2\n",
        "0,0.0,1\n0,nan,2\n",
        "0,-0.0,1\n0,0.5,1\n",
        "0,1.0,1\n",
        "7,0.0,1\n3,0.0,2\n7,2.0,3\n3,1.0,1\n7,1.0,2\n",
        # subjects in descending order, each one's rows in order: the bulk reader sorts them
        "5,0.0,1\n5,1.0,2\n2,0.0,2\n2,0.5,1\n2,1.5,3\n0,0.0,1\n",
        # a row fault comes first in file order: the negative state, not the number after it
        "0,0.0,1\n0,1.0,-2\n0,2..0,3\n",
        # faults in two subjects listed out of subject order: the lower subject's is named
        "7,0.0,1\n7,1.0,1\n3,0.0,2\n3,0.5,2\n",
        "7,0.0,1\n7,0.0,2\n3,1.0,2\n",
    ],
)
def test_reader_matches_per_subject_reference_on_edge_texts(tmp_path, body):
    path = tmp_path / "sample.csv"
    path.write_bytes(("subject,time,state\n" + body).encode())
    got = outcome(read_event_histories, path)
    assert got == outcome(reference_impl.read_event_histories_per_subject, path)


def test_bulk_reader_sorts_subjects_that_come_out_of_order():
    # the subjects descending, each one's rows in order: the bulk reader
    # itself must read them, without falling back to the row reader
    data = b"subject,time,state\n5,0.0,1\n5,1.0,2\n2,0.0,2\n2,0.5,1\n2,1.5,3\n0,0.0,1\n"
    expected = EventSample([0, 2, 5], [1, 2, 1], [0, 0, 2, 3], [0.5, 1.5, 1.0], [1, 3, 2])
    assert estimators._read_bulk(data, None) == expected


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(observed_samples())
def test_written_sample_reads_back_in_bulk(tmp_path, sample):
    path = tmp_path / "sample.csv"
    write_event_histories(path, sample)
    data = path.read_bytes()
    assert estimators._read_bulk(data, None) == sample
    assert data == reference_impl.csv_writer_text(sample).encode()


def hundred_tick_scenario():
    """Three states on the grid 1, ..., 100, each leaving for either other
    state with probability 0.02 at every tick."""
    grid = tuple(float(t) for t in range(1, 101))
    rules = tuple(
        TransitionRule(t, state, tuple((to, 0.02) for to in (1, 2, 3) if to != state))
        for t in grid
        for state in (1, 2, 3)
    )
    return ScenarioConfig(3, 100.0, grid, "markov", (0.5, 0.3, 0.2), rules)


def continuous_sample(rng, n=40):
    """Subjects in states 0 to 3, each jumping four times at continuous times."""
    initial = rng.integers(0, 4, n)
    times = np.sort(rng.uniform(0.0, 10.0, (n, 4)), axis=1)
    states = (initial[:, None] + np.cumsum(rng.integers(1, 4, (n, 4)), axis=1)) % 4
    return EventSample(np.arange(n) * 3, initial, np.arange(n + 1) * 4, times.ravel(), states.ravel())


def test_writer_matches_csv_writer_on_both_sides_of_its_cell_guard(tmp_path):
    # a grid sample has fewer (time, state) cells than jumps, and the writer
    # marks its used cells in a mask; continuous times give more cells than
    # jumps, and the writer sorts the jumps' cell codes instead
    grid = simulate_sample(hundred_tick_scenario(), CensoringConfig("state_filtering_conforming", q=0.7), 200, 5)
    continuous = continuous_sample(np.random.default_rng(5))
    for sample, masked in ((grid, True), (continuous, False)):
        cells = len(np.unique(sample.times)) * len(np.unique(sample.states))
        assert (cells <= len(sample.times)) == masked
        path = tmp_path / "sample.csv"
        assert write_event_histories(path, sample) == len(sample) + len(sample.times)
        assert path.read_bytes() == reference_impl.csv_writer_text(sample).encode()


GRID = (1.0, 2.0, 3.0, 4.0)


@st.composite
def history_scenarios(draw):
    """Non-Markov scenarios mixing default and feature-specific rules.

    Some (time, state) pairs get no rule, some only a default, some only
    feature rules and some both; a few features can never occur.
    """
    rule = draw(st.sampled_from(["entry_time_dependent", "duration_dependent"]))
    dim = draw(st.integers(2, 3))
    rules = []
    for t in GRID:
        entries = [0.0] + [g for g in GRID if g < t]
        features = entries if rule == "entry_time_dependent" else [t - e for e in entries]
        for state in range(1, dim + 1):
            targets = [s for s in range(1, dim + 1) if s != state]
            probs = ((draw(st.sampled_from(targets)), draw(st.sampled_from([0.25, 0.5]))),)
            if draw(st.booleans()):
                rules.append(TransitionRule(t, state, probs))
            whens = draw(st.frozensets(st.sampled_from(features + [0.5, 9.0]), max_size=3))
            for when in sorted(whens):
                probs = ((draw(st.sampled_from(targets)), draw(st.sampled_from([0.125, 1.0]))),)
                rules.append(TransitionRule(t, state, probs, when=when))
    rules = draw(st.permutations(rules))
    initial = (1.0,) + (0.0,) * (dim - 1)
    return ScenarioConfig(dim, GRID[-1], GRID, rule, initial, tuple(rules))


@settings(max_examples=200, deadline=None)
@given(kernel_scenarios())
def test_kernel_rows_match_rule_scan(scenario):
    # every (tick, state, entry column) reads the tables of the row the scan
    # picks; at tick column 0 every subject leaves state 0 by the initial law
    kernel = scenario.kernel
    width = kernel.cdf.shape[1]
    ticks = (0.0,) + scenario.grid
    for column, t in enumerate(ticks):
        for state in range(1, scenario.dim + 1) if column else (0,):
            for entry in range(max(column, 1)):
                if column:
                    probs = reference_impl.outgoing_scan(scenario, t, state, ticks[entry])
                else:
                    probs = tuple(enumerate(scenario.initial, start=1))
                row = kernel.rows[column, state, entry]
                pad = width - len(probs)
                targets = kernel.targets[row].tolist()
                assert targets == [0] + [to for to, _ in probs] + [0] * pad
                table = simulation._cumulative([p for _, p in probs]).tolist()
                assert kernel.cdf[row].tolist() == table + [np.inf] * pad
                moves, stay = reference_impl.branch_masses(probs)
                masses = kernel.masses[row].tolist()
                assert masses[0] == stay
                assert [(to, p) for to, p in zip(targets[1:], masses[1:]) if p > 0.0] == moves


@st.composite
def paths_on_grid(draw):
    """Paths jumping at grid times and at span edges (the midpoints)."""
    state = draw(st.integers(1, 3))
    initial = state
    jumps = []
    times = draw(st.frozensets(st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0, 3.5, 4.0]), max_size=5))
    for t in sorted(times):
        state = draw(st.sampled_from([s for s in (1, 2, 3) if s != state]))
        jumps.append((t, state))
    return EventHistory(0, initial, tuple(jumps))


@settings(max_examples=300, deadline=None)
@given(
    paths_on_grid(),
    st.sampled_from(
        [
            CensoringConfig("state_filtering_conforming", q=0.5),
            CensoringConfig("state_filtering_conforming", q=1.0),
            CensoringConfig("violating", q=0.7, delta=0.5),
            CensoringConfig("violating", q=0.9, delta=0.9),
        ]
    ),
    st.integers(0, 2**32 - 1),
)
def test_filtering_censoring_matches_rescan(path, censoring, seed):
    scenario = ScenarioConfig(3, 4.0, GRID, "markov", (1.0, 0.0, 0.0), ())
    fast_rng = np.random.default_rng(seed)
    slow_rng = np.random.default_rng(seed)
    fast = apply_censoring(fast_rng, path, scenario, censoring, subject=4)
    slow = reference_impl.filtering_censoring_rescan(slow_rng, path, scenario, censoring, subject=4)
    assert fast == slow
    # the same number of draws, so later subjects' streams are unaffected
    assert fast_rng.random() == slow_rng.random()


# -- the array sampler against the per-subject reference ----------------------


@st.composite
def generated_scenarios(draw):
    """The verify generator's scenarios: plain, progressive and forced-exit,
    each of any of the three rule kinds."""
    flavour = draw(st.sampled_from([{}, {"progressive": True}, {"forced_exit": True}]))
    return random_scenario(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), **flavour)


# censoring times on a grid (the generator's grids are dyadic, GRID is whole
# numbers), off every grid, at 0.0 and past the last grid time
CUT_TIMES = (0.0, 0.3, 0.5, 1.0, 1.75, 2.0, 2.7, 3.0, 3.5, 4.0, 5.0)


@st.composite
def censorings(draw):
    kind = draw(st.sampled_from(["none", "independent_right", "state_filtering_conforming", "violating"]))
    if kind == "none":
        return CensoringConfig(kind)
    if kind == "independent_right":
        times = draw(st.lists(st.sampled_from(CUT_TIMES), unique=True, max_size=4))
        weights = draw(st.lists(st.integers(0, 4), min_size=len(times) + 1, max_size=len(times) + 1))
        if sum(weights) == 0:
            weights[-1] = 1
        total = sum(weights)
        after = tuple((t, w / total) for t, w in zip(times, weights))
        return CensoringConfig(kind, after=after, never=weights[-1] / total)
    q = draw(st.sampled_from([0.25, 0.7, 1.0]))
    if kind == "violating":
        return CensoringConfig(kind, q=q, delta=draw(st.sampled_from([0.1, 0.5, 0.9])))
    return CensoringConfig(kind, q=q)


# seeds of one, two and three or more 32-bit words: with arm and subject, the
# last make more entropy words than SeedSequence's pool of four
seeds = st.one_of(
    st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1), st.integers(2**64, 2**100)
)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(generated_scenarios(), history_scenarios()),
    censorings(),
    st.integers(1, 25),
    seeds,
    st.integers(0, 2),
)
def test_simulate_sample_matches_per_subject_reference(scenario, censoring, n, seed, arm):
    fast = simulate_sample(scenario, censoring, n, seed, arm)
    slow = reference_impl.simulate_sample_per_subject(scenario, censoring, n, seed, arm)
    assert fast == slow


@settings(max_examples=100, deadline=None)
@given(seeds, st.integers(0, 2**33), st.integers(0, 2**32 - 4), st.integers(1, 40))
def test_block_seeding_matches_subject_rng(seed, arm, first, k):
    # subject ids up to the largest one word holds, which a test sample cannot reach
    draws = np.empty((4, k))
    simulation._fill_streams(seed, arm, first, draws)
    for offset, row in enumerate(draws):
        assert np.array_equal(row, reference_impl.subject_rng(seed, first + offset, arm).random(k))


def test_sample_does_not_depend_on_the_block_size(monkeypatch):
    scenario = random_scenario(np.random.default_rng(5), forced_exit=True)
    censoring = CensoringConfig("violating", q=0.7, delta=0.5)
    whole = simulate_sample(scenario, censoring, 10, seed=3, arm=1)
    monkeypatch.setattr(simulation, "_BLOCK_DRAWS", 1)
    assert simulate_sample(scenario, censoring, 10, seed=3, arm=1) == whole


class ChosenUniforms:
    """A stand-in generator that returns the given uniforms in order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


TOP = 1.0 - 2.0**-53  # the largest value random() returns


def boundary_uniforms(kernel):
    """0.0, TOP, and every entry of the kernel's cumulative tables below 1
    with the float just below each: the uniforms at which a pick changes,
    or a move turns into a stay."""
    entries = kernel.cdf[np.isfinite(kernel.cdf)]
    values = np.concatenate(([0.0, TOP], entries, np.nextafter(entries, 0.0)))
    return sorted({v for v in values.tolist() if 0.0 <= v <= TOP})


@st.composite
def walks(draw):
    """A kernel scenario and a matrix of its boundary uniforms, a row per
    subject and a column per tick."""
    scenario = draw(kernel_scenarios())
    shape = (draw(st.integers(1, 30)), 1 + len(scenario.grid))
    return scenario, draw(arrays(float, shape, elements=st.sampled_from(boundary_uniforms(scenario.kernel))))


def _certain_and_null_moves():
    """Rows whose table reads exactly 1, so that everyone moves, and rows
    with zero-probability entries, with every tuple of boundary uniforms."""
    scenario = ScenarioConfig(
        3, 2.0, (1.0, 2.0), "markov", (0.7, 0.2, 0.1),
        (
            TransitionRule(1.0, 1, ((2, 0.0), (3, 1.0))),
            TransitionRule(1.0, 2, ((1, 0.7), (3, 0.3))),
            TransitionRule(2.0, 3, ((1, 0.0), (2, 0.5))),
        ),
    )
    values = boundary_uniforms(scenario.kernel)
    rows = [[a, b, c] for a in values for b in values for c in values]
    return scenario, np.array(rows)


@settings(max_examples=200, deadline=None)
@given(walks())
@example(_certain_and_null_moves())
def test_movers_walk_matches_the_full_width_walk(walk):
    # only the subjects whose uniform lies below their row's last cumulative
    # entry are looked up; the others must stay as the full-width lookup has them
    scenario, u = walk
    got = _tick_states(scenario, u)
    expected = reference_impl.tick_states_full_width(scenario, u)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


def assert_core_matches_reference(scenario, rows):
    states = _tick_states(scenario, np.array(rows, dtype=float))
    ticks = (0.0,) + scenario.grid
    for row, got in zip(rows, states.tolist()):
        path = sample_path(ChosenUniforms(row), scenario)
        assert got == [state_at(path, t) for t in ticks]
    return states


def test_core_gives_the_initial_float_residual_to_the_last_state_with_mass():
    # 0.7 + 0.2 + 0.1 rounds to 1 - 2**-53, so the top uniform lies past the sum
    scenario = ScenarioConfig(4, 2.0, (1.0,), "markov", (0.7, 0.2, 0.1, 0.0), ())
    states = assert_core_matches_reference(scenario, [[TOP, 0.5], [0.0, 0.5], [0.7, 0.5], [0.9, TOP]])
    assert states.tolist() == [[3, 3], [1, 1], [2, 2], [3, 3]]
    assert states.dtype == np.uint8  # the narrowest dtype holding 0..d


def test_core_gives_a_row_float_residual_to_its_last_target():
    # the exit row 0.7 + 0.2 + 0.1 also adds up to TOP, so nobody stays in state 1
    scenario = float_sum_exit_scenario()
    states = assert_core_matches_reference(scenario, [[0.0, TOP], [0.0, 0.0], [0.0, 0.7], [0.0, 0.9]])
    assert states.tolist() == [[1, 4], [1, 2], [1, 3], [1, 4]]


def test_core_forces_the_duration_rule_exit():
    scenario = ScenarioConfig(
        2, 2.0, (1.0, 2.0), "duration_dependent", (1.0, 0.0),
        (
            TransitionRule(1.0, 1, ((2, 1.0),), when=1.0),
            TransitionRule(2.0, 2, ((1, 1.0),), when=1.0),
        ),
    )
    states = assert_core_matches_reference(scenario, [[0.0, 0.0, 0.0], [TOP, TOP, TOP], [0.5, 0.3, 0.9]])
    assert states.tolist() == [[1, 2, 1]] * 3


@pytest.mark.parametrize("rule", ["markov", "entry_time_dependent", "duration_dependent"])
def test_core_draws_at_the_cumulative_boundaries(rule):
    # a uniform equal to a cumulative probability falls to the next outcome
    when = None if rule == "markov" else 0.0 if rule == "entry_time_dependent" else 1.0
    scenario = ScenarioConfig(
        3, 2.0, (1.0, 2.0), rule, (0.25, 0.75, 0.0),
        (
            TransitionRule(1.0, 1, ((2, 0.0), (3, 0.5))),
            TransitionRule(1.0, 2, ((1, 0.25), (3, 0.5)), when=when),
            TransitionRule(2.0, 3, ((1, 0.125),)),
        ),
    )
    uniforms = (0.0, 0.125, 0.25, 0.5, 0.75, TOP)
    rows = [[a, b, c] for a in uniforms for b in uniforms for c in uniforms]
    assert_core_matches_reference(scenario, rows)


@pytest.mark.parametrize(
    "censoring",
    [
        CensoringConfig("state_filtering_conforming", q=0.5),
        CensoringConfig("violating", q=0.5, delta=0.5),
        CensoringConfig("independent_right", after=((0.0, 0.25), (1.5, 0.25)), never=0.5),
    ],
)
def test_censoring_core_at_the_observation_boundaries(censoring):
    # uniforms equal to q, q * (1 - delta) or a cumulative censoring
    # probability fall on the unobserved side, as the scalar walk has it
    scenario = ScenarioConfig(3, 3.0, (1.0, 2.0, 3.0), "markov", (1.0, 0.0, 0.0), ())
    paths = [
        EventHistory(0, 1, ()),
        EventHistory(1, 1, ((1.0, 2), (3.0, 3))),
        EventHistory(2, 2, ((2.0, 1),)),
    ]
    states = np.array([[state_at(p, t) for t in (0.0,) + scenario.grid] for p in paths])
    uniforms = (0.0, 0.25, 0.5, TOP)
    rows = [[uniforms[(i + j * r) % 4] for j in range(4)] for r in range(4) for i in range(4)]
    width = 1 if censoring.kind == "independent_right" else 4
    for path, path_states in zip(paths, states):
        for row in rows:
            row = row[:width]
            initial, count, times, states = _observed_columns(
                censoring, _slot_times(scenario.grid, censoring), path_states[None, :], np.array([row])
            )
            [got] = EventSample([9], initial, np.append(0, count), times, states)
            assert got == apply_censoring(ChosenUniforms(row), path, scenario, censoring, 9)
