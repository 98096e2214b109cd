"""The indexed rule lookup, the one-cursor censoring walk and the sweep-line
Nelson-Aalen estimator agree exactly with the rescanning references."""

import numpy as np
from hypothesis import given, settings, strategies as st

from prodint import (
    CensoringConfig,
    EventHistory,
    ScenarioConfig,
    StatePath,
    TransitionRule,
    apply_censoring,
    nelson_aalen,
)

import reference_impl

# a small pool of times, so that subjects often jump at the same time
pooled_time = st.integers(1, 8).map(lambda k: k / 2.0)


@st.composite
def observed_samples(draw):
    """Histories with unobserved (state 0) starts, spans and re-entries."""
    n = draw(st.integers(1, 12))
    sample = []
    for i in range(n):
        state = draw(st.integers(0, 3))
        initial = state
        jumps = []
        for t in sorted(draw(st.frozensets(pooled_time, max_size=5))):
            state = draw(st.sampled_from([s for s in (0, 1, 2, 3) if s != state]))
            jumps.append((t, state))
        sample.append(EventHistory(i, initial, tuple(jumps)))
    return sample


@settings(max_examples=300, deadline=None)
@given(
    observed_samples(),
    st.none() | st.sampled_from([0.5, 1.25, 2.0, 3.0, 4.0]),
    st.sampled_from([None, 3, 4]),
)
def test_nelson_aalen_matches_rescan(sample, upto, dim):
    fast = nelson_aalen(sample, upto=upto, dim=dim)
    slow = reference_impl.nelson_aalen_rescan(sample, upto=upto, dim=dim)
    assert (fast.dim, fast.n, fast.times) == (slow.dim, slow.n, slow.times)
    assert len(fast.hazard_steps) == len(slow.hazard_steps)
    for a, b in zip(fast.hazard_steps, slow.hazard_steps):
        assert np.array_equal(a, b)


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


@settings(max_examples=100, deadline=None)
@given(history_scenarios())
def test_outgoing_matches_rule_scan(scenario):
    for t in GRID:
        for state in range(1, scenario.dim + 1):
            for entered_at in (0.0,) + GRID:
                assert scenario.outgoing(t, state, entered_at) == reference_impl.outgoing_scan(
                    scenario, t, state, entered_at
                )


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
    return StatePath(initial, tuple(jumps))


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
