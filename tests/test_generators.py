"""The randomized instance generators draw without ``Generator.choice``,
which converts a Python sequence to an array on every call and costs more
than the scalar ``integers`` draws it makes.  Each rewritten draw must
equal the ``choice`` call it replaces, in the values drawn and in the
generator state it leaves, because the verify digests pin every value the
generators draw."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prodint.checks import _choose, _sample, random_jump_function, random_subinterval
from prodint.intervals import Interval
from prodint.interval_functions import matrix_norm

SEEDS = st.integers(0, 2**32 - 1)
# sequences of the kinds the generators draw from: grid times, rule kinds, states
SEQUENCES = [
    (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0),
    ("markov", "entry_time_dependent", "duration_dependent"),
    ("markov",),
    [2, 3, 4],
    [1, 3],
    [0.0, 1.5, 2.5],
]


def twin(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


def same_state(a, b):
    return a.bit_generator.state == b.bit_generator.state and a.random() == b.random()


@settings(max_examples=300, deadline=None)
@given(SEEDS, st.lists(st.integers(-5, 40), min_size=1, max_size=64) | st.sampled_from(SEQUENCES), st.data())
def test_sample_draws_what_choice_without_replacement_draws(seed, items, data):
    # up to 9 of 64: Floyd's repeats and shuffles longer than the generators' 6 of 16
    size = data.draw(st.integers(1, min(9, len(items))))
    by_choice, rewritten = twin(seed)
    expected = list(by_choice.choice(items, size=size, replace=False))
    assert _sample(rewritten, items, size) == expected
    assert same_state(by_choice, rewritten)


@settings(max_examples=100, deadline=None)
@given(SEEDS, st.integers(0, 12), st.data())
def test_choose_takes_all_none_or_too_many_as_choice_does(seed, n, data):
    size = data.draw(st.sampled_from([0, n, n + 1]))
    by_choice, rewritten = twin(seed)
    if size > n:
        with pytest.raises(ValueError):
            by_choice.choice(n, size=size, replace=False)
        with pytest.raises(ValueError):
            _choose(rewritten, n, size)
    else:
        assert _choose(rewritten, n, size) == by_choice.choice(n, size=size, replace=False).tolist()
    assert same_state(by_choice, rewritten)


@settings(max_examples=300, deadline=None)
@given(SEEDS, st.lists(st.text("abc_", max_size=3), min_size=1, max_size=12) | st.sampled_from(SEQUENCES))
def test_one_item_drawn_by_integers_is_choice(seed, items):
    by_choice, rewritten = twin(seed)
    expected = by_choice.choice(items)
    assert items[rewritten.integers(0, len(items))] == expected
    assert same_state(by_choice, rewritten)


@settings(max_examples=300, deadline=None)
@given(SEEDS, st.integers(0, 2**31), st.integers(1, 6))
def test_scalar_integer_draws_are_one_sized_draw(seed, cap, count):
    sized, scalar = twin(seed)
    expected = sized.integers(0, cap + 1, size=count).tolist()
    assert [int(scalar.integers(0, cap + 1)) for _ in range(count)] == expected
    assert same_state(sized, scalar)


def subinterval_by_choice(rng, tau=4.0):
    """``random_subinterval`` as it drew from a per-call tick list."""
    ticks = [k * 0.25 for k in range(0, int(tau * 4) + 1)]
    lo, hi = sorted(rng.choice(len(ticks), size=2, replace=False).tolist())
    lo_t, hi_t = ticks[lo], ticks[hi]
    lo_closed = False if lo_t == 0.0 else bool(rng.integers(0, 2))
    hi_closed = bool(rng.integers(0, 2))
    if rng.random() < 0.1 and lo_t > 0.0:
        return Interval.point(lo_t)
    return Interval(lo_t, hi_t, lo_closed, hi_closed)


def jump_function_by_choice(rng, max_dim=4, max_atoms=6, max_norm=0.9):
    """``random_jump_function``'s atoms as it drew them with ``choice``."""
    dim = int(rng.integers(1, max_dim + 1))
    n_atoms = int(rng.integers(1, max_atoms + 1))
    atoms = []
    for t in sorted(rng.choice(np.arange(1, 17) * 0.25, size=n_atoms, replace=False)):
        raw = rng.uniform(-1.0, 1.0, size=(dim, dim))
        target = max_norm * rng.uniform(0.1, 1.0)
        atoms.append((float(t), raw * (target / matrix_norm(raw))))
    return dim, atoms


@settings(max_examples=200, deadline=None)
@given(SEEDS, st.sampled_from([1.0, 2.5, 4.0, 8.0]))
def test_subintervals_are_drawn_as_before(seed, tau):
    before, now = twin(seed)
    for _ in range(5):
        assert random_subinterval(now, tau) == subinterval_by_choice(before, tau)
    assert same_state(before, now)


@settings(max_examples=200, deadline=None)
@given(SEEDS)
def test_jump_functions_are_drawn_as_before(seed):
    before, now = twin(seed)
    dim, atoms = jump_function_by_choice(before)
    mu = random_jump_function(now)
    assert mu.dim == dim and list(mu.times) == [t for t, _ in atoms]
    assert all(np.array_equal(m, expected) for m, (_, expected) in zip(mu.jumps, atoms))
    assert same_state(before, now)
