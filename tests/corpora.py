"""Path-space corpora the tests draw from: the three packaged scenarios,
batches of generator spaces, the generator's scenarios and scenarios of
every rule-table layout as hypothesis strategies, the generator's decimal
(non-dyadic) counterparts, a scenario whose exit row sums to 1 only up
to float rounding, and long-grid scenarios for the memory budgets."""

from decimal import Decimal

import numpy as np
from hypothesis import strategies as st

from prodint import (
    PathSpace,
    ScenarioConfig,
    TransitionRule,
    exact_pathspace,
    illness_death_scenario,
)
from prodint.checks import random_scenario
from prodint.simulation import RULE_KINDS, packaged_scenario


def two_state_scenario() -> ScenarioConfig:
    """Single binary branch: one 1 -> 2 transition at t=1 with probability
    1/2 (the packaged surv.json)."""
    return packaged_scenario("surv.json")


def forced_exit_scenario() -> ScenarioConfig:
    """State 1 empties with certainty at t=1; exercises the extinction
    checks (the packaged forced_exit.json)."""
    return packaged_scenario("forced_exit.json")


def default_corpus() -> dict[str, PathSpace]:
    return {
        "illness-death": exact_pathspace(illness_death_scenario()),
        "two-state": exact_pathspace(two_state_scenario()),
        "forced-exit": exact_pathspace(forced_exit_scenario()),
    }


def random_corpus(rng: np.random.Generator, count: int, **kwargs) -> list[PathSpace]:
    return [exact_pathspace(random_scenario(rng, **kwargs)) for _ in range(count)]


def float_sum_exit_scenario() -> ScenarioConfig:
    """Everyone leaves state 1 at t=1, to 2, 3 or 4 with probabilities
    0.7, 0.2 and 0.1, which add up to 0.9999999999999999 in floats."""
    exits = TransitionRule(1.0, 1, ((2, 0.7), (3, 0.2), (4, 0.1)))
    return ScenarioConfig(4, 2.0, (1.0,), "markov", (1.0, 0.0, 0.0, 0.0), (exits,))


def wide_grid_scenario(ticks: int, dim: int, rule: str) -> ScenarioConfig:
    """``ticks`` unit-spaced grid times, ``dim`` states and one rule, a
    1 -> 2 move with probability 1/2 at t=1: a small document whose
    non-Markov rule table has (ticks + 1) * (dim + 1) * (ticks + 1) entries."""
    grid = tuple(float(t) for t in range(1, ticks + 1))
    move = TransitionRule(1.0, 1, ((2, 0.5),))
    return ScenarioConfig(dim, float(ticks), grid, rule, (1.0,) + (0.0,) * (dim - 1), (move,))


def branching_scenario(branching: int, ticks: int) -> ScenarioConfig:
    """A Markov law on ``ticks`` unit-spaced grid times whose first
    ``branching`` ticks each switch 1 <-> 2 with probability 1/2, so it has
    2**branching paths, each a row of ticks + 1 states."""
    grid = tuple(float(t) for t in range(1, ticks + 1))
    rules = tuple(TransitionRule(t, s, ((3 - s, 0.5),)) for t in grid[:branching] for s in (1, 2))
    return ScenarioConfig(2, float(ticks), grid, "markov", (1.0, 0.0), rules)


VARIANTS = ("plain", "progressive", "forced_exit")


@st.composite
def random_scenarios(draw):
    """Scenarios of the generator `verify` uses, for every rule kind and variant."""
    kind = draw(st.sampled_from(RULE_KINDS))
    variant = draw(st.sampled_from(VARIANTS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    flags = {"progressive": variant == "progressive", "forced_exit": variant == "forced_exit"}
    scenario = random_scenario(rng, **flags)
    while scenario.rule != kind:
        scenario = random_scenario(rng, **flags)
    return scenario


# a duration on the decimal grid rounds: 0.7 - 0.3 is 0.39999999999999997,
# so a rule for 0.4 never matches it, while one for 0.7 - 0.3 does
KERNEL_GRIDS = ((1.0, 2.0, 3.0, 4.0), (0.1, 0.3, 0.7))


@st.composite
def kernel_scenarios(draw):
    """Scenarios of every rule kind whose (time, state) pairs get no rule,
    only a default, only feature rules or both, with rows of one or two
    targets; some features never occur."""
    rule = draw(st.sampled_from(RULE_KINDS))
    grid = draw(st.sampled_from(KERNEL_GRIDS))
    dim = draw(st.integers(2, 3))
    rules = []
    for t in grid:
        entries = [0.0] + [g for g in grid if g < t]
        features = entries if rule == "entry_time_dependent" else [t - e for e in entries]
        for state in range(1, dim + 1):
            targets = draw(st.permutations([s for s in range(1, dim + 1) if s != state]))
            has_default, has_features = draw(st.booleans()), rule != "markov" and draw(st.booleans())
            whens = [None] * has_default + sorted(
                draw(st.frozensets(st.sampled_from(features + [0.4, 0.5, 9.0]), min_size=1, max_size=3))
                if has_features else ()
            )
            for when in whens:
                probs = [draw(st.sampled_from([0.0, 0.2, 0.5, 0.7])), draw(st.sampled_from([0.0, 0.1, 0.3]))]
                row = tuple(zip(targets, probs[: draw(st.integers(1, len(targets)))]))
                rules.append(TransitionRule(t, state, row, when=when))
    rules = draw(st.permutations(rules))
    # 0.7 + 0.2 + 0.1 adds up to 1 only within rounding
    initial = draw(st.sampled_from({2: [(1.0, 0.0), (0.3, 0.7)], 3: [(1.0, 0.0, 0.0), (0.7, 0.2, 0.1)]}[dim]))
    return ScenarioConfig(dim, grid[-1], grid, rule, initial, tuple(rules))


# the generator's dyadic grid times, each moved to a decimal time
DECIMAL_TIMES = {0.5: 0.3, 1.0: 0.7, 1.5: 1.1, 2.0: 1.3, 2.5: 1.9, 3.0: 2.3, 3.5: 2.9, 4.0: 3.7}


def _hundredths(probs):
    """Sixteenths as hundredths that add up, in decimal, to their total
    rounded to hundredths: 0.3125 + 0.6875 becomes 0.31 + 0.69."""
    cent = Decimal("0.01")
    exact = [Decimal(p) for p in probs]
    rounded = [x.quantize(cent) for x in exact]
    positive = [i for i, x in enumerate(exact) if x > 0]
    if positive:
        rounded[positive[-1]] += sum(exact).quantize(cent) - sum(rounded)
    return [float(x) for x in rounded]


def decimal_scenario(scenario: ScenarioConfig) -> ScenarioConfig:
    """The same scenario with decimal grid times and probabilities in
    hundredths, neither of them exact binary floats.

    A duration rule keeps matching the same entry tick: its feature is the
    float difference of the moved times.
    """
    def moved(t):
        return DECIMAL_TIMES[t] if t else 0.0

    rules = []
    for rule in scenario.transitions:
        when = rule.when
        if when is not None and scenario.rule == "entry_time_dependent":
            when = moved(when)
        elif when is not None:  # the time since entering at rule.time - when
            when = moved(rule.time) - moved(rule.time - when)
        targets = [to for to, _ in rule.probs]
        probs = _hundredths([p for _, p in rule.probs])
        rules.append(TransitionRule(moved(rule.time), rule.from_state, tuple(zip(targets, probs)), when=when))
    return ScenarioConfig(
        scenario.dim,
        scenario.tau,
        tuple(map(moved, scenario.grid)),
        scenario.rule,
        tuple(_hundredths(scenario.initial)),
        tuple(rules),
    )
