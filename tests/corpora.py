"""Path-space corpora the tests draw from: the three packaged scenarios,
batches of generator spaces, the generator's scenarios as a hypothesis
strategy, their decimal (non-dyadic) counterparts, and a scenario whose
exit row sums to 1 only up to float rounding."""

from decimal import Decimal

import numpy as np
from hypothesis import strategies as st

from prodint import (
    PathSpace,
    ScenarioConfig,
    TransitionRule,
    exact_pathspace,
    forced_exit_scenario,
    illness_death_scenario,
    two_state_scenario,
)
from prodint.checks import random_scenario
from prodint.simulation import RULE_KINDS


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
