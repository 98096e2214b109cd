"""Path-space corpora the tests draw from: the three packaged scenarios,
batches of generator spaces, and a scenario whose exit row sums to 1 only
up to float rounding."""

import numpy as np

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
