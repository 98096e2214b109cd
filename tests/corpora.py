"""Path-space corpora the tests draw from: the three packaged scenarios and
batches of generator spaces."""

import numpy as np

from prodint import (
    PathSpace,
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
