import numpy as np
import pytest

from prodint import EventHistory, PathSpace, exact_pathspace, illness_death_scenario

import oracle_enum
from reference_impl import pathspace


@pytest.fixture(scope="session")
def idn_space() -> PathSpace:
    """The illness-death oracle built from the hand-enumerated path list."""
    paths = [
        (EventHistory(i, init, jumps), w) for i, (init, jumps, w) in enumerate(oracle_enum.IDN_PATHS)
    ]
    return pathspace(3, 3.0, (1.0, 2.0, 3.0), paths)


@pytest.fixture(scope="session")
def idn_enumerated() -> PathSpace:
    """The same law produced by the scenario enumerator."""
    return exact_pathspace(illness_death_scenario())


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240811)
