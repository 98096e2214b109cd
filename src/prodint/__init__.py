"""Interval-function calculus and product-integral estimation for
multi-state event histories.

The pieces fit together like this: ``intervals`` supplies endpoint-aware
intervals; ``interval_functions`` the additive interval functions and
the hazard matrix (``HazardMatrixIF``, formed from transition counts and
risk sets), the refinement engine, the additive and multiplicative
transforms along it, product integrals and step-function integrals;
``multistate`` an exactly enumerable law of a multi-state process serving
as the oracle; ``estimators`` the Nelson-Aalen / Aalen-Johansen pipeline
on observed event histories, built on that calculus; ``simulation`` the
grid samplers and censoring mechanisms; ``checks`` the verification
suites; and ``cli`` the command-line harness.
"""

from .intervals import Interval
from .interval_functions import (
    AdditiveIF,
    BoundCheck,
    ConvergenceError,
    GeneralIF,
    HazardMatrixIF,
    StepFunction,
    additive_transform,
    check_product_variation_bound,
    defect_profile,
    kolmogorov_integral,
    matrix_norm,
    multiplicative_transform,
    plus_identity,
    product_integral,
    strict_transform_defect,
    variation_norm,
)
from .multistate import PathSpace
from .estimators import (
    EstimateGrid,
    EstimationError,
    EventHistory,
    EventSample,
    FormatError,
    aalen_johansen,
    empirical_occupancy,
    estimate,
    nelson_aalen,
    occupation_estimate,
    read_event_histories,
    write_event_histories,
)
from .simulation import (
    CensoringConfig,
    ConfigError,
    ScenarioConfig,
    TransitionRule,
    exact_pathspace,
    illness_death_scenario,
    load_censoring,
    load_scenario,
    simulate_sample,
)

__version__ = "0.1.0"

__all__ = [
    "AdditiveIF",
    "BoundCheck",
    "CensoringConfig",
    "ConfigError",
    "ConvergenceError",
    "EstimateGrid",
    "EstimationError",
    "EventHistory",
    "EventSample",
    "FormatError",
    "GeneralIF",
    "HazardMatrixIF",
    "Interval",
    "PathSpace",
    "ScenarioConfig",
    "StepFunction",
    "TransitionRule",
    "aalen_johansen",
    "additive_transform",
    "check_product_variation_bound",
    "defect_profile",
    "empirical_occupancy",
    "estimate",
    "exact_pathspace",
    "illness_death_scenario",
    "kolmogorov_integral",
    "load_censoring",
    "load_scenario",
    "matrix_norm",
    "multiplicative_transform",
    "nelson_aalen",
    "occupation_estimate",
    "plus_identity",
    "product_integral",
    "read_event_histories",
    "simulate_sample",
    "strict_transform_defect",
    "variation_norm",
    "write_event_histories",
]
