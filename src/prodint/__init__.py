"""Interval-function calculus and product-integral estimation for
multi-state event histories.

The pieces fit together like this: ``intervals`` supplies endpoint-aware
intervals; ``interval_functions`` the pure-jump additive interval
functions and the hazard matrix (``HazardMatrixIF``, formed from
transition counts and risk sets), general ones given by an evaluator (a
continuous part enters as one), the refinement engine, the additive and
multiplicative transforms, defects and variation norms read from its one
walk of the schedule, exact product integrals and step-function
integrals of additive functions;
``multistate`` an exactly enumerable law of a multi-state process serving
as the oracle; ``estimators`` the Nelson-Aalen / Aalen-Johansen pipeline
on observed event histories, built on that calculus; ``simulation`` the
grid samplers and censoring mechanisms; ``checks`` the verification
suites, among them transform-duality with its transform-bound record;
and ``cli`` the command-line harness.

Importing the package loads the calculus, the estimators and the
samplers.  ``PathSpace``, and the ``multistate`` module behind it, is
loaded on first access, so ``simulate`` and ``estimate`` never load the
oracle; ``checks`` is loaded only where it is imported.
"""

from .intervals import Interval
from .interval_functions import (
    AdditiveIF,
    ConvergenceError,
    GeneralIF,
    HazardMatrixIF,
    StepFunction,
    additive_transform,
    defect_profile,
    kolmogorov_integral,
    matrix_norm,
    multiplicative_transform,
    plus_identity,
    product_integral,
    strict_transform_defect,
    variation_norm,
)
from .estimators import (
    EstimateGrid,
    EstimationError,
    EventHistory,
    EventSample,
    FormatError,
    aalen_johansen,
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
    exact_pathspaces,
    illness_death_scenario,
    load_censoring,
    load_scenario,
    simulate_sample,
)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name == "PathSpace":
        from .multistate import PathSpace

        return PathSpace
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AdditiveIF",
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
    "defect_profile",
    "estimate",
    "exact_pathspace",
    "exact_pathspaces",
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
