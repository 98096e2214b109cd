"""Grid scenarios: samplers, censoring mechanisms, exact path enumeration.

A scenario places all transitions on a finite grid of jump times.  The
transition rule at a grid time may depend on the current state alone
(markov), on when the current state was entered (entry_time_dependent), or
on how long it has been occupied (duration_dependent); the latter two
break the Markov property while keeping the path space small enough to
enumerate exactly.

Censoring mechanisms act on sampled paths and produce event histories with
state 0 marking unobserved spans.  Observation switches only at midpoints
between grid times, so the observed status just before and at a grid time
always agree; that is what makes the `none`, `independent_right` and
`state_filtering_conforming` mechanisms leave the observable hazard equal
to the true one, while the `violating` mechanism deliberately lowers the
observation probability exactly when the subject transitions.

Reproducibility: every subject draws from its own substream seeded by
(seed, arm, subject id), so samples are independent of evaluation order
and worker count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .estimators import EventHistory
from .multistate import PathSpace, StatePath

RULE_KINDS = ("markov", "entry_time_dependent", "duration_dependent")
CENSORING_KINDS = ("none", "independent_right", "state_filtering_conforming", "violating")


class ConfigError(ValueError):
    """Malformed scenario or censoring configuration."""


@dataclass(frozen=True)
class TransitionRule:
    """Outgoing probabilities for one (time, state) pair.

    ``when`` restricts the rule to a history feature value (the entry time
    of the current state, or the time already spent in it, depending on
    the scenario's rule kind); ``None`` makes it the default for the pair.
    """

    time: float
    from_state: int
    probs: tuple[tuple[int, float], ...]
    when: float | None = None


@dataclass(frozen=True)
class ScenarioConfig:
    dim: int
    tau: float
    grid: tuple[float, ...]
    rule: str
    initial: tuple[float, ...]
    transitions: tuple[TransitionRule, ...]

    def __post_init__(self) -> None:
        if self.rule not in RULE_KINDS:
            raise ConfigError(f"unknown rule kind {self.rule!r}")
        if self.dim < 1:
            raise ConfigError("dimension must be at least 1")
        grid = tuple(float(t) for t in self.grid)
        for earlier, later in zip(grid, grid[1:]):
            if not earlier < later:
                raise ConfigError("grid times must be strictly increasing")
        if grid and not (0.0 < grid[0] and grid[-1] <= self.tau):  # also rejects NaN
            raise ConfigError("grid times must lie in (0, tau]")
        initial = tuple(float(p) for p in self.initial)
        if len(initial) != self.dim:
            raise ConfigError("initial distribution length must equal the dimension")
        if min(initial, default=0.0) < 0.0 or abs(sum(initial) - 1.0) > 1e-12:
            raise ConfigError("initial distribution must be nonnegative and sum to 1")
        seen = set()
        for rule in self.transitions:
            if rule.time not in grid:
                raise ConfigError(f"rule time {rule.time} is not a grid time")
            if not 1 <= rule.from_state <= self.dim:
                raise ConfigError(f"rule state {rule.from_state} out of range")
            if self.rule == "markov" and rule.when is not None:
                raise ConfigError("markov rules cannot carry a history feature")
            key = (rule.time, rule.from_state, rule.when)
            if key in seen:
                raise ConfigError(f"duplicate rule for {key}")
            seen.add(key)
            total = 0.0
            for to, p in rule.probs:
                if not 1 <= to <= self.dim or to == rule.from_state:
                    raise ConfigError(f"rule target {to} invalid for state {rule.from_state}")
                if p < 0.0:
                    raise ConfigError("transition probabilities must be nonnegative")
                total += p
            if total > 1.0 + 1e-12:
                raise ConfigError(
                    f"outgoing probabilities at t={rule.time} from {rule.from_state} exceed 1"
                )
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "transitions", tuple(self.transitions))
        # (time, from_state) -> {when: probs}, so a lookup never scans the rules
        index: dict[tuple[float, int], dict[float | None, tuple[tuple[int, float], ...]]] = {}
        for rule in self.transitions:
            index.setdefault((rule.time, rule.from_state), {})[rule.when] = rule.probs
        object.__setattr__(self, "_rules", index)
        # observation spans of the filtering censoring kinds, shared by every subject
        object.__setattr__(self, "_spans", tuple(_observation_spans(grid, self.tau)))

    def feature(self, t: float, entered_at: float) -> float | None:
        if self.rule == "markov":
            return None
        if self.rule == "entry_time_dependent":
            return entered_at
        return t - entered_at

    def outgoing(self, t: float, state: int, entered_at: float) -> tuple[tuple[int, float], ...]:
        """Effective outgoing probabilities, preferring an exact feature match."""
        rules = self._rules.get((t, state))
        if rules is None:
            return ()
        feature = self.feature(t, entered_at)
        if feature is not None and feature in rules:
            return rules[feature]
        return rules.get(None, ())

    def to_json_dict(self) -> dict:
        rules = []
        for rule in self.transitions:
            entry: dict = {
                "time": rule.time,
                "from": rule.from_state,
                "probs": {str(to): p for to, p in rule.probs},
            }
            if rule.when is not None:
                entry["when"] = rule.when
            rules.append(entry)
        return {
            "d": self.dim,
            "tau": self.tau,
            "grid": list(self.grid),
            "rule": self.rule,
            "initial": list(self.initial),
            "transitions": rules,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ScenarioConfig":
        try:
            rules = tuple(
                TransitionRule(
                    time=float(entry["time"]),
                    from_state=int(entry["from"]),
                    probs=tuple(
                        (int(to), float(p)) for to, p in sorted(entry["probs"].items())
                    ),
                    when=float(entry["when"]) if "when" in entry else None,
                )
                for entry in data["transitions"]
            )
            return cls(
                dim=int(data["d"]),
                tau=float(data["tau"]),
                grid=tuple(float(t) for t in data["grid"]),
                rule=str(data["rule"]),
                initial=tuple(float(p) for p in data["initial"]),
                transitions=rules,
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise ConfigError(f"malformed scenario document: {exc!r}") from None


@dataclass(frozen=True)
class CensoringConfig:
    """Observation mechanism applied to sampled paths.

    * ``none``: fully observed.
    * ``independent_right``: a censoring category drawn independently of
      the path decides through which grid time the subject is observed
      (``after`` maps grid times -- or 0.0 for baseline only -- to
      probabilities; ``never`` carries the rest).
    * ``state_filtering_conforming``: each inter-midpoint span is observed
      independently with probability q; the subject can drop out of and
      back into observation.
    * ``violating``: like the conforming filter, but a span containing a
      transition of the subject is observed with probability q*(1-delta).
    """

    kind: str
    q: float = 1.0
    delta: float = 0.0
    after: tuple[tuple[float, float], ...] = ()
    never: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in CENSORING_KINDS:
            raise ConfigError(f"unknown censoring kind {self.kind!r}")
        if not 0.0 < self.q <= 1.0:
            raise ConfigError("observation probability q must be in (0, 1]")
        if self.kind == "violating" and not 0.0 < self.delta < 1.0:
            raise ConfigError("violation contrast delta must be in (0, 1)")
        after = tuple((float(t), float(p)) for t, p in self.after)
        if self.kind == "independent_right":
            total = sum(p for _, p in after) + self.never
            if min((p for _, p in after), default=0.0) < 0.0 or self.never < 0.0:
                raise ConfigError("censoring probabilities must be nonnegative")
            if abs(total - 1.0) > 1e-12:
                raise ConfigError("censoring probabilities must sum to 1")
        object.__setattr__(self, "after", after)

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.kind in ("state_filtering_conforming", "violating"):
            out["q"] = self.q
        if self.kind == "violating":
            out["delta"] = self.delta
        if self.kind == "independent_right":
            out["after"] = {str(t): p for t, p in self.after}
            out["never"] = self.never
        return out

    @classmethod
    def from_json_dict(cls, data: dict) -> "CensoringConfig":
        try:
            kind = str(data["kind"])
            after = tuple(
                sorted((float(t), float(p)) for t, p in data.get("after", {}).items())
            )
            return cls(
                kind=kind,
                q=float(data.get("q", 1.0)),
                delta=float(data.get("delta", 0.0)),
                after=after,
                never=float(data.get("never", 1.0)),
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise ConfigError(f"malformed censoring document: {exc!r}") from None


def load_scenario(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return ScenarioConfig.from_json_dict(json.load(handle))


def load_censoring(path) -> CensoringConfig:
    with open(path, "r", encoding="utf-8") as handle:
        return CensoringConfig.from_json_dict(json.load(handle))


def subject_rng(seed: int, subject: int, arm: int = 0) -> np.random.Generator:
    """Independent substream for one subject, stable under parallel fan-out."""
    return np.random.default_rng(np.random.SeedSequence((seed, arm, subject)))


def _draw(rng: np.random.Generator, outcomes) -> int | None:
    """Inverse-CDF draw over (value, prob) pairs; None for the residual mass."""
    u = rng.random()
    acc = 0.0
    for value, p in outcomes:
        acc += p
        if u < acc:
            return value
    return None


def sample_path(rng: np.random.Generator, scenario: ScenarioConfig) -> StatePath:
    """Draw one trajectory by walking the grid and the scenario's rule."""
    start = _draw(rng, enumerate(scenario.initial))
    if start is None:
        # the validator accepts a float sum just below 1 (0.7 + 0.2 + 0.1 is
        # 0.9999999999999999); that residual belongs to the last state with mass
        start = max(i for i, p in enumerate(scenario.initial) if p > 0.0)
    initial = start + 1
    state = initial
    entered_at = 0.0
    jumps = []
    for t in scenario.grid:
        to = _draw(rng, scenario.outgoing(t, state, entered_at))
        if to is not None:
            jumps.append((t, to))
            state = to
            entered_at = t
    return StatePath(initial, tuple(jumps))


def exact_pathspace(scenario: ScenarioConfig, cap: int = 10**6) -> PathSpace:
    """Enumerate every positive-probability trajectory with its exact weight.

    Weights multiply along the branching at each grid time and sum to one.
    Raises ConfigError when the enumeration would exceed ``cap`` paths.
    """
    # frontier entries: (initial state, current state, entry time, jumps, weight)
    frontier: list[tuple[int, int, float, tuple[tuple[float, int], ...], float]] = []
    for state0, p0 in enumerate(scenario.initial, start=1):
        if p0 > 0.0:
            frontier.append((state0, state0, 0.0, (), p0))
    for t in scenario.grid:
        grown: list[tuple[int, int, float, tuple[tuple[float, int], ...], float]] = []
        for initial, state, entered_at, jumps, weight in frontier:
            outgoing = scenario.outgoing(t, state, entered_at)
            stay = 1.0 - sum(p for _, p in outgoing)
            if stay > 0.0:
                grown.append((initial, state, entered_at, jumps, weight * stay))
            for to, p in outgoing:
                if p > 0.0:
                    grown.append((initial, to, t, jumps + ((t, to),), weight * p))
            if len(grown) > cap:
                raise ConfigError(f"path space exceeds the cap of {cap} paths")
        frontier = grown
    paths = tuple(
        (StatePath(initial, jumps), weight) for initial, _, _, jumps, weight in frontier
    )
    return PathSpace(scenario.dim, scenario.tau, paths, grid=scenario.grid)


def _observation_spans(grid: Sequence[float], tau: float) -> list[tuple[float, float]]:
    """Half-open spans delimited by the midpoints between grid times.

    Span 0 covers time 0 only; span i >= 1 covers grid time i-1.  Every
    grid time sits strictly inside its span, so observation status agrees
    just before and at each grid time.
    """
    edges = [0.0]
    previous = 0.0
    for t in grid:
        edges.append(0.5 * (previous + t))
        previous = t
    edges.append(max(tau, previous) + 1.0)
    return list(zip(edges, edges[1:]))


def apply_censoring(
    rng: np.random.Generator,
    path: StatePath,
    scenario: ScenarioConfig,
    censoring: CensoringConfig,
    subject: int = 0,
) -> EventHistory:
    """Observed event history of one sampled path under the mechanism.

    The observed state is the path's state while observed and 0 otherwise;
    it never reports a state the path is not in.
    """
    if censoring.kind == "none":
        return EventHistory(subject, path.initial_state, path.jumps)

    if censoring.kind == "independent_right":
        cut_after = _draw(rng, censoring.after)
        if cut_after is None:
            return EventHistory(subject, path.initial_state, path.jumps)
        later = [t for t in scenario.grid if t > cut_after]
        if not later:
            return EventHistory(subject, path.initial_state, path.jumps)
        cut = 0.5 * (cut_after + later[0])
        jumps = [(t, s) for t, s in path.jumps if t < cut]
        jumps.append((cut, 0))
        return EventHistory(subject, path.initial_state, tuple(jumps))

    # filtering: one observation draw per span, in span order, while a
    # single cursor walks the path's jumps alongside the spans
    path_jumps = path.jumps
    jump_times = {t for t, _ in path_jumps} if censoring.kind == "violating" else set()
    state = path.initial_state
    cursor = 0
    changes: list[tuple[float, int]] = []
    for i, (start, end) in enumerate(scenario._spans):
        p_obs = censoring.q
        if i >= 1 and scenario.grid[i - 1] in jump_times:
            p_obs = censoring.q * (1.0 - censoring.delta)
        while cursor < len(path_jumps) and path_jumps[cursor][0] <= start:
            state = path_jumps[cursor][1]
            cursor += 1
        if rng.random() < p_obs:
            changes.append((start, state))
            # the underlying path may jump inside the span (at its grid time)
            while cursor < len(path_jumps) and path_jumps[cursor][0] < end:
                state = path_jumps[cursor][1]
                changes.append(path_jumps[cursor])
                cursor += 1
        else:
            changes.append((start, 0))
    initial = changes[0][1]
    jumps = []
    current = initial
    for t, s in changes[1:]:
        if s != current:
            jumps.append((t, s))
            current = s
    return EventHistory(subject, initial, tuple(jumps))


def simulate_sample(
    scenario: ScenarioConfig,
    censoring: CensoringConfig,
    n: int,
    seed: int,
    arm: int = 0,
) -> list[EventHistory]:
    """Draw n subjects, each from its own (seed, arm, subject) substream."""
    if n < 1:
        raise ConfigError("need at least one subject")
    sample = []
    for subject in range(n):
        rng = subject_rng(seed, subject, arm)
        path = sample_path(rng, scenario)
        sample.append(apply_censoring(rng, path, scenario, censoring, subject))
    return sample


# -- canonical scenarios ------------------------------------------------------


def illness_death_scenario() -> ScenarioConfig:
    """Three-state illness-death scenario whose death hazard remembers the
    illness entry time, which breaks the Markov property with only five
    distinct trajectories.

    Everyone starts healthy (state 1).  At t=1 and t=2 a healthy subject
    falls ill (state 2) with probability one half.  At t=3 an ill subject
    dies (state 3) with probability 0.8 if it fell ill at t=1 and 0.2 if
    at t=2.
    """
    return ScenarioConfig(
        dim=3,
        tau=3.0,
        grid=(1.0, 2.0, 3.0),
        rule="entry_time_dependent",
        initial=(1.0, 0.0, 0.0),
        transitions=(
            TransitionRule(1.0, 1, ((2, 0.5),)),
            TransitionRule(2.0, 1, ((2, 0.5),)),
            TransitionRule(3.0, 2, ((3, 0.8),), when=1.0),
            TransitionRule(3.0, 2, ((3, 0.2),), when=2.0),
        ),
    )


def two_state_scenario() -> ScenarioConfig:
    """Single binary branch: one 1 -> 2 transition at t=1 with probability 1/2."""
    return ScenarioConfig(
        dim=2,
        tau=2.0,
        grid=(1.0,),
        rule="markov",
        initial=(1.0, 0.0),
        transitions=(TransitionRule(1.0, 1, ((2, 0.5),)),),
    )


def forced_exit_scenario() -> ScenarioConfig:
    """State 1 empties with certainty at t=1; exercises the extinction checks."""
    return ScenarioConfig(
        dim=2,
        tau=2.0,
        grid=(1.0,),
        rule="markov",
        initial=(1.0, 0.0),
        transitions=(TransitionRule(1.0, 1, ((2, 1.0),)),),
    )
