"""Grid scenarios: samplers, censoring mechanisms, exact path enumeration.

A scenario places all transitions on a finite grid of jump times.  The
transition rule at a grid time may depend on the current state alone
(markov), on when the current state was entered (entry_time_dependent), or
on how long it has been occupied (duration_dependent); the latter two
break the Markov property while keeping the path space small enough to
enumerate exactly.  A scenario compiles its rule once, to the arrays of a
``TransitionKernel``, which the sampler and the exact enumeration both read.

Censoring mechanisms act on sampled paths and produce event histories with
state 0 marking unobserved spans.  Observation switches only at midpoints
between grid times, so the observed status just before and at a grid time
always agree; that is what makes the `none`, `independent_right` and
`state_filtering_conforming` mechanisms leave the observable hazard equal
to the true one, while the `violating` mechanism deliberately lowers the
observation probability exactly when the subject transitions.

Reproducibility: every subject draws from its own substream seeded by
(seed, arm, subject id), so samples are independent of evaluation order
and worker count.  The sampler seeds all of a block's substreams in one
array pass that reproduces numpy's SeedSequence and PCG64 seeding.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from itertools import accumulate
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .estimators import EventSample
from .intervals import window_grid

if TYPE_CHECKING:
    from .multistate import PathSpace

RULE_KINDS = ("markov", "entry_time_dependent", "duration_dependent")
CENSORING_KINDS = ("none", "independent_right", "state_filtering_conforming", "violating")
# Uniforms drawn per block by simulate_sample: a block holds
# max(1, _BLOCK_DRAWS // k) subjects of k draws each.  That is one block for
# a thousand subjects on a 100-tick grid, while a long sample keeps its draw
# matrix at 2 MB and its other block arrays at a few times that; the C
# allocator keeps freed blocks of the size of the largest array it has
# returned, so larger blocks raise the peak resident memory of a process
# that samples repeatedly.
_BLOCK_DRAWS = 2**18
# Largest rule table, in bytes, that a scenario may compile to: a
# non-Markov rule kind keeps a row id per (tick, state, entry tick), so a
# scenario file of a few kilobytes with thousands of grid times and
# hundreds of states could otherwise ask for more memory than the machine
# has.  2**28 bytes leaves room for a 5,000-tick, 3-state table (100 MB).
MAX_RULE_TABLE_BYTES = 2**28
# Largest path space, in bytes, that ``exact_pathspace`` may hold: each
# path's states at the ticks, its weight and its entry column.  2**24 bytes
# hold 883,011 paths over 3 ticks or 5,561 over 3,001, whose one-step
# tables (states read as intp, 16 bytes a path and tick) stay below 2**28.
MAX_PATH_SPACE_BYTES = 2**24

# SeedSequence's entropy mixing (numpy/random/bit_generator.pyx): hash
# constants and multipliers on uint32 words, and a pool of 4 words.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


class ConfigError(ValueError):
    """Malformed scenario or censoring configuration."""


def _whole(value, what: str) -> int:
    """``int(value)``, but a float with a fractional part is an error, not truncated."""
    number = int(value)
    if isinstance(value, float) and number != value:
        raise ConfigError(f"{what} must be a whole number, got {value!r}")
    return number


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

    def __post_init__(self) -> None:
        # a tuple of pairs, so that a row can key its scenario's tables
        object.__setattr__(self, "probs", tuple((to, p) for to, p in self.probs))


class TransitionKernel(NamedTuple):
    """A scenario's rule compiled to arrays (read-only).

    Each rule kind picks a row from the grid time, the state and the tick
    column at which the state was entered: ``rows`` holds that row's id.
    Row 0 is empty: everyone stays.  Every subject is in state 0 before
    time 0, where its row is the initial distribution.  Column 0 of
    ``targets`` and ``masses`` is the stay and column 1 + j a row's j-th
    target: inverse-CDF pick j moves to ``targets[row, 1 + j]``, and the
    columns past a row's targets hold state 0 (stay) and mass 0.
    ``moves_below`` is the last entry of a row's table (0 for row 0): a
    uniform below it picks one of the row's targets, and one at or above it
    counts every entry of the table, which picks the stay column past them.
    """

    rows: np.ndarray  # (m + 1) x (d + 1) x (m + 1): row id per (tick column, state, entry column)
    cdf: np.ndarray  # row x width: the row's ``_cumulative`` table, padded with inf
    targets: np.ndarray  # row x (width + 2): 0, then the row's targets, padded with 0
    masses: np.ndarray  # row x (width + 2): the stay mass, then each target's step of ``cdf``
    moves_below: np.ndarray  # row: the last entry of the row's ``_cumulative`` table, 0 if empty


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
        grid = window_grid(self.tau, self.grid, ConfigError)
        initial = tuple(float(p) for p in self.initial)
        if len(initial) != self.dim:
            raise ConfigError("initial distribution length must equal the dimension")
        # written so that NaN fails every comparison
        if not all(p >= 0.0 for p in initial) or not abs(sum(initial) - 1.0) <= 1e-12:
            raise ConfigError("initial distribution must be nonnegative and sum to 1")
        seen, ticks = set(), set(grid)
        for rule in self.transitions:
            if rule.time not in ticks:
                raise ConfigError(f"rule time {rule.time} is not a grid time")
            if not 1 <= rule.from_state <= self.dim:
                raise ConfigError(f"rule state {rule.from_state} out of range")
            if self.rule == "markov" and rule.when is not None:
                raise ConfigError("markov rules cannot carry a history feature")
            if rule.when is not None and not math.isfinite(rule.when):
                raise ConfigError(f"rule feature 'when' must be finite, got {rule.when!r}")
            key = (rule.time, rule.from_state, rule.when)
            if key in seen:
                raise ConfigError(f"duplicate rule for {key}")
            seen.add(key)
            total = 0.0
            for to, p in rule.probs:
                if not 1 <= to <= self.dim or to == rule.from_state:
                    raise ConfigError(f"rule target {to} invalid for state {rule.from_state}")
                if not p >= 0.0:
                    raise ConfigError("transition probabilities must be nonnegative")
                total += p
            if total > 1.0 + 1e-12:
                raise ConfigError(
                    f"outgoing probabilities at t={rule.time} from {rule.from_state} exceed 1"
                )
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "initial", initial)
        object.__setattr__(self, "transitions", tuple(self.transitions))

    @cached_property
    def kernel(self) -> TransitionKernel:
        """The rule compiled to arrays, on first use (``_compile_kernel``)."""
        return _compile_kernel(self)

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
                    from_state=_whole(entry["from"], "rule state 'from'"),
                    # in the document's order, which fixes the inverse-CDF order of the draws
                    probs=tuple((int(to), float(p)) for to, p in entry["probs"].items()),
                    when=float(entry["when"]) if "when" in entry else None,
                )
                for entry in data["transitions"]
            )
            return cls(
                dim=_whole(data["d"], "dimension 'd'"),
                tau=float(data["tau"]),
                grid=tuple(float(t) for t in data["grid"]),
                rule=str(data["rule"]),
                initial=tuple(float(p) for p in data["initial"]),
                transitions=rules,
            )
        except (KeyError, TypeError, AttributeError, OverflowError) as exc:
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
            # written so that NaN fails every comparison
            if not all(t >= 0.0 for t, _ in after):
                raise ConfigError("censoring times must be nonnegative")
            total = sum(p for _, p in after) + self.never
            if not all(p >= 0.0 for _, p in after) or not self.never >= 0.0:
                raise ConfigError("censoring probabilities must be nonnegative")
            if not abs(total - 1.0) <= 1e-12:
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
        except (KeyError, TypeError, AttributeError, OverflowError) as exc:
            raise ConfigError(f"malformed censoring document: {exc!r}") from None


def _load_config(path, config_type):
    """``config_type.from_json_dict`` of the JSON file at ``path``.  Every
    decode or shape error is a ConfigError that names the file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            return config_type.from_json_dict(json.load(handle))
        except RecursionError:
            raise ConfigError(f"{path}: JSON nested too deeply") from None
        except ValueError as exc:  # bad JSON or UTF-8, a bad number, or a ConfigError
            raise ConfigError(f"{path}: {exc}") from None


def load_scenario(path) -> ScenarioConfig:
    return _load_config(path, ScenarioConfig)


def load_censoring(path) -> CensoringConfig:
    return _load_config(path, CensoringConfig)


def _uint32_words(value: int) -> list[int]:
    """A non-negative int as SeedSequence reads it: little-endian 32-bit
    words, one word for 0."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _seed_words(seed: int, arm: int, subjects: np.ndarray) -> list[np.ndarray]:
    """``SeedSequence((seed, arm, s)).generate_state(8, np.uint32)`` for every
    subject id s < 2**32 in ``subjects``, as eight uint32 arrays, word by word.

    SeedSequence hashes its entropy words into a pool of 4 words, mixes the
    pool, and hashes the pool out again.  Every subject has the same number
    of entropy words (seed's, arm's, then its own), and the hash constants
    advance once per hash whatever the values, so the subjects go through
    the same sequence of uint32 array operations, which wrap silently.
    """
    n = len(subjects)
    entropy = [np.full(n, word, np.uint32) for word in _uint32_words(seed) + _uint32_words(arm)]
    entropy.append(subjects.astype(np.uint32))
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ value >> 16

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ result >> 16

    zero = np.zeros(n, np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    words = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        words.append(value ^ value >> 16)
    return words


def _fill_streams(seed: int, arm: int, first: int, draws: np.ndarray) -> None:
    """Fill row i of ``draws`` with the uniforms of subject ``first + i``'s
    stream, ``np.random.default_rng(SeedSequence((seed, arm, first + i)))``
    (``subject_rng`` in ``tests/reference_impl.py``).

    The subjects' seed words come from one array pass (``_seed_words``); one
    reused PCG64 is then seeded per subject as ``pcg64_set_seed`` does it
    from ``generate_state(4, np.uint64)``, whose words are (initstate high,
    low, initseq high, low): state 0, inc = initseq << 1 | 1, a step,
    state += initstate, another step.  A step is state * mult + inc.
    """
    words = np.array(_seed_words(seed, arm, np.arange(first, first + len(draws))), np.uint64)
    halves = words[0::2] | words[1::2] << 32  # little-endian pairs of uint32 words
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    for (state_hi, state_lo, seq_hi, seq_lo), row in zip(halves.T.tolist(), draws):
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        state = ((inc + (state_hi << 64 | state_lo)) * _PCG_MULT + inc) & _MASK128
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        generator.random(out=row)


def exact_pathspace(scenario: ScenarioConfig) -> PathSpace:
    """Enumerate every positive-probability trajectory with its exact weight:
    ``exact_pathspaces([scenario])[0]``."""
    return exact_pathspaces([scenario])[0]


def exact_pathspaces(scenarios: Sequence[ScenarioConfig]) -> list[PathSpace]:
    """Enumerate each scenario's positive-probability trajectories with their
    exact weights, all in one walk over the ticks.

    One path in state 0 grows at tick 0 into the initial states, and the
    paths of each tick grow together, each into staying put first, then
    its kernel row's targets in order, which fixes the order in which
    queries add the weights.  A target's mass is the step of the row's
    ``_cumulative`` table at it and the stay mass what the table leaves
    below 1, as the sampler reads them, so the rounding slack the validator
    allows in a row's sum is spent once, on its last target.  A path whose
    weight underflows to 0 is dropped.  Other paths never die, so before
    each tick grows them, a law's count of paths bounds what its whole space
    would take, over its own ticks and in its own state dtype; above
    ``MAX_PATH_SPACE_BYTES`` it raises ConfigError.

    The laws walk side by side, longest grid first, each one's paths a
    block of the path arrays that reads its own kernel; a law leaves the
    walk after its last tick.  Every law's paths, states (values and dtype)
    and weights are those it has when enumerated alone.
    """
    from .multistate import PathSpace  # the oracle: simulate and estimate never build one

    if not scenarios:
        return []
    order = sorted(range(len(scenarios)), key=lambda i: -len(scenarios[i].grid))
    laws = [scenarios[i] for i in order]
    kernels = [law.kernel for law in laws]
    ticks = [len(law.grid) + 1 for law in laws]
    first_of = {t: ticks.index(t) for t in ticks}  # the first of the laws that end after t ticks
    dtypes = [np.min_scalar_type(law.dim) for law in laws]
    # a path's states at its law's ticks, its weight and its entry column
    path_bytes = [t * dtype.itemsize + 16 for t, dtype in zip(ticks, dtypes)]
    width = max(kernel.masses.shape[1] for kernel in kernels)
    columns = [np.zeros(len(laws), dtype=np.result_type(*dtypes))]  # a path a law, in state 0 before time 0
    weights, entered = np.ones(len(laws)), np.zeros(len(laws), dtype=np.intp)
    edges = list(range(len(laws) + 1))  # the paths of the i-th law walking are edges[i]:edges[i + 1]
    spaces = [None] * len(laws)
    for column in range(ticks[0]):
        masses = np.zeros((len(weights), width))
        targets = np.zeros((len(weights), width), columns[0].dtype)
        for kernel, lo, hi in zip(kernels, edges, edges[1:]):
            rows, w = kernel.rows[column][columns[-1][lo:hi], entered[lo:hi]], kernel.masses.shape[1]
            masses[lo:hi, :w], targets[lo:hi, :w] = kernel.masses[rows], kernel.targets[rows]
        parent, branch = (masses > 0.0).nonzero()
        edges = np.searchsorted(parent, edges).tolist()  # each law's block of the grown paths
        for lo, hi, law_ticks, per_path in zip(edges, edges[1:], ticks, path_bytes):
            if (hi - lo) * per_path > MAX_PATH_SPACE_BYTES:
                raise ConfigError(
                    f"the path space of {hi - lo} or more paths over {law_ticks} ticks would take "
                    f"{(hi - lo) * per_path} bytes or more, above the budget of {MAX_PATH_SPACE_BYTES}"
                )
        weights, branched = weights[parent] * masses[parent, branch], len(parent) > len(weights)
        if not weights.all():  # a product of positive masses underflowed to 0: that path drops out
            live = weights > 0.0
            edges = np.searchsorted(np.flatnonzero(live), edges).tolist()
            parent, branch, weights, branched = parent[live], branch[live], weights[live], True
        if branched:  # the columns so far follow the parents
            columns = [states[parent] for states in columns]
        to = targets[parent, branch]
        columns.append(np.where(to, to, columns[-1]))
        entered = np.where(to, column, entered[parent])
        if column + 1 in first_of:  # the laws that end at this tick walk last: their paths leave the walk
            first = first_of[column + 1]
            cut = edges[first]
            block = np.stack([states[cut:] for states in columns[1:]], axis=1)
            for i, lo, hi in zip(range(first, len(laws)), edges[first:], edges[first + 1 :]):
                states = block[lo - cut : hi - cut].astype(dtypes[i], copy=False)
                spaces[order[i]] = PathSpace(laws[i].dim, laws[i].tau, laws[i].grid, states, weights[lo:hi])
            columns = [states[:cut] for states in columns]
            weights, entered, edges = weights[:cut], entered[:cut], edges[: first + 1]
    return spaces


def _cumulative(probs: Sequence[float]) -> np.ndarray:
    """Inverse-CDF table of ``probs``: the cumulative sums, added left to
    right like a scalar walk over the pairs.

    Probabilities whose sum is 1 within the validator's 1e-12 leave no
    residual: 0.7 + 0.2 + 0.1 adds up to 0.9999999999999999, and the
    1.1e-16 left over is rounding, not a chance of staying put.  The table
    then reads exactly 1 from the last positive probability on, so that
    entry takes the rounding and the stay mass ``1 - table[-1]`` is 0.
    """
    table = np.fromiter(accumulate(probs), float, len(probs))
    if len(table) and abs(table[-1] - 1.0) <= 1e-12:
        last = max(i for i, p in enumerate(probs) if p > 0.0)
        table[last:] = 1.0
    return table


def _steps(table: np.ndarray) -> list[float]:
    """The step of the ``_cumulative`` table at each entry: the mass that
    ``_inverse_cdf`` gives the entry."""
    sums = table.tolist()
    return [above - below for below, above in zip([0.0] + sums, sums)]


def _inverse_cdf(table: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF draws: for each uniform, the index of the first entry of
    the ``_cumulative`` table (one for all, or one row per uniform) above
    it, or len(table) for the stay mass.  That is the count of entries at or
    below it: entries below 1 never decrease, and no uniform reaches 1.
    Each column of the table is compared with the uniforms in turn."""
    return sum(entry <= u for entry in table.T)


def _compile_kernel(scenario: ScenarioConfig) -> TransitionKernel:
    """The ``TransitionKernel`` of a scenario; rows are told apart by their
    (target, probability) pairs.  A (tick, state)'s default rule takes every
    entry column c, then each feature rule those whose feature, the entry
    time ``ticks[c]`` or the duration ``t - ticks[c]``, equals its ``when``
    exactly.  A Markov scenario's ids are broadcast over the entry columns.
    A table above ``MAX_RULE_TABLE_BYTES`` raises ``ConfigError`` before it
    is allocated."""
    start = tuple(enumerate(scenario.initial, start=1))
    ids = {(): 0, start: 1}
    for rule in scenario.transitions:
        ids.setdefault(rule.probs, len(ids))
    width = max(map(len, ids))
    cdf = np.full((len(ids), width), np.inf)
    targets = np.zeros((len(ids), width + 2), np.min_scalar_type(scenario.dim))
    masses = np.zeros((len(ids), width + 2))
    moves_below = np.zeros(len(ids))
    masses[0, 0] = 1.0
    for probs, row in list(ids.items())[1:]:
        table = _cumulative([p for _, p in probs])
        cdf[row, : len(probs)] = table
        targets[row, 1 : len(probs) + 1] = [to for to, _ in probs]
        masses[row, 1 : len(probs) + 1] = _steps(table)
        moves_below[row] = table[-1]
        masses[row, 0] = 1.0 - table[-1]
    m, markov = len(scenario.grid), scenario.rule == "markov"
    ticks = np.array((0.0,) + scenario.grid)
    column_of = {t: c for c, t in enumerate(scenario.grid, start=1)}
    shape, dtype = (m + 1, scenario.dim + 1, 1 if markov else m + 1), np.min_scalar_type(len(ids) - 1)
    size = math.prod(shape) * dtype.itemsize
    if size > MAX_RULE_TABLE_BYTES:
        raise ConfigError(
            f"the {scenario.rule} rule table of {m} grid times and dimension {scenario.dim} would take "
            f"{size} bytes, above the budget of {MAX_RULE_TABLE_BYTES}"
        )
    rows = np.zeros(shape, dtype)
    rows[0, 0] = ids[start]
    for rule in sorted(scenario.transitions, key=lambda rule: rule.when is not None):  # defaults first
        column = column_of[rule.time]
        entries = rows[column, rule.from_state]
        if rule.when is None:
            entries[:] = ids[rule.probs]
        else:
            entered = ticks[:column]
            feature = entered if scenario.rule == "entry_time_dependent" else rule.time - entered
            entries[:column][feature == rule.when] = ids[rule.probs]
    for array in (cdf, targets, masses, moves_below):
        array.setflags(write=False)
    rows = np.broadcast_to(rows, (m + 1, scenario.dim + 1, m + 1))
    return TransitionKernel(rows, cdf, targets, masses, moves_below)


def _tick_states(scenario: ScenarioConfig, u: np.ndarray) -> np.ndarray:
    """Every subject's state at the ticks (0,) + grid, drawn from its uniforms.

    Row i of ``u`` holds subject i's draws: column 0 picks the initial state,
    column c >= 1 the move at grid[c - 1].  The ticks are walked in order.
    At each one, every subject reads the kernel row of its state and entry
    column (the initial distribution at tick 0) and that row's
    ``moves_below``; the subjects whose uniform lies below it are the ones
    that move, and only they take an inverse-CDF lookup in their row.  The
    others stay, as the lookup would have them.  States use the narrowest
    dtype holding 0..d.
    """
    kernel = scenario.kernel
    n, m = len(u), len(scenario.grid)
    states = np.empty((n, m + 1), dtype=np.min_scalar_type(scenario.dim))
    current = np.zeros(n, dtype=np.intp)  # state 0 before time 0, as intp to index without a cast
    entered = np.zeros(n, dtype=np.intp)  # tick column where the current state began
    for column in range(m + 1):
        rows = kernel.rows[column][current, entered]
        draws = u[:, column]
        # np.take gathers by the narrow row ids several times faster than indexing does
        movers = np.flatnonzero(draws < np.take(kernel.moves_below, rows))
        rows = rows[movers]
        picks = _inverse_cdf(np.take(kernel.cdf, rows, axis=0), draws[movers])
        current[movers] = kernel.targets[rows, 1 + picks]
        entered[movers] = column
        states[:, column] = current
    return states


def _censoring_draws(censoring: CensoringConfig, m: int) -> int:
    """Uniforms one subject spends on censoring over an m-tick grid."""
    return {"none": 0, "independent_right": 1}.get(censoring.kind, m + 1)


def _slot_times(grid, censoring: CensoringConfig) -> tuple[list[float], list[int], list[float]]:
    """The times of ``_observed_columns``'s slots; and per censoring
    category, its first hidden slot (2m + 1 for none) and its cut time.
    Every switch of observation (a filter's span start, a cut) must lie
    strictly between the ticks around it, or ``ConfigError`` names them."""
    m, ticks = len(grid), (0.0, *grid)
    slot_times = [0.0]
    for before, t in zip(ticks, grid):
        slot_times += (0.5 * (before + t), t)
    cut_slot, cut_times = [2 * m + 1] * (len(censoring.after) + 1), [0.0] * (len(censoring.after) + 1)
    switches = []  # (tick before, switch time, tick after)
    if censoring.kind in ("state_filtering_conforming", "violating"):
        switches = list(zip(ticks, slot_times[1::2], grid))
    elif censoring.kind == "independent_right":
        # category c observes through after[c]'s time, then is cut at the
        # midpoint before the next grid time; the last one, ``never``, is not cut
        for c, (cut_after, _) in enumerate(censoring.after):
            j = bisect_right(grid, cut_after)
            if j < m:
                cut_slot[c], cut_times[c] = 2 * j + 1, 0.5 * (cut_after + grid[j])
                switches.append((ticks[j], cut_times[c], grid[j]))
    for before, switch, after in switches:
        if not before < switch < after:
            raise ConfigError(f"no time lies strictly between {before!r} and {after!r} for an observation switch")
    return slot_times, cut_slot, cut_times


def _observed_columns(
    censoring: CensoringConfig,
    slot_table: tuple[list[float], list[int], list[float]],
    states: np.ndarray,
    u: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Observed event histories of subjects with tick states ``states``, as
    (initial states, jump counts, jump times, jump states) columns.

    Row i of ``u`` holds subject i's censoring draws (``_censoring_draws``
    of them).  Span 0 covers time 0 only, and span i >= 1 grid time g_i:
    it starts at start_i, the midpoint between g_i and the grid time
    before it (or 0).  Observation can only change at a span start, and the
    path only at a grid tick, so the observed state is read at the slots
    0, start_1, g_1, start_2, g_2, ..., start_m, g_m: the path's state there
    where its span is observed, 0 where it is not.  A history keeps a slot
    only where the observed state differs from the previous slot's.  The
    observed state is the path's or 0; it never reports a state the path is
    not in.  ``slot_table`` is ``_slot_times`` of the grid and censoring.
    """
    slot_times, cut_slot, cut_times = slot_table
    n, width = states.shape
    m = width - 1
    doubled = np.repeat(np.arange(m + 1), 2)
    slot_span = doubled[1:]  # 0, 1, 1, 2, 2, ..., m, m
    values = states[:, doubled[:-1]]  # tick columns 0, 0, 1, 1, ..., m - 1, m - 1, m
    if censoring.kind in ("state_filtering_conforming", "violating"):
        seen = u < censoring.q
        if censoring.kind == "violating":
            # a span holding a transition of the subject is observed less often
            jumped = states[:, 1:] != states[:, :-1]
            seen[:, 1:][jumped] = u[:, 1:][jumped] < censoring.q * (1.0 - censoring.delta)
        values *= seen[:, slot_span]
    elif censoring.kind == "independent_right":
        weights = [p for _, p in censoring.after] + [censoring.never]
        category = _inverse_cdf(_cumulative(weights), u[:, 0])
        hide_from = np.array(cut_slot)[category]
        values *= np.arange(2 * m + 1) < hide_from[:, None]
    # the changes in row-major order, as (subject, slot - 1) pairs; the
    # subjects overwrite the flat indices, so that no third array is held
    changes = np.flatnonzero(values[:, 1:] != values[:, :-1])
    subjects, slots = np.divmod(changes, 2 * m, out=(changes, np.empty_like(changes)))
    slots += 1
    observed = values[subjects, slots]
    times = np.array(slot_times)[slots]
    if censoring.kind == "independent_right":
        # a cut subject's first hidden slot is read at its cut time
        at_cut = slots == hide_from[subjects]
        times[at_cut] = np.array(cut_times)[category[subjects[at_cut]]]
    return values[:, 0], np.bincount(subjects, minlength=n), times, observed


def simulate_sample(
    scenario: ScenarioConfig,
    censoring: CensoringConfig,
    n: int,
    seed: int,
    arm: int = 0,
) -> EventSample:
    """Draw n subjects, each from its own (seed, arm, subject) substream.

    Each subject takes all its uniforms in one block draw: one for the
    initial state, one per grid time, then its censoring draws.  That is the
    same stream as one scalar draw at a time from the subject's own
    generator (``subject_rng`` in ``tests/reference_impl.py``), so a sample
    does not depend on how the subjects are batched.  A block holds as many
    subjects as fit ``_BLOCK_DRAWS`` uniforms (at least one); its streams
    are seeded in one array pass and its subjects walk the ticks together.
    Seed and arm must be non-negative and subject ids, 0 to n - 1, below
    2**32, so that every subject's seed has the same words.
    """
    if n < 1:
        raise ConfigError("need at least one subject")
    if n > 2**32:
        raise ConfigError(f"subject ids must be below 2**32, got {n} subjects")
    if seed < 0 or arm < 0:
        raise ConfigError(f"seed and arm must be non-negative, got seed {seed} and arm {arm}")
    m = len(scenario.grid)
    k = 1 + m + _censoring_draws(censoring, m)
    size = max(1, _BLOCK_DRAWS // k)
    slot_table = _slot_times(scenario.grid, censoring)
    blocks = []
    for first in range(0, n, size):
        draws = np.empty((min(size, n - first), k))
        _fill_streams(seed, arm, first, draws)
        states = _tick_states(scenario, draws[:, : 1 + m])
        blocks.append(_observed_columns(censoring, slot_table, states, draws[:, 1 + m :]))
    initial, counts, times, states = (np.concatenate(column) for column in zip(*blocks))
    return EventSample(np.arange(n), initial, np.append(0, np.cumsum(counts)), times, states)


# -- canonical scenarios ------------------------------------------------------


def packaged_scenario(name: str) -> ScenarioConfig:
    """The scenario of the file ``name`` in the packaged corpus, ``prodint/corpus``."""
    with resources.as_file(resources.files(__package__) / "corpus" / name) as path:
        return load_scenario(path)


def illness_death_scenario() -> ScenarioConfig:
    """Three-state illness-death scenario whose death hazard remembers the
    illness entry time, which breaks the Markov property with only five
    distinct trajectories: the packaged ``idn.json``.

    Everyone starts healthy (state 1).  At t=1 and t=2 a healthy subject
    falls ill (state 2) with probability one half.  At t=3 an ill subject
    dies (state 3) with probability 0.8 if it fell ill at t=1 and 0.2 if
    at t=2.
    """
    return packaged_scenario("idn.json")
