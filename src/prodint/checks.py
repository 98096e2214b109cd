"""Verification suites over the exact oracles and randomized instances.

Each suite compares an implemented quantity against an independently
computed reference and emits one record per comparison.  ``SUITES``
registers the suites ``prodint verify`` runs, under their command-line
names; the front end aggregates their records, and the acceptance tests
assert on them directly.  A suite over the exact laws checks one space;
its registry entry runs it over every space.  This module alone decides
pass or fail: the path-space oracle returns quantities, and each suite
makes its records from them.  Randomized generators draw their
probabilities from sixteenths so that enumerated path weights stay exact
binary floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .estimators import EstimationError, estimate
from .interval_functions import (
    AdditiveIF,
    GeneralIF,
    StepFunction,
    _identity,
    defect_profile,
    index_range,
    kolmogorov_integral,
    matrix_norm,
    multiplicative_transform,
    plus_identity,
    product_integral,
    product_integral_sweep,
    strict_transform_defect,
    variation_norm,
)
from .intervals import Interval
from .multistate import PathSpace
from .simulation import (
    CensoringConfig,
    ConfigError,
    ScenarioConfig,
    TransitionRule,
    exact_pathspace,
    exact_pathspaces,
    illness_death_scenario,
    simulate_sample,
)


class _Fields(NamedTuple):
    name: str
    lhs: float
    rhs: float
    tol: float
    passed: bool
    detail: str = ""
    kind: str = "equality"


class CheckRecord(_Fields):
    """One comparison.  An ``equality`` record asks |lhs - rhs| <= tol; a
    ``bound`` record asks for an inequality between lhs and rhs, whose
    direction the check that made it knows."""

    __slots__ = ()

    def __new__(cls, name, lhs, rhs, tol, passed, detail="", kind="equality"):
        return tuple.__new__(cls, (name, float(lhs), float(rhs), float(tol), bool(passed), detail, kind))


def close_record(name: str, lhs: float, rhs: float, tol: float, detail: str = "") -> CheckRecord:
    return CheckRecord(name, lhs, rhs, tol, abs(lhs - rhs) <= tol, detail)


# -- randomized instance generators ------------------------------------------

_DYADIC_TIMES = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0)
_ATOM_TIMES = tuple(k * 0.25 for k in range(1, 17))


class _Draws(NamedTuple):
    integers: Callable[[int, int], int]
    random: Callable[[], float]


@lru_cache(maxsize=1)
def _draws(rng: np.random.Generator) -> _Draws:
    """Scalar ``Generator.integers(lo, hi)`` and ``Generator.random()`` of ``rng``, read
    straight from the bit generator's C functions, without the argument handling
    of a ``Generator`` call.  ``integers`` is the bounded draw ``Generator.integers``
    makes for a span up to 2**32, Lemire's method on 32-bit words: a span of 1
    takes no word, and a word whose ``word * span`` has its low 32 bits below
    ``(2**32 - span) % span`` is drawn again.  Both read the C state that numpy's
    own methods read, PCG64's buffered half word included, so they interleave
    exactly with ``multinomial``, ``permutation`` and array draws.  The pair holds
    the state's address, not the generator: use it only while ``rng`` lives.  The
    last generator's pair is kept, since every generator below asks for it on
    each call."""
    bits = rng.bit_generator.ctypes
    state, next_uint32 = bits.state_address, bits.next_uint32

    def integers(lo: int, hi: int) -> int:
        span = hi - lo
        if span == 1:
            return lo
        if span <= 0:
            raise ValueError(f"low >= high: {lo} >= {hi}")
        if span > 2**32:
            raise ValueError(f"span {span} is above 2**32, where Generator.integers draws 64-bit words")
        threshold = (2**32 - span) % span
        scaled = next_uint32(state) * span
        while scaled & 0xFFFFFFFF < threshold:
            scaled = next_uint32(state) * span
        return lo + (scaled >> 32)

    return _Draws(integers, partial(bits.next_double, state))


def _choose(rng: np.random.Generator, n: int, k: int) -> list[int]:
    """The ``k`` of ``range(n)`` that ``Generator.choice`` picks without replacement,
    in its order and leaving the generator in the same state, from scalar draws.
    ``choice`` samples a population of at most 10,000 by Floyd's algorithm, one draw
    in 0..j for j = n - k .. n - 1 (a value already picked takes j), and then
    shuffles the picks, one draw in 0..i for i = k - 1 .. 1; a draw in 0..0 takes
    nothing from the generator."""
    if not 0 <= k <= n:
        raise ValueError(f"cannot take {k} of {n} without replacement")
    integers = _draws(rng).integers
    picked = []
    for j in range(n - k, n):
        value = integers(0, j + 1)
        picked.append(j if value in picked else value)
    for i in range(k - 1, 0, -1):
        swap = integers(0, i + 1)
        picked[i], picked[swap] = picked[swap], picked[i]
    return picked


def _sample(rng: np.random.Generator, items, size: int) -> list:
    """The ``size`` of ``items`` that ``Generator.choice`` draws without replacement,
    the same draws and generator state after, without making ``items`` an array."""
    return [items[i] for i in _choose(rng, len(items), size)]


def _sixteenths(rng: np.random.Generator, total_cap: int, count: int) -> list[float]:
    """``count`` nonnegative sixteenths whose total stays at or below the cap.
    ``count`` scalar ``integers`` draws draw what one of ``size=count`` does."""
    integers = _draws(rng).integers
    raw = [integers(0, total_cap + 1) for _ in range(count)]
    if sum(raw) > total_cap:
        budget = total_cap
        out = [0] * count
        for i in rng.permutation(count).tolist():
            out[i] = min(raw[i], budget)
            budget -= out[i]
        raw = out
    return [v / 16.0 for v in raw]


def random_scenario(
    rng: np.random.Generator,
    *,
    markov_only: bool = False,
    progressive: bool = False,
    positive_occupation: bool = False,
    forced_exit: bool = False,
) -> ScenarioConfig:
    """Small grid scenario with dyadic times and sixteenth probabilities.

    ``positive_occupation`` keeps every state occupied at all times (full
    initial support, exit mass strictly below one); ``forced_exit`` plants
    one certain total exit so that some occupation hits zero;
    ``progressive`` restricts transitions to higher-numbered states.

    The draws are pinned to the algorithms of numpy's ``Generator``, which CI
    pins to numpy 2.4.6: the verify digests fix every value drawn here.  The
    scalar draws go through the bit generator's C functions (``_draws``), the
    multinomial counts through ``Generator.multinomial``; both read one state.
    """
    integers, random = _draws(rng)
    dim = integers(2, 5)
    n_times = integers(1, 4)
    grid = tuple(sorted(_sample(rng, _DYADIC_TIMES, n_times)))
    tau = 4.0

    if positive_occupation:
        counts = [c + 1 for c in rng.multinomial(16 - dim, [1.0 / dim] * dim).tolist()]
    else:
        counts = rng.multinomial(16, [1.0 / dim] * dim).tolist()

    kinds = ("markov",) if markov_only else ("markov", "entry_time_dependent", "duration_dependent")
    kind = kinds[integers(0, len(kinds))]

    if forced_exit and counts[0] == 0:
        donor = counts.index(max(counts))
        counts[donor] -= 1
        counts[0] += 1
    initial = tuple(c / 16.0 for c in counts)

    rules = []
    for t in grid:
        for state in range(1, dim + 1):
            if random() < 0.35:
                continue
            lowest = state + 1 if progressive else 1
            targets = [s for s in range(lowest, dim + 1) if s != state]
            if not targets:
                continue
            chosen = _sample(rng, targets, min(len(targets), integers(1, 3)))
            cap = 12 if positive_occupation else 16
            probs = _sixteenths(rng, cap, len(chosen))
            pairs = tuple((int(s), p) for s, p in zip(chosen, probs) if p > 0.0)
            if not pairs:
                continue
            when = None
            if kind == "entry_time_dependent" and random() < 0.5:
                candidates = [0.0] + [g for g in grid if g < t]
                when = candidates[integers(0, len(candidates))]
            elif kind == "duration_dependent" and random() < 0.5:
                candidates = [t] + [t - g for g in grid if g < t]
                when = candidates[integers(0, len(candidates))]
            rules.append(TransitionRule(float(t), state, pairs, when=when))
            if when is not None and random() < 0.5:
                # add a default row so the feature match actually selects
                fallback = _sixteenths(rng, cap, len(chosen))
                fallback_pairs = tuple((int(s), p) for s, p in zip(chosen, fallback) if p > 0.0)
                if fallback_pairs:
                    rules.append(TransitionRule(float(t), state, fallback_pairs, when=None))

    if forced_exit:
        # a certain total exit from state 1 at the last grid time, with no
        # simultaneous inflow into it, so its occupation is exactly zero
        # there (an earlier certain exit may already have emptied it)
        last = float(grid[-1])
        rules = [
            r
            for r in rules
            if not (
                r.time == last
                and (r.from_state == 1 or any(to == 1 for to, _ in r.probs))
            )
        ]
        rules.append(TransitionRule(last, 1, ((min(2, dim), 1.0),)))

    return ScenarioConfig(dim, tau, grid, kind, initial, tuple(rules))


def random_jump_function(rng: np.random.Generator) -> AdditiveIF:
    """Pure-jump additive function on dyadic times: dimension 1 to 4, 1 to 6
    atoms, each atom's norm between 0.09 and 0.9."""
    integers, random = _draws(rng)
    dim = integers(1, 5)
    n_atoms = integers(1, 7)
    times = sorted(_sample(rng, _ATOM_TIMES, n_atoms))
    jumps = []
    for _ in times:
        raw = rng.uniform(-1.0, 1.0, size=(dim, dim))
        target = 0.9 * (0.1 + (1.0 - 0.1) * random())  # 0.9 * Generator.uniform(0.1, 1.0)
        jumps.append(raw * (target / matrix_norm(raw)))
    return AdditiveIF(dim, times, jumps)


def random_subinterval(rng: np.random.Generator, tau: float = 4.0) -> Interval:
    """Random dyadic subinterval of (0, tau], any of the four shapes."""
    integers, random = _draws(rng)
    lo, hi = sorted(_choose(rng, int(tau * 4) + 1, 2))
    lo_t, hi_t = lo * 0.25, hi * 0.25
    lo_closed = lo_t > 0.0 and bool(integers(0, 2))
    hi_closed = bool(integers(0, 2))
    if random() < 0.1 and lo_t > 0.0:
        return Interval.point(lo_t)
    return Interval(lo_t, hi_t, lo_closed, hi_closed)


# -- suites -------------------------------------------------------------------

PROFILE_DEPTHS = 6  # the hazard profile's depth rows, each the Young value of depth 0


def occupation_identity_checks(ps: PathSpace, label: str = "") -> list[CheckRecord]:
    """Initial occupation pushed through the hazard's product integral must
    reproduce the enumerated occupation at every grid time, Markov or not.
    One running product over the grid gives every (0, t] product integral."""
    p0 = ps.occupation_vector(0.0)
    records = []
    for t, product in zip(ps.grid, product_integral_sweep(ps.hazard_matrix(), 0.0, ps.grid)):
        lhs = p0 @ product
        rhs = ps.occupation_vector(t)
        records.append(
            close_record(
                "occupation-identity",
                float(np.abs(lhs - rhs).max()),
                0.0,
                1e-10,
                detail=f"{label} t={t:g}",
            )
        )
    return records


def hazard_defect_table(ps: PathSpace) -> list[tuple[str, float]]:
    """Defect profile of (transition - identity) against the hazard on
    (0, tau]: the trivial partition, then the refinement schedule.  Both
    functions are step-like on ``ps.event_times``, so the engine evaluates
    each support range once."""
    window = Interval.open_closed(0.0, ps.tau)
    return defect_profile(ps.transition_deviation_if(), ps.hazard_matrix(), window, PROFILE_DEPTHS)


def hazard_defect_checks(ps: PathSpace, label: str = "") -> list[CheckRecord]:
    """Defect of (transition - identity) against the hazard along the schedule."""
    values = [v for _, v in hazard_defect_table(ps)]
    non_increasing = all(b <= a + 1e-12 for a, b in zip(values, values[1:]))
    return [
        CheckRecord(
            "hazard-defect",
            values[-1],
            0.0,
            1e-10,
            passed=(values[-1] < 1e-10) and non_increasing,
            detail=f"{label} profile " + " ".join(f"{v:.3g}" for v in values),
        )
    ]


def chapman_kolmogorov_checks(ps: PathSpace | None = None) -> list[CheckRecord]:
    """The non-Markov witness on the illness-death oracle, the packaged ``idn.json``.

    The direct conditional probability of staying ill over (1, 3] is 0.2,
    while the multiplicative transform of the transition function (equal to
    the split product) has entry 0.4 there, so the transition function is
    not multiplicative.  Both constants were enumerated by hand over the
    five trajectories.
    """
    if ps is None:
        ps = exact_pathspace(illness_death_scenario())
    window = Interval.open_closed(1.0, 3.0)
    direct = ps.transition_matrix(window)
    transform = multiplicative_transform(ps.transition_if(), window)[1, 1]
    left = ps.transition_matrix(Interval.open_closed(1.0, 2.0))
    right = ps.transition_matrix(Interval.open_closed(2.0, 3.0))
    split_gap = np.abs(direct - left @ right).max()
    return [
        close_record("chapman-kolmogorov-direct", direct[1, 1], 0.2, 1e-12),
        close_record("chapman-kolmogorov-transform", transform, 0.4, 1e-12),
        CheckRecord(
            "chapman-kolmogorov-witness",
            split_gap,
            0.1,
            0.0,
            passed=split_gap >= 0.1,
            detail="max entrywise gap between P(a) and the split product",
            kind="bound",
        ),
    ]


def count_mean_defect_checks(ps: PathSpace, label: str = "") -> list[CheckRecord]:
    """Refinement sums of |status mean - expected count| vanish per pair.

    One defect on the Young partition gives every pair's sum at once: each
    entry adds its cells in the same order as a per-pair
    ``strict_transform_defect`` would.  Both functions are step-like on
    ``ps.event_times``, so each support range is evaluated once.
    """
    window = Interval.open_closed(0.0, ps.tau)
    defect = strict_transform_defect(ps.indicator_if(), ps.counting_mean(), window, distance=np.abs)
    records = []
    for j in range(1, ps.dim + 1):
        for k in range(1, ps.dim + 1):
            if k == j:
                continue
            final = float(defect[j - 1, k - 1])
            records.append(
                CheckRecord(
                    "count-mean-defect",
                    final,
                    0.0,
                    1e-10,
                    passed=final < 1e-10,
                    detail=f"{label} pair ({j},{k})",
                )
            )
    return records


def transform_duality_checks(
    rng: np.random.Generator, count: int = 100, subintervals: int = 10
) -> list[CheckRecord]:
    """Multiplicative transform of (identity + jumps) against the exact
    product integral, plus the exponential envelope: the variation of the
    product integral's deviation from the identity on (0, 4] is at most
    exp(V) * V, with V the exact variation of the jumps there."""
    records = []
    window = Interval.open_closed(0.0, 4.0)
    for i in range(count):
        mu = random_jump_function(rng)
        for _ in range(subintervals):
            a = random_subinterval(rng)
            via_transform = multiplicative_transform(plus_identity(mu), a)
            exact = product_integral(mu, a)
            records.append(
                close_record(
                    "transform-duality",
                    matrix_norm(via_transform - exact),
                    0.0,
                    1e-10,
                    detail=f"instance {i} on {a}",
                )
            )
        eye = _identity(mu.dim)
        # step-like as mu is: a cell's product integral depends only on the atoms it holds
        deviation = GeneralIF(mu.dim, lambda a: product_integral(mu, a) - eye, mu.support, mu.step_like)
        lhs = variation_norm(deviation, window)
        v = mu.variation(window)
        rhs = math.exp(v) * v
        records.append(
            CheckRecord(
                "transform-bound", lhs, rhs, 1e-12, lhs <= rhs + 1e-12, detail=f"instance {i}", kind="bound"
            )
        )
    return records


def _positivity_blocks(ps: PathSpace, j: int) -> list[tuple[float, float]]:
    """Maximal (lo, hi) with occupation(j, u-) > 0 for every u in (lo, hi].

    The occupation is constant between grid times, so a block runs from the
    first tick where it is positive up to the tick where it vanishes.
    """
    ticks = [0.0] + list(ps.grid)
    values = [ps.occupation(j, t) for t in ticks]
    blocks = []
    start = None
    for tick, value in zip(ticks, values):
        if value > 0.0 and start is None:
            start = tick
        if value == 0.0 and start is not None:
            blocks.append((start, tick))
            start = None
    if start is not None:
        blocks.append((start, ps.tau))
    return [(lo, hi) for lo, hi in blocks if hi > lo]


def _left_occupation(ps: PathSpace, j: int) -> StepFunction:
    """The step function t -> occupation(j, t-).  Left-continuous: the value
    at an event time is the value of the segment below it."""
    times = ps.event_times
    betweens = tuple(ps.occupation(j, tick) for tick in (0.0,) + times)
    return StepFunction(times, betweens[: len(times)], betweens)


def _block_shapes(lo: float, hi: float) -> list[Interval]:
    """The subintervals of a positivity block the hazard integral is checked on."""
    shapes = [Interval.open_closed(lo, hi), Interval.open_open(lo, hi)]
    if lo > 0.0:
        shapes += [Interval.closed(lo, hi), Interval.closed_open(lo, hi)]
    mid = 0.5 * (lo + hi)
    if lo < mid < hi:
        shapes += [Interval.open_closed(lo, mid), Interval.open_closed(mid, hi)]
    return shapes


def hazard_integral_checks(ps: PathSpace, label: str = "") -> list[CheckRecord]:
    """The expected counts as the integral of the occupation just before
    against the hazard, N(a) = int_a p_j(u-) dL(u), on subintervals of the
    positivity windows, and the sup-bound of the integral.

    For each state j and shape, row j of ``kolmogorov_integral`` is taken
    once; the hazard and the counts do not depend on j, so each is taken
    once per distinct shape.  The hazard's off-diagonals are nonnegative,
    so their variation on a shape is their value there.  Records go out in
    (j, k, shape) order.
    """
    records = []
    hazard, counts = ps.hazard_matrix(), ps.counting_mean()
    laws = {}  # shape -> (hazard, counts) there
    for j in range(1, ps.dim + 1):
        occupation = _left_occupation(ps, j)
        rows = []  # (shape, sup of the integrand, then row j of the integral, the hazard and the counts)
        for lo, hi in _positivity_blocks(ps, j):
            for a in _block_shapes(lo, hi):
                if a not in laws:
                    laws[a] = (hazard(a), counts(a))
                values = (kolmogorov_integral(occupation, hazard, a), *laws[a])
                rows.append((str(a), occupation.sup_abs(a), *(v[j - 1].tolist() for v in values)))
        for k in range(1, ps.dim + 1):
            if k == j:
                continue
            for shape, sup, integral, steps, means in rows:
                detail = f"{label} ({j},{k}) on {shape}"
                records.append(close_record("hazard-integral", integral[k - 1], means[k - 1], 1e-12, detail))
                norm, envelope = abs(integral[k - 1]), sup * steps[k - 1]
                records.append(
                    CheckRecord(
                        "integral-bound",
                        norm,
                        envelope,
                        1e-12,
                        passed=norm <= envelope + 1e-12,
                        detail=detail,
                        kind="bound",
                    )
                )
    return records


def markov_product_checks(
    rng: np.random.Generator, count: int = 50, subintervals: int = 8
) -> list[CheckRecord]:
    """Transition probabilities equal the hazard's product integral in the
    Markov case, for all four interval shapes.

    Scenarios keep every occupation positive so the zero-conditioning
    convention never has to stand in for an actual conditional probability.
    The hazard is pure-jump, so its product integral depends only on the
    range of event times a subinterval holds and is computed once per range.
    The laws are enumerated in one batch (``exact_pathspaces``).
    """
    # nothing below draws from rng, so drawing every law and its subintervals first keeps every draw
    records, scenarios, drawn = [], [], []
    for _ in range(count):
        scenarios.append(random_scenario(rng, markov_only=True, positive_occupation=True))
        drawn.append([random_subinterval(rng, tau=scenarios[-1].tau) for _ in range(subintervals)])
    for i, (ps, shapes) in enumerate(zip(exact_pathspaces(scenarios), drawn)):
        hazard = ps.hazard_matrix()
        products, expected = {}, []
        for a in shapes:
            span = index_range(hazard.times, a)
            if span not in products:
                products[span] = product_integral(hazard, a)
            expected.append(products[span])
        # every gap's matrix_norm at once, none without subintervals: largest |row| sum
        differences = np.array([ps.transition_matrix(a) for a in shapes]) - np.array(expected)
        gaps = np.abs(differences).reshape(-1, ps.dim, ps.dim).sum(axis=2).max(axis=1).tolist()
        records += [
            close_record("markov-product", gap, 0.0, 1e-10, detail=f"instance {i} on {a}")
            for a, gap in zip(shapes, gaps)
        ]
    return records


def occupation_bound_checks(ps: PathSpace, label: str = "") -> list[CheckRecord]:
    """Occupation floors on all grid pairs; equality where no mass flows in.

    The floor of j from s to t is the occupation at s times the product
    integral of ``1 - exit hazard`` over (s, t]; it is attained exactly when
    the state gains no mass on the way.  Its factors are 1 plus the nonzero
    (j, j) entries of the hazard's jumps; one running survival product per
    state and start tick gives the floors at every later tick."""
    records = []
    inflow = ps.counting_mean().jumps.any(axis=(0, 1))
    hazard = ps.hazard_matrix()
    ticks = [0.0] + list(ps.grid)
    for j in range(1, ps.dim + 1):
        exits = hazard.jumps[:, j - 1, j - 1]
        held = exits != 0.0
        survival = AdditiveIF(1, np.compress(held, hazard.times), exits[held])
        for si, s in enumerate(ticks):
            start = ps.occupation(j, s)
            for t, product in zip(ticks[si:], product_integral_sweep(survival, s, ticks[si:])):
                lhs, rhs = ps.occupation(j, t), start * float(product[0, 0])
                detail = f"{label} j={j} on [{s:g},{t:g}]"
                floor = CheckRecord("occupation-lower-bound", lhs, rhs, 1e-12, lhs >= rhs - 1e-12, detail, "bound")
                records.append(floor)
                if not inflow[j - 1]:
                    records.append(
                        close_record("occupation-bound-equality", lhs, rhs, 1e-12, detail=f"{detail} (no inflow)")
                    )
    return records


def extinction_checks(ps: PathSpace, label: str = "") -> list[CheckRecord]:
    """Wherever an occupation hits zero the exit atoms there must total one.

    On a finite path space the occupation can only vanish at a jump time at
    which every remaining occupant leaves, so the exit-hazard atom after
    which the state is empty, minus the (j, j) entry of the hazard's atom
    there, is its exit mass, and must be one.  A single space need not hold
    an extinction; the ``extinction-exit`` entry of ``SUITES`` asks the
    corpus to hold one.
    """
    records = []
    hazard = ps.hazard_matrix()
    for j in range(1, ps.dim + 1):
        for u, exit_rate in zip(hazard.times, hazard.jumps[:, j - 1, j - 1]):
            if exit_rate != 0.0 and ps.occupation(j, u) == 0.0:
                detail = f"{label} j={j} at t={u:g}"
                records.append(close_record("extinction-exit", -exit_rate, 1.0, 1e-12, detail=detail))
    return records


def uncensored_identity_checks(rng: np.random.Generator, count: int) -> list[CheckRecord]:
    """On fully observed samples the derived occupation curve must equal the
    raw observed proportions at every event time."""
    none = CensoringConfig("none")
    integers = _draws(rng).integers
    records = []
    for i in range(count):
        scenario = random_scenario(rng)
        n = integers(1, 21)
        seed = integers(0, 2**31)
        sample = simulate_sample(scenario, none, n, seed)
        grid = estimate(sample, dim=scenario.dim)
        worst = 0.0
        probe_times = (0.0,) + grid.times
        for t in probe_times:
            estimated = grid.occupation_at(t) if t > 0.0 else grid.p0
            # the fraction of subjects observed in each state
            observed = np.bincount(sample.states_at(t), minlength=grid.dim + 1)[1:] / n
            worst = max(worst, float(np.abs(estimated - observed).max()))
        records.append(
            close_record("uncensored-identity", worst, 0.0, 1e-12, detail=f"sample {i} (n={n})")
        )
    return records


# -- the suite registry --------------------------------------------------------


@dataclass(frozen=True)
class SuiteInputs:
    """What a suite of ``prodint verify`` draws on: the exact laws with their
    labels, the generator of the randomized suites, ``--count``, and whether
    the laws are the corpus or one ``--scenario``.  A corpus is built to hold
    an extinction boundary, so on a corpus the ``extinction-exit`` suite
    fails when no space gives one."""

    spaces: Sequence[PathSpace]
    labels: Sequence[str]
    rng: np.random.Generator
    count: int
    corpus: bool = True


def _each_space(check, inputs: SuiteInputs) -> list[CheckRecord]:
    records = []
    for ps, label in zip(inputs.spaces, inputs.labels):
        try:
            records += check(ps, label=label)
        except ValueError as exc:  # named by the space's label: its file name, or "random i"
            raise ValueError(f"{label}: {exc}") from None
    return records


def _extinction_suite(run: SuiteInputs) -> list[CheckRecord]:
    records = _each_space(extinction_checks, run)
    if run.corpus and not records:
        detail = "no extinction boundary found in the corpus"
        records.append(CheckRecord("extinction-exit", 0.0, 0.0, 0.0, False, detail))
    return records


# Every suite of ``prodint verify``, in the order it runs them.  The order
# fixes every record: transform-duality, markov-product and
# uncensored-identity draw from the one generator in turn.  Each runner
# looks its check function up by name when it runs, so a rebinding of the
# module attribute (a span tracer, a test's monkeypatch) takes effect.
SUITES: dict[str, Callable[[SuiteInputs], list[CheckRecord]]] = {
    "occupation-identity": lambda run: _each_space(occupation_identity_checks, run),
    "hazard-defect": lambda run: _each_space(hazard_defect_checks, run),
    "chapman-kolmogorov": lambda run: chapman_kolmogorov_checks(),
    "count-mean-defect": lambda run: _each_space(count_mean_defect_checks, run),
    "transform-duality": lambda run: transform_duality_checks(run.rng, count=run.count),
    "hazard-integral": lambda run: _each_space(hazard_integral_checks, run),
    "markov-product": lambda run: markov_product_checks(run.rng, count=max(50, run.count // 2)),
    "occupation-lower-bound": lambda run: _each_space(occupation_bound_checks, run),
    "extinction-exit": _extinction_suite,
    "uncensored-identity": lambda run: uncensored_identity_checks(run.rng, count=run.count),
}


def convergence_study(
    scenario: ScenarioConfig,
    conforming: CensoringConfig,
    violating: CensoringConfig | None,
    ns,
    seed: int,
    sup_tol: float,
    bias_floor: float,
) -> tuple[list[CheckRecord], list[dict]]:
    """Sup-norm error of the estimated occupation curve against the exact one.

    Runs the conforming arm at each sample size (errors must strictly
    decrease, or stay exactly 0.0, and end below ``sup_tol``) and the
    violating arm at the largest size (its error must exceed
    ``bias_floor``).  A sample the sampler refuses to draw or the
    estimators cannot take raises an ``EstimationError`` that names its
    arm, size and seed.
    """
    oracle = exact_pathspace(scenario)
    truth = {t: oracle.occupation_vector(t) for t in scenario.grid}
    table = []

    def sup_error(name: str, censoring: CensoringConfig, n: int, arm: int) -> float:
        try:
            sample = simulate_sample(scenario, censoring, n, seed, arm=arm)
            grid = estimate(sample, dim=scenario.dim, upto=scenario.tau)
        except (ConfigError, EstimationError) as exc:
            raise EstimationError(f"{name} arm at n={n}, seed {seed}: {exc}") from None
        error = max(float(np.abs(grid.occupation_at(t) - truth[t]).max()) for t in scenario.grid)
        table.append({"arm": name, "n": n, "sup_error": error})
        return error

    errors = [sup_error("conforming", conforming, int(n), 0) for n in ns]

    records = []
    if len(ns) > 1:
        pairs = list(zip(errors, errors[1:]))
        drop = min(a - b for a, b in pairs)
        falls = all(a > b or a == b == 0.0 for a, b in pairs)  # an exact estimate has no error left to lose
        detail = "errors " + " ".join(f"{e:.4f}" for e in errors)
        records.append(CheckRecord("convergence-decreasing", drop, 0.0, 0.0, falls, detail, "bound"))
    final, detail = errors[-1], f"n={ns[-1]}"
    records.append(CheckRecord("convergence-final", final, sup_tol, 0.0, final < sup_tol, detail, "bound"))
    if violating is not None:
        biased = sup_error("violating", violating, int(ns[-1]), 1)
        records.append(CheckRecord("violation-bias", biased, bias_floor, 0.0, biased > bias_floor, detail, "bound"))
    return records, table

