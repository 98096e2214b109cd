"""Rescanning and per-subject reference versions of the sampler (with
each subject's own stream, ``subject_rng``), the grid sampler's tick walk
with a lookup for every subject at every tick, the censoring mechanisms,
the event-history CSV writer and reader, the Nelson-Aalen estimator, the
Aalen-Johansen product as one checked matrix product per event time, the
path-space queries, the hazard laws of a path space (its one-step
tables, event times, hazard atoms, exit hazards -- which the library
reads off its hazard's diagonal -- and occupation floors, with the
scaling of an additive function that negates an exit hazard there),
the hazard-side verify suites one record at a time (with their own
record type, and the occupation just before, the positivity blocks and
the sup of the hazard integral read path by path), the
refinement schedule as partitions of ``Interval`` cells (with the interval
length and intersection) and the transforms, variation norms and defects
that walk it one cell at a time, the count-mean defect suite and the
product-variation bound, the per-subject estimate lookups the library
does not use, the trajectory lookups (state at a time, just before it,
jump at it) of an ``EventHistory``, a ``PathSpace`` built from
hand-drawn trajectories through those lookups, and the ``EventSample`` of
a list of histories.

The censoring mechanisms and the reader keep their own copies of the
observation spans (``observation_spans``) and of the check of a row
against the one before it of its subject (``jump_error``); the library
computes the spans' starts where it reads them and checks every row at
once in its array assembly, so nothing here is imported from the code it
checks beyond its public types and the CSV header.

These are the straightforward scans and scalar walks the library replaced
with an indexed lookup, an array walk over all subjects at once that
looks up only the subjects that move, a bulk parse, array counts and risk
sets, memoized tick-pair tables, one-step tables with the laws derived
from them once per path space, running product integrals, a one-pass
defect sum and a refinement engine that reads a step-like function's
Young partition once.  They stay here, outside the package, so that
tests can require the fast versions to agree with them exactly.
"""

import csv
import io
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

import prodint
from prodint import (
    AdditiveIF,
    CensoringConfig,
    EventHistory,
    EventSample,
    GeneralIF,
    ConvergenceError,
    Interval,
    PathSpace,
    ScenarioConfig,
    StepFunction,
    matrix_norm,
    product_integral,
)
from prodint.estimators import CSV_HEADER, EstimationError, FormatError


class BoundCheck(NamedTuple):
    """A bound's two sides and whether it holds."""

    lhs: float
    rhs: float
    ok: bool


class CheckRecord(NamedTuple):
    """A verify record's fields, in the suites' order."""

    name: str
    lhs: float
    rhs: float
    tol: float
    passed: bool
    detail: str = ""
    kind: str = "equality"


def check_record(name, lhs, rhs, tol, passed, detail="", kind="equality"):
    """A ``CheckRecord`` with float sides and tolerance, as the suites make them."""
    return CheckRecord(name, float(lhs), float(rhs), float(tol), bool(passed), detail, kind)


# -- trajectory lookups, for any object with initial_state and jumps ----------


def state_at(path, t):
    """The state of ``path`` (an ``initial_state`` and sorted (time, state)
    ``jumps``) at ``t``; paths are right-continuous."""
    state = path.initial_state
    for time, to in path.jumps:
        if time > t:
            break
        state = to
    return state


def state_before(path, t):
    """The state of ``path`` just before ``t``; the time-0 state at t <= 0."""
    state = path.initial_state
    for time, to in path.jumps:
        if time >= t:
            break
        state = to
    return state


def tick_before(grid, t):
    """The last of the ticks (0,) + grid strictly before ``t``, or 0 at t <= 0:
    a path that jumps only on the grid is just before ``t`` in the state it
    holds at that tick."""
    return ((0.0,) + tuple(grid))[bisect_left(grid, t)]


def jump_at(path, t):
    """The (from_state, to_state) of a jump of ``path`` exactly at ``t``, if any."""
    state = path.initial_state
    for time, to in path.jumps:
        if time == t:
            return state, to
        if time > t:
            break
        state = to
    return None


def event_sample(histories):
    """The ``EventSample`` of ``EventHistory`` objects, ordered by subject id."""
    histories = sorted(histories, key=lambda h: h.subject)
    jumps = [jump for h in histories for jump in h.jumps]
    return EventSample(
        [h.subject for h in histories],
        [h.initial_state for h in histories],
        np.cumsum([0] + [len(h.jumps) for h in histories]),
        [t for t, _ in jumps],
        [s for _, s in jumps],
    )


def largest_state(path):
    """The largest state ``path`` visits, its time-0 state included."""
    return max([path.initial_state] + [s for _, s in path.jumps])


def pathspace(dim, tau, grid, paths):
    """The ``PathSpace`` of (trajectory, weight) pairs whose jumps lie on
    ``grid``: each trajectory's states at the ticks (0,) + grid, read with
    ``state_at``."""
    ticks = (0.0,) + tuple(grid)
    states = np.array([[state_at(path, t) for t in ticks] for path, _ in paths])
    return PathSpace(dim, tau, grid, states, np.array([w for _, w in paths]))


def branch_masses(outcomes):
    """The positive (value, mass) branches of the (value, prob) pairs and the
    stay mass, each a step of the running sum of the probabilities.

    Pairs whose probabilities sum to 1 within the validator's 1e-12 have
    their sum read as 1 from the last positive probability on, so that pair
    takes the rounding slack and no stay mass is left.
    """
    sums = []
    total = 0.0
    for _, p in outcomes:
        total += p
        sums.append(total)
    if outcomes and abs(total - 1.0) <= 1e-12:
        last = [i for i, (_, p) in enumerate(outcomes) if p > 0.0][-1]
        sums[last:] = [1.0] * (len(sums) - last)
    stay = 1.0 - sums[-1] if outcomes else 1.0
    steps = [(value, above - below) for (value, _), below, above in zip(outcomes, [0.0] + sums, sums)]
    return [(value, mass) for value, mass in steps if mass > 0.0], stay


def enumerate_paths(scenario):
    """exact_pathspace's paths and weights by a walk that carries each path's
    jump tuple: (EventHistory, weight) pairs, path i being subject i, with
    the stay branch first and then the targets in row order at every tick.

    Each branch's mass is a step of the running sum of its row (or of the
    initial distribution), as ``_draw`` walks it; see ``branch_masses``.
    """
    masses, _ = branch_masses(list(enumerate(scenario.initial, start=1)))
    frontier = [(s, s, 0.0, (), p) for s, p in masses]
    for t in scenario.grid:
        grown = []
        for initial, state, entered_at, jumps, weight in frontier:
            moves, stay = branch_masses(outgoing_scan(scenario, t, state, entered_at))
            if stay > 0.0:
                grown.append((initial, state, entered_at, jumps, weight * stay))
            for to, p in moves:
                grown.append((initial, to, t, jumps + ((t, to),), weight * p))
        frontier = grown
    return [
        (EventHistory(i, initial, jumps), weight)
        for i, (initial, _, _, jumps, weight) in enumerate(frontier)
    ]


# -- the per-subject sampler: scalar draws from each subject's stream ----------


def _draw(rng: np.random.Generator, outcomes) -> int | None:
    """Inverse-CDF draw over (value, prob) pairs; None for the stay mass.

    Pairs whose probabilities sum to 1 within the validator's 1e-12 leave no
    stay mass: the float residual of the sum (0.7 + 0.2 + 0.1 is
    0.9999999999999999) goes to the last pair with positive probability.
    """
    outcomes = tuple(outcomes)
    u = rng.random()
    acc = 0.0
    for value, p in outcomes:
        acc += p
        if u < acc:
            return value
    if outcomes and abs(acc - 1.0) <= 1e-12:
        return [value for value, p in outcomes if p > 0.0][-1]
    return None


def sample_path(rng: np.random.Generator, scenario: ScenarioConfig) -> EventHistory:
    """Draw one trajectory by walking the grid and the scenario's rule."""
    initial = _draw(rng, enumerate(scenario.initial)) + 1
    state = initial
    entered_at = 0.0
    jumps = []
    for t in scenario.grid:
        to = _draw(rng, outgoing_scan(scenario, t, state, entered_at))
        if to is not None:
            jumps.append((t, to))
            state = to
            entered_at = t
    return EventHistory(0, initial, tuple(jumps))


def observation_spans(grid, tau):
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
    path: EventHistory,
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
        cut_after = _draw(rng, censoring.after + ((None, censoring.never),))
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
    for i, (start, end) in enumerate(observation_spans(scenario.grid, scenario.tau)):
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


def subject_rng(seed, subject, arm=0):
    """The subject's own stream, which the sampler's block seeding reproduces."""
    return np.random.default_rng(np.random.SeedSequence((seed, arm, subject)))


def simulate_sample_per_subject(scenario, censoring, n, seed, arm=0):
    """simulate_sample one subject at a time, one scalar draw at a time."""
    sample = []
    for subject in range(n):
        rng = subject_rng(seed, subject, arm)
        path = sample_path(rng, scenario)
        sample.append(apply_censoring(rng, path, scenario, censoring, subject))
    return event_sample(sample)


def tick_states_full_width(scenario, u):
    """``_tick_states`` as a walk that looks every subject up at every tick:
    each one's inverse-CDF pick in the kernel row of its state and entry
    column, the count of cumulative entries at or below its uniform, a
    pick past the row's targets reading the stay column's 0."""
    kernel = scenario.kernel
    n, m = len(u), len(scenario.grid)
    states = np.empty((n, m + 1), dtype=np.min_scalar_type(scenario.dim))
    before = np.zeros(n, dtype=states.dtype)  # state 0 before time 0
    entered = np.zeros(n, dtype=np.intp)  # tick column where the current state began
    for column in range(m + 1):
        rows = kernel.rows[column][before, entered]
        to = kernel.targets[rows, 1 + (kernel.cdf[rows] <= u[:, column, None]).sum(axis=1)]
        before = states[:, column] = np.where(to, to, before)
        entered[to > 0] = column
    return states


def feature(scenario, t, entered_at):
    """The history feature a rule's ``when`` is matched against at grid time
    ``t``, for a state entered at ``entered_at``: None for a Markov rule."""
    if scenario.rule == "markov":
        return None
    if scenario.rule == "entry_time_dependent":
        return entered_at
    return t - entered_at


def outgoing_scan(scenario, t, state, entered_at):
    """The outgoing (target, probability) pairs at grid time ``t`` of a
    state entered at ``entered_at``, by a scan over every rule: the rule
    whose ``when`` equals the feature exactly, else the pair's default,
    else none."""
    value = feature(scenario, t, entered_at)
    fallback = ()
    for rule in scenario.transitions:
        if rule.time != t or rule.from_state != state:
            continue
        if rule.when == value and rule.when is not None:
            return rule.probs
        if rule.when is None:
            fallback = rule.probs
    return fallback


def filtering_censoring_rescan(rng, path, scenario, censoring, subject=0):
    """apply_censoring for the two filtering kinds, rescanning the path per span."""
    spans = observation_spans(scenario.grid, scenario.tau)
    observed = []
    for i, _ in enumerate(spans):
        p_obs = censoring.q
        if censoring.kind == "violating" and i >= 1:
            if jump_at(path, scenario.grid[i - 1]) is not None:
                p_obs = censoring.q * (1.0 - censoring.delta)
        observed.append(rng.random() < p_obs)

    changes = []
    for (start, end), on in zip(spans, observed):
        changes.append((start, state_at(path, start) if on else 0))
        if on:
            for t, s in path.jumps:
                if start < t < end:
                    changes.append((t, s))
    changes.sort()
    initial = changes[0][1]
    jumps = []
    current = initial
    for t, s in changes[1:]:
        if s != current:
            jumps.append((t, s))
            current = s
    return EventHistory(subject, initial, tuple(jumps))


def nelson_aalen_rescan(sample, upto=None, dim=None):
    """nelson_aalen's (times, steps) by looking up every subject's state at
    every event time."""
    d = dim if dim is not None else max([1] + [largest_state(eh) for eh in sample])
    observed_times = set()
    for eh in sample:
        state = eh.initial_state
        for t, to in eh.jumps:
            if state >= 1 and to >= 1 and (upto is None or t <= upto):
                observed_times.add(t)
            state = to

    steps = []
    kept_times = []
    for u in sorted(observed_times):
        counts = np.zeros((d, d))
        at_risk = np.zeros(d)
        for eh in sample:
            before = state_before(eh, u)
            if before >= 1:
                at_risk[before - 1] += 1
            after = state_at(eh, u)
            if before >= 1 and after >= 1 and after != before:
                counts[before - 1, after - 1] += 1
        if not counts.any():
            continue
        step = np.zeros((d, d))
        for j in range(d):
            if not counts[j].any():
                continue
            step[j] = counts[j] / at_risk[j]
            step[j, j] = -step[j].sum()
        steps.append(step)
        kept_times.append(u)
    return tuple(kept_times), np.array(steps).reshape(len(steps), d, d)


def nelson_aalen_per_jump(sample, upto=None, dim=None):
    """nelson_aalen's (times, steps) as one sweep over the sorted jump
    times, subject by subject."""
    if not sample:
        raise EstimationError("empty sample")
    d = dim if dim is not None else max([1] + [largest_state(eh) for eh in sample])
    at_risk = [0] * (d + 1)  # index 0 tallies the unobserved
    moves = {}
    for eh in sample:
        if largest_state(eh) > d:
            raise EstimationError(
                f"subject {eh.subject} visits state {largest_state(eh)} beyond dimension {d}"
            )
        state = eh.initial_state
        at_risk[state] += 1
        for t, to in eh.jumps:
            moves.setdefault(t, []).append((state, to))
            state = to

    steps = []
    kept_times = []
    for u in sorted(moves):
        at_u = moves[u]
        if upto is None or u <= upto:
            counts = np.zeros((d, d))
            for j, k in at_u:
                if j >= 1 and k >= 1:
                    counts[j - 1, k - 1] += 1
            if counts.any():
                step = np.zeros((d, d))
                for j in range(d):
                    if not counts[j].any():
                        continue
                    if at_risk[j + 1] < 1:
                        raise ValueError(
                            f"transitions out of state {j + 1} at {u} with nobody at risk just before"
                        )
                    step[j] = counts[j] / at_risk[j + 1]
                    step[j, j] = -step[j].sum()
                steps.append(step)
                kept_times.append(u)
        for j, k in at_u:
            at_risk[j] -= 1
            at_risk[k] += 1
    return tuple(kept_times), np.array(steps).reshape(len(steps), d, d)


def aalen_johansen_per_step(times, steps):
    """aalen_johansen as one running matrix product, checked after each
    event time."""
    eye = np.eye(steps.shape[-1])
    running = eye
    transition = []
    for u, step in zip(times, steps):
        running = running @ (eye + step)
        if not (running >= -1e-12).all():
            raise EstimationError(f"negative transition estimate at {u}")
        if not np.abs(running.sum(axis=1) - 1.0).max() <= 1e-12:
            raise EstimationError(f"row sums drift at {u}")
        transition.append(running)
    return np.array(transition).reshape(steps.shape)


def occupation_per_subject(sample, transition):
    """occupation_estimate's (p0, occupation) with the time-0 states tallied
    subject by subject."""
    counts0 = np.zeros(transition.shape[-1])
    for eh in sample:
        if eh.initial_state >= 1:
            counts0[eh.initial_state - 1] += 1
    total = counts0.sum()
    if total == 0:
        raise EstimationError("no subject observed at time 0")
    p0 = counts0 / total
    return p0, [p0 @ mat for mat in transition]


# -- estimate lookups and transition counts, one subject or step at a time ------


def empirical_counts(sample, j, k, t):
    """Mean number of observed direct j -> k transitions in (0, t] per subject."""
    if not len(sample):
        raise EstimationError("empty sample")
    if j < 1 or k < 1 or j == k:
        raise ValueError("need distinct observable states j != k, both >= 1")
    total = 0
    for eh in sample:
        state = eh.initial_state
        for time, to in eh.jumps:
            if state == j and to == k and 0.0 < time <= t:
                total += 1
            state = to
    return total / len(sample)


def empirical_occupancy(sample, j, t, side="right"):
    """Fraction of subjects observed in state j at t (or just before t)."""
    if not len(sample):
        raise EstimationError("empty sample")
    if j < 1:
        raise ValueError("occupancy is tracked for observable states >= 1")
    if side == "right":
        return int(np.count_nonzero(sample.states_at(t) == j)) / len(sample)
    return sum(state_before(eh, t) == j for eh in sample) / len(sample)


def transition_at(times, transition, t):
    """The Aalen-Johansen estimate P(0, t) from its values at ``times``, a
    step function of t."""
    i = bisect_right(times, t) - 1
    if i < 0:
        return np.eye(transition.shape[-1])
    return transition[i]


# -- the per-subject event-history CSV reader ------------------------------------


def jump_error(previous_time, previous_state, t, s):
    """Why a jump to ``s`` at ``t`` cannot follow the previous one, or None if it can."""
    if not t > previous_time:  # also rejects NaN
        return "jump times must be strictly increasing and positive"
    if t == math.inf:
        return "jump times must be finite"
    if s == previous_state:
        return "consecutive states must differ"
    if s < 0:
        return "states are numbered from 0"
    return None


def read_event_histories_per_subject(path, max_state=None):
    """Read the CSV row by row, validating each subject's rows in turn, into
    one EventHistory per subject, returned as their sample."""
    rows_by_subject = {}
    with open(path, "r", encoding="utf-8", newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None or tuple(h.strip() for h in header) != CSV_HEADER:
                raise FormatError(f"line 1: expected header {','.join(CSV_HEADER)}")
            for lineno, row in enumerate(reader, start=2):
                if not row or all(not field.strip() for field in row):
                    continue
                if len(row) != 3:
                    raise FormatError(f"line {lineno}: expected 3 fields, got {len(row)}")
                try:
                    subject = int(row[0])
                    time = float(row[1])
                    state = int(row[2])
                except ValueError as exc:
                    raise FormatError(f"line {lineno}: {exc}") from None
                if state < 0:
                    raise FormatError(f"line {lineno}: negative state {state}")
                if max_state is not None and state > max_state:
                    raise FormatError(f"line {lineno}: state {state} exceeds dimension {max_state}")
                if time < 0:
                    raise FormatError(f"line {lineno}: negative time {time}")
                rows_by_subject.setdefault(subject, []).append((lineno, time, state))
        except csv.Error as exc:
            raise FormatError(f"line {reader.line_num}: {exc}") from None

    histories = []
    for subject in sorted(rows_by_subject):
        rows = rows_by_subject[subject]
        first_line, first_time, initial = rows[0]
        if first_time != 0.0:
            raise FormatError(f"line {first_line}: subject {subject} must start with a time-0 row")
        _, previous_time, previous_state = rows[0]
        for lineno, time, state in rows[1:]:
            error = jump_error(previous_time, previous_state, time, state)
            if error is not None:
                raise FormatError(f"line {lineno}: {error}")
            previous_time, previous_state = time, state
        histories.append(EventHistory(subject, initial, tuple((t, s) for _, t, s in rows[1:])))
    if not histories:
        raise FormatError("no subject rows found")
    return event_sample(histories)


def csv_writer_text(sample):
    """The CSV text of a sample as csv.writer writes it, subject by subject."""
    handle = io.StringIO(newline="")
    writer = csv.writer(handle)
    writer.writerow(CSV_HEADER)
    for eh in sorted(sample, key=lambda h: h.subject):
        writer.writerow([eh.subject, 0.0, eh.initial_state])
        for t, s in eh.jumps:
            writer.writerow([eh.subject, t, s])
    return handle.getvalue()


# -- path-space queries, one loop over every path per call ----------------------


def statuses(path, a):
    left = state_before(path, a.lo) if a.lo_closed else state_at(path, a.lo)
    right = state_at(path, a.hi) if a.hi_closed else state_before(path, a.hi)
    return left, right


def occupation(ps, j, t, side="right"):
    total = 0.0
    for path, weight in ps.paths:
        state = state_at(path, t) if side == "right" else state_before(path, t)
        if state == j:
            total += weight
    return total


def transition(ps, j, k, a):
    conditioning = 0.0
    joint = 0.0
    for path, weight in ps.paths:
        left, right = statuses(path, a)
        if left == j:
            conditioning += weight
            if right == k:
                joint += weight
    if conditioning == 0.0:
        return 1.0 if j == k else 0.0
    return joint / conditioning


def indicator_mean(ps, j, k, a):
    total = 0.0
    for path, weight in ps.paths:
        left, right = statuses(path, a)
        if left == j and right == k:
            total += weight
    return total


def jump_mass(ps, u):
    mass = np.zeros((ps.dim, ps.dim))
    for path, w in ps.paths:
        jump = jump_at(path, u)
        if jump is not None:
            mass[jump[0] - 1, jump[1] - 1] += w
    return mass


def count_transitions(path, j, k, a):
    state = path.initial_state
    count = 0
    for time, to in path.jumps:
        if state == j and to == k and a.contains(time):
            count += 1
        state = to
    return count


def counting_mean(ps, j, k, a):
    return sum(w * count_transitions(path, j, k, a) for path, w in ps.paths)


def counting_mean_if(ps, j, k):
    times, masses = [], []
    for u in ps.event_times:
        mass = 0.0
        for path, w in ps.paths:
            if jump_at(path, u) == (j, k):
                mass += w
        if mass != 0.0:
            times.append(u)
            masses.append(mass)
    return AdditiveIF(1, times, masses)


def entry_if(f, j, k):
    """Entry (j, k) of the additive ``f`` as a scalar additive function, with
    an atom wherever that entry is nonzero, as ``counting_mean_if`` keeps them."""
    kept = [(t, m[j - 1, k - 1]) for t, m in zip(f.times, f.jumps) if m[j - 1, k - 1] != 0.0]
    return AdditiveIF(1, [t for t, _ in kept], [v for _, v in kept])


def event_times(ps):
    """The grid times at which some path jumps, read off the trajectories."""
    return tuple(sorted({t for path, _ in ps.paths for t, _ in path.jumps}))


def one_step_tables(ps):
    """(occupation at every tick, jump mass at every grid time), path by path."""
    ticks = (0.0,) + ps.grid
    occupations = [[occupation(ps, j, t) for j in range(1, ps.dim + 1)] for t in ticks]
    moves = [jump_mass(ps, u) for u in ps.grid]
    return np.array(occupations).reshape(len(ticks), ps.dim), np.array(moves).reshape(len(ps.grid), ps.dim, ps.dim)


def hazard_atoms(ps):
    """The hazard's (time, step) atoms, one event time and one state at a time."""
    atoms = []
    for u in event_times(ps):
        mass = jump_mass(ps, u)
        at_risk = [occupation(ps, j, u, side="left") for j in range(1, ps.dim + 1)]
        step = np.zeros((ps.dim, ps.dim))
        for j in range(ps.dim):
            row = mass[j]
            if not row.any():
                continue
            if at_risk[j] <= 0.0:
                raise ValueError(f"transitions out of state {j + 1} at {u} with nobody at risk just before")
            step[j] = row / at_risk[j]
            step[j, j] = -step[j].sum()
        if step.any():
            atoms.append((u, step))
    return atoms


def scaled(f, factor):
    """The additive function ``factor * f``: every atom scaled."""
    return AdditiveIF(f.dim, f.times, [factor * m for m in f.jumps])


def exit_hazard(ps, j):
    """The total exit hazard of state j: minus the j-th diagonal of the
    hazard's atoms, wherever that is nonzero."""
    kept = [(u, -step[j - 1, j - 1]) for u, step in hazard_atoms(ps) if step[j - 1, j - 1] != 0.0]
    return AdditiveIF(1, [u for u, _ in kept], [rate for _, rate in kept])


def occupation_lower_bound(ps, j, s, t):
    """The occupation floor from s to t, with one product integral of the
    negated exit hazard over (s, t]."""
    lhs = occupation(ps, j, t)
    start = occupation(ps, j, s)
    survival = 1.0
    if t > s:
        survival = product_integral(scaled(exit_hazard(ps, j), -1.0), Interval.open_closed(s, t))[0, 0]
    rhs = start * survival
    return BoundCheck(lhs, rhs, lhs >= rhs - 1e-12)


# -- the hazard-side verify suites, one record at a time ---------------------------


def occupation_identity_checks(ps, label=""):
    """One product integral of the hazard over (0, t] per grid time t."""
    hazard = ps.hazard_matrix()
    p0 = ps.occupation_vector(0.0)
    records = []
    for t in ps.grid:
        lhs = p0 @ product_integral(hazard, Interval.open_closed(0.0, t))
        rhs = ps.occupation_vector(t)
        gap = float(np.abs(lhs - rhs).max())
        records.append(check_record("occupation-identity", gap, 0.0, 1e-10, gap <= 1e-10, f"{label} t={t:g}"))
    return records


def positivity_blocks(ps, j):
    """The maximal (lo, hi) with occupation(j, u-) > 0 for every u in
    (lo, hi]: each run of ticks at which j is occupied, up to the tick that
    ends it (or tau), read path by path."""
    ticks = (0.0,) + ps.grid
    occupied = [occupation(ps, j, t) > 0.0 for t in ticks]
    blocks = []
    for i, tick in enumerate(ticks):
        if occupied[i] and (i == 0 or not occupied[i - 1]):
            ends = [ticks[e] for e in range(i + 1, len(ticks)) if not occupied[e]]
            blocks.append((tick, ends[0] if ends else ps.tau))
    return [(lo, hi) for lo, hi in blocks if hi > lo]


def block_shapes(lo, hi):
    """The subintervals of a positivity block the hazard integral is checked on."""
    shapes = [Interval.open_closed(lo, hi), Interval.open_open(lo, hi)]
    if lo > 0.0:
        shapes += [Interval.closed(lo, hi), Interval.closed_open(lo, hi)]
    mid = 0.5 * (lo + hi)
    if lo < mid < hi:
        shapes += [Interval.open_closed(lo, mid), Interval.open_closed(mid, hi)]
    return shapes


def hazard_integral_cases(ps):
    """The (j, k, shape) of every hazard-integral record, in record order."""
    for j in range(1, ps.dim + 1):
        for k in range(1, ps.dim + 1):
            if k != j:
                for lo, hi in positivity_blocks(ps, j):
                    for a in block_shapes(lo, hi):
                        yield j, k, a


def left_occupation(ps, j):
    """The step function t -> occupation(j, t-), read path by path: at each
    event time, and on each segment after one (or after 0)."""
    times = ps.event_times
    ats = [occupation(ps, j, u, side="left") for u in times]
    return StepFunction(times, ats, [occupation(ps, j, t) for t in (0.0,) + times])


def left_occupation_sup(ps, j, a):
    """The largest occupation(j, u-) over u in ``a``: at the event times in
    ``a``, at its closed ends and inside each open piece between them."""
    if a.is_point:
        return occupation(ps, j, a.lo, side="left")
    inside = [u for u in ps.event_times if a.lo < u < a.hi]
    edges = [a.lo] + inside + [a.hi]
    points = inside + [0.5 * (lo + hi) for lo, hi in zip(edges, edges[1:])]
    points += [end for end, closed in ((a.lo, a.lo_closed), (a.hi, a.hi_closed)) if closed]
    return max(occupation(ps, j, u, side="left") for u in points)


def hazard_integral_checks(ps, label=""):
    """Every record with its own integral of the occupation just before
    against the hazard entry, its own counts, hazard entry and sup, read
    path by path and one atom at a time."""
    records = []
    hazard = hazard_atoms(ps)
    for j, k, a in hazard_integral_cases(ps):
        integral = steps = 0.0
        for u, step in hazard:
            if a.contains(u):
                integral += occupation(ps, j, u, side="left") * step[j - 1, k - 1]
                steps += step[j - 1, k - 1]
        means = 0.0
        means_if = counting_mean_if(ps, j, k)
        for u, mass in zip(means_if.times, means_if.jumps):
            if a.contains(u):
                means += mass[0, 0]
        detail = f"{label} ({j},{k}) on {a}"
        records.append(check_record("hazard-integral", integral, means, 1e-12, abs(integral - means) <= 1e-12, detail))
        envelope = left_occupation_sup(ps, j, a) * steps
        records.append(
            check_record("integral-bound", abs(integral), envelope, 1e-12, abs(integral) <= envelope + 1e-12, detail, "bound")
        )
    return records


def occupation_bound_checks(ps, label=""):
    """One occupation floor, with its own product integral, per (j, s, t)."""
    records = []
    inflow = {k: any(jump_mass(ps, u)[:, k - 1].any() for u in ps.grid) for k in range(1, ps.dim + 1)}
    ticks = [0.0] + list(ps.grid)
    for j in range(1, ps.dim + 1):
        for si, s in enumerate(ticks):
            for t in ticks[si:]:
                lhs, rhs, ok = occupation_lower_bound(ps, j, s, t)
                where = f"{label} j={j} on [{s:g},{t:g}]"
                records.append(check_record("occupation-lower-bound", lhs, rhs, 1e-12, ok, where, kind="bound"))
                if not inflow[j]:
                    records.append(
                        check_record(
                            "occupation-bound-equality", lhs, rhs, 1e-12,
                            abs(lhs - rhs) <= 1e-12, f"{where} (no inflow)",
                        )
                    )
    return records


def markov_product_checks(rng, count, subintervals, random_scenario, random_subinterval):
    """Each subinterval drawn after its space is built and checked on its
    own: one transition matrix, product integral and norm per record.  The
    instances come from the suite's generators, passed in."""
    from prodint.simulation import exact_pathspace

    records = []
    for i in range(count):
        ps = exact_pathspace(random_scenario(rng, markov_only=True, positive_occupation=True))
        for _ in range(subintervals):
            a = random_subinterval(rng, tau=ps.tau)
            gap = matrix_norm(ps.transition_matrix(a) - product_integral(ps.hazard_matrix(), a))
            records.append(check_record("markov-product", gap, 0.0, 1e-10, gap <= 1e-10, f"instance {i} on {a}"))
    return records


# -- the refinement schedule as Interval partitions, one cell at a time ---------


def length(a):
    return a.hi - a.lo


def intersect(a, b):
    """The intersection of two intervals as an Interval, or None when it is empty."""
    lo = max(a.lo, b.lo)
    hi = min(a.hi, b.hi)
    if lo > hi:
        return None
    lo_closed = a.contains(lo) and b.contains(lo)
    hi_closed = a.contains(hi) and b.contains(hi)
    if lo == hi:
        return Interval(lo, hi, True, True) if lo_closed and hi_closed else None
    return Interval(lo, hi, lo_closed, hi_closed)


@dataclass(frozen=True)
class Partition:
    """Ordered finite partition of an interval into pairwise disjoint cells.

    Consecutive cells must meet exactly: same boundary time, complementary
    closedness.  The union of the cells is then itself an interval, exposed
    as ``span``.
    """

    cells: tuple

    def __post_init__(self):
        object.__setattr__(self, "cells", tuple(self.cells))
        if not self.cells:
            raise ValueError("a partition needs at least one cell")
        for left, right in zip(self.cells, self.cells[1:]):
            if left.hi != right.lo or left.hi_closed == right.lo_closed:
                raise ValueError(f"cells {left} and {right} do not tile an interval")

    @property
    def span(self):
        first, last = self.cells[0], self.cells[-1]
        return Interval(first.lo, last.hi, first.lo_closed, last.hi_closed)

    @property
    def mesh(self):
        return max(map(length, self.cells))

    def __len__(self):
        return len(self.cells)

    def __iter__(self):
        return iter(self.cells)


def refine(p, q):
    """Common refinement: the ordered nonempty pairwise cell intersections.

    Idempotent (``refine(p, p) == p``) and rejects partitions whose spans
    differ.
    """
    if p.span != q.span:
        raise ValueError(f"partitions cover different intervals: {p.span} vs {q.span}")
    cells = []
    for a in p.cells:
        for b in q.cells:
            cell = intersect(a, b)
            if cell is not None:
                cells.append(cell)
    return Partition(tuple(cells))


def young_partition(times, j):
    """Partition of ``j`` into singletons at ``times`` and the open gaps between.

    ``times`` must be strictly increasing and contained in ``j`` (its open
    endpoints excluded).  With no times the partition is ``{j}`` itself.
    """
    times = tuple(times)
    for earlier, later in zip(times, times[1:]):
        if not earlier < later:
            raise ValueError("cut times must be strictly increasing")
    for t in times:
        if not j.contains(t):
            raise ValueError(f"cut time {t} lies outside {j}")

    cells = []
    cursor = j.lo
    cursor_closed = j.lo_closed
    for t in times:
        if t > cursor:
            cells.append(Interval(cursor, t, cursor_closed, False))
        cells.append(Interval.point(t))
        cursor = t
        cursor_closed = False
    if cursor < j.hi:
        cells.append(Interval(cursor, j.hi, cursor_closed, j.hi_closed))
    elif not cells:
        cells.append(Interval.point(j.lo))
    return Partition(tuple(cells))


def halve_open_cells(p):
    """Refinement that splits every non-degenerate cell at its midpoint.

    A cell (a, b) becomes (a, m), [m, m], (m, b) with m the midpoint, so a
    Young-style partition stays Young-style and the mesh of the split cells
    is halved.
    """
    cells = []
    for cell in p.cells:
        if cell.is_point:
            cells.append(cell)
            continue
        mid = 0.5 * (cell.lo + cell.hi)
        cells.append(Interval(cell.lo, mid, cell.lo_closed, False))
        cells.append(Interval.point(mid))
        cells.append(Interval(mid, cell.hi, False, cell.hi_closed))
    return Partition(tuple(cells))


def refinement_partitions(support, a, max_depth):
    """Canonical refinement schedule of ``a``: the Young partition at the
    support times inside ``a``, then ``max_depth`` halvings of every open
    cell.  Yields ``max_depth + 1`` partitions."""
    times = sorted({t for t in support if a.contains(t)})
    part = young_partition(times, a)
    yield part
    for _ in range(max_depth):
        part = halve_open_cells(part)
        yield part


def young_partitions(support, a, max_depth):
    """The schedule as a step-like function that is neutral on its gaps (0
    for a sum, the identity for a product) sees it: the Young partition at
    the support times inside ``a`` at every depth, since halving a gap only
    adds cells worth the neutral element, and no float need lie inside a
    gap.  Yields ``max_depth + 1`` partitions."""
    young = young_partition(sorted({t for t in support if a.contains(t)}), a)
    for _ in range(max_depth + 1):
        yield young


def _limit_over_refinements(f, a, combine, tol, max_depth, what, partitions):
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    previous = None
    change = math.inf
    depth = -1
    for depth, part in enumerate(partitions(f.support, a, max_depth)):
        current = combine([f(cell) for cell in part])
        if not np.isfinite(current).all():
            raise ConvergenceError(f"{what} over {a} is not finite at depth {depth}", current, change, depth)
        if previous is not None:
            change = matrix_norm(current - previous)
            if change < tol:
                return current
        previous = current
    raise ConvergenceError(
        f"{what} over {a} still moved by {change:.3e} at depth {depth} (tol {tol:.1e})",
        previous,
        change,
        depth,
    )


def additive_transform(f, a, tol=1e-10, max_depth=24, partitions=refinement_partitions):
    return _limit_over_refinements(f, a, sum, tol, max_depth, "additive transform", partitions)


def _ordered_product(values):
    result = values[0]
    for value in values[1:]:
        result = result @ value
    return result


def multiplicative_transform(f, a, tol=1e-10, max_depth=24, partitions=refinement_partitions):
    return _limit_over_refinements(
        f, a, _ordered_product, tol, max_depth, "multiplicative transform", partitions
    )


def strict_transform_defect(f, target, cells, distance=matrix_norm):
    """Summed cell-wise distance between ``f`` and ``target`` over ``cells``."""
    return sum(distance(f(cell) - target(cell)) for cell in cells)


def defect_profile(f, target, a, depths=6, partitions=refinement_partitions):
    """Defect against ``target`` on the trivial partition and the schedule."""
    partitions = [Partition((a,))] + list(partitions(f.support, a, depths))
    defects = [strict_transform_defect(f, target, p) for p in partitions]
    return [("coarse", defects[0])] + [(f"depth {d}", v) for d, v in enumerate(defects[1:])]


def variation_norm(f, a, depth=6, partitions=refinement_partitions):
    """The largest summed cell norm of ``f`` over the schedule up to ``depth``."""
    best = 0.0
    for part in partitions(f.support, a, depth):
        best = max(best, sum(matrix_norm(f(cell)) for cell in part))
    return best


# -- outcomes compared bit for bit -------------------------------------------------


def bits(x):
    """``x`` as comparable bits, so that the sign of a zero and the type count."""
    if isinstance(x, (tuple, list)):
        return type(x).__name__, [bits(v) for v in x]
    if isinstance(x, np.ndarray):
        return "ndarray", x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, (float, np.floating)):
        return type(x).__name__, np.float64(x).tobytes()
    return type(x).__name__, x


def outcome(call, *args, **kwargs):
    """What ``call`` returns or raises, as bits: a value, the fields of a
    ``ConvergenceError``, or a too-narrow ``ValueError``."""
    try:
        return "value", bits(call(*args, **kwargs))
    except ConvergenceError as exc:
        return "unsettled", str(exc), bits(exc.last_value), bits(exc.last_change), exc.depth
    except ValueError:
        return "narrow"


def engine_readings(f, target, a, depth):
    """The outcome of each of the library's readers for ``f`` (against
    ``target`` for the defects) on ``a`` to ``depth``, with "refused" for
    a ``ConvergenceError`` that refuses a gap: one at depth 0 that has no
    change to report."""
    readings = {
        "additive_transform": lambda: prodint.additive_transform(f, a, max_depth=depth),
        "multiplicative_transform": lambda: prodint.multiplicative_transform(f, a, max_depth=depth),
        "variation_norm": lambda: prodint.variation_norm(f, a, depth),
        "strict_transform_defect": lambda: prodint.strict_transform_defect(f, target, a, depth),
        "defect_profile": lambda: prodint.defect_profile(f, target, a, depth),
    }
    outcomes = {name: outcome(read) for name, read in readings.items()}
    for name, got in outcomes.items():
        if got[0] == "unsettled" and got[-1] == 0 and got[3] == bits(math.inf):
            outcomes[name] = "refused"
    return outcomes


def young_readings(f, target, a, depth):
    """What ``engine_readings`` should give for the step-like ``f`` (and
    ``target``, step-like on the same support): each reader's reading of
    the Young partition of ``a`` alone, or "refused" where the term of a
    gap is not the neutral element (0, or the identity for the product)
    that the reader combines it with."""
    (young,) = refinement_partitions(f.support, a, 0)
    gaps = [cell for cell in young if not cell.is_point]
    zero = all(not f(cell).any() for cell in gaps)
    identity = all(np.array_equal(f(cell), np.eye(f.dim)) for cell in gaps)
    exact = all(not (f(cell) - target(cell)).any() for cell in gaps)
    settled = max(depth, 1)  # the limit compares two depths
    readings = {
        "additive_transform": (zero, lambda: additive_transform(f, a, max_depth=settled, partitions=young_partitions)),
        "multiplicative_transform": (
            identity,
            lambda: multiplicative_transform(f, a, max_depth=settled, partitions=young_partitions),
        ),
        "variation_norm": (zero, lambda: variation_norm(f, a, depth, young_partitions)),
        "strict_transform_defect": (exact, lambda: defect_profile(f, target, a, depth, young_partitions)[-1][1]),
        "defect_profile": (exact, lambda: defect_profile(f, target, a, depth, young_partitions)),
    }
    return {name: outcome(read) if neutral else "refused" for name, (neutral, read) in readings.items()}


def count_mean_defect_checks(ps, depths=6, label=""):
    """One full defect profile per (j, k) pair, keeping its deepest value."""
    window = Interval.open_closed(0.0, ps.tau)
    records = []
    for j in range(1, ps.dim + 1):
        for k in range(1, ps.dim + 1):
            if k == j:
                continue
            indicator = GeneralIF(
                1, lambda a, j=j, k=k: np.array([[indicator_mean(ps, j, k, a)]]),
                support=ps.event_times,
            )
            profile = defect_profile(indicator, counting_mean_if(ps, j, k), window, depths)
            final = profile[-1][1]
            records.append(
                check_record(
                    "count-mean-defect", final, 0.0, 1e-10, passed=final < 1e-10,
                    detail=f"{label} pair ({j},{k})",
                )
            )
    return records


def check_product_variation_bound(mu, a, depths=4, partitions=refinement_partitions):
    """The product-variation bound with one product integral per cell."""
    v = mu.variation(a)
    rhs = math.exp(v) * v
    eye = np.eye(mu.dim)
    lhs = 0.0
    for part in partitions(mu.support, a, depths):
        total = sum(matrix_norm(product_integral(mu, cell) - eye) for cell in part)
        lhs = max(lhs, total)
    return BoundCheck(lhs, rhs, lhs <= rhs + 1e-12)
