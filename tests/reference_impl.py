"""Rescanning and per-subject reference versions of the sampler, the
censoring mechanisms, the event-history CSV reader, the Nelson-Aalen
estimator, the path-space queries, the count-mean defect suite and the
product-variation bound, the per-subject estimate lookups the library
does not use, and the trajectory lookups (state at a time, just before it,
jump at it) that work on a ``StatePath`` and an ``EventHistory`` alike.

These are the straightforward scans and scalar walks the library replaced
with an indexed lookup, an array walk over all subjects at once, a bulk
parse, array counts and risk sets, memoized tick-pair tables, a one-pass
defect sum and per-class cell terms.  They stay here, outside the package,
so that tests can require the fast versions to agree with them exactly.
"""

import csv
import io
import math
from bisect import bisect_right
from dataclasses import replace

import numpy as np

from prodint import (
    AdditiveIF,
    BoundCheck,
    CensoringConfig,
    EstimateGrid,
    EventHistory,
    GeneralIF,
    Interval,
    ScenarioConfig,
    StatePath,
    defect_profile,
    matrix_norm,
    product_integral,
    refinement_partitions,
    subject_rng,
)
from prodint.checks import CheckRecord
from prodint.estimators import CSV_HEADER, EstimationError, FormatError, _jump_error, infer_dim
from prodint.simulation import _observation_spans


# -- trajectory lookups, for a StatePath or an EventHistory alike --------------


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


def sample_path(rng: np.random.Generator, scenario: ScenarioConfig) -> StatePath:
    """Draw one trajectory by walking the grid and the scenario's rule."""
    initial = _draw(rng, enumerate(scenario.initial)) + 1
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


def simulate_sample_per_subject(scenario, censoring, n, seed, arm=0):
    """simulate_sample one subject at a time, one scalar draw at a time."""
    sample = []
    for subject in range(n):
        rng = subject_rng(seed, subject, arm)
        path = sample_path(rng, scenario)
        sample.append(apply_censoring(rng, path, scenario, censoring, subject))
    return sample


def outgoing_scan(scenario, t, state, entered_at):
    """ScenarioConfig.outgoing by a scan over every rule."""
    feature = scenario.feature(t, entered_at)
    fallback = ()
    for rule in scenario.transitions:
        if rule.time != t or rule.from_state != state:
            continue
        if rule.when == feature and rule.when is not None:
            return rule.probs
        if rule.when is None:
            fallback = rule.probs
    return fallback


def filtering_censoring_rescan(rng, path, scenario, censoring, subject=0):
    """apply_censoring for the two filtering kinds, rescanning the path per span."""
    spans = _observation_spans(scenario.grid, scenario.tau)
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
    """nelson_aalen by looking up every subject's state at every event time."""
    d = dim if dim is not None else infer_dim(sample)
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
    return EstimateGrid(d, len(sample), tuple(kept_times), tuple(steps))


def nelson_aalen_per_jump(sample, upto=None, dim=None):
    """nelson_aalen as one sweep over the sorted jump times, subject by subject."""
    if not sample:
        raise EstimationError("empty sample")
    d = dim if dim is not None else infer_dim(sample)
    at_risk = [0] * (d + 1)  # index 0 tallies the unobserved
    moves = {}
    for eh in sample:
        if eh.max_state > d:
            raise EstimationError(
                f"subject {eh.subject} visits state {eh.max_state} beyond dimension {d}"
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
                        raise EstimationError("transition observed out of an empty risk set")
                    step[j] = counts[j] / at_risk[j + 1]
                    step[j, j] = -step[j].sum()
                steps.append(step)
                kept_times.append(u)
        for j, k in at_u:
            at_risk[j] -= 1
            at_risk[k] += 1
    return EstimateGrid(d, len(sample), tuple(kept_times), tuple(steps))


def occupation_per_subject(sample, grid):
    """occupation_estimate with the time-0 states tallied subject by subject."""
    counts0 = np.zeros(grid.dim)
    for eh in sample:
        if eh.initial_state >= 1:
            counts0[eh.initial_state - 1] += 1
    total = counts0.sum()
    if total == 0:
        raise EstimationError("no subject observed at time 0")
    p0 = counts0 / total
    return replace(grid, p0=p0, occupation=tuple(p0 @ mat for mat in grid.transition))


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


def hazard_step_at(grid, t):
    """The grid's increment at exactly ``t`` (zero matrix off the event grid)."""
    i = bisect_right(grid.times, t) - 1
    if i >= 0 and grid.times[i] == t:
        return grid.hazard_steps[i]
    return np.zeros((grid.dim, grid.dim))


def transition_at(grid, t):
    """The Aalen-Johansen estimate P(0, t), a step function of t."""
    if grid.transition is None:
        raise EstimationError("transition part not computed yet")
    i = bisect_right(grid.times, t) - 1
    if i < 0:
        return np.eye(grid.dim)
    return grid.transition[i]


# -- the per-subject event-history CSV reader ------------------------------------


def read_event_histories_per_subject(path, max_state=None):
    """Read the CSV row by row into one validated EventHistory per subject."""
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
            error = _jump_error(previous_time, previous_state, time, state)
            if error is not None:
                raise FormatError(f"line {lineno}: {error}")
            previous_time, previous_state = time, state
        histories.append(EventHistory(subject, initial, tuple((t, s) for _, t, s in rows[1:])))
    if not histories:
        raise FormatError("no subject rows found")
    return histories


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
    atoms = []
    for u in ps.event_times:
        mass = 0.0
        for path, w in ps.paths:
            if jump_at(path, u) == (j, k):
                mass += w
        if mass != 0.0:
            atoms.append((u, [[mass]]))
    return AdditiveIF(1, tuple(atoms))


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
                CheckRecord(
                    "count-mean-defect", final, 0.0, 1e-10, passed=final < 1e-10,
                    detail=f"{label} pair ({j},{k})",
                )
            )
    return records


def check_product_variation_bound(mu, a, depths=4):
    """The product-variation bound with one product integral per cell."""
    v = mu.variation(a)
    rhs = math.exp(v) * v
    eye = np.eye(mu.dim)
    lhs = 0.0
    for part in refinement_partitions(mu.support, a, depths):
        total = sum(matrix_norm(product_integral(mu, cell) - eye) for cell in part.cells)
        lhs = max(lhs, total)
    return BoundCheck(lhs, rhs, lhs <= rhs + 1e-12)
