"""Rescanning reference versions of the sampler's rule lookup, the filtering
censoring mechanisms, the Nelson-Aalen estimator, the path-space queries,
the count-mean defect suite and the product-variation bound.

These are the straightforward scans the library replaced with an indexed
lookup, a one-cursor walk, a sweep line, memoized tick-pair tables, a
one-pass defect sum and per-class cell terms.  They stay here, outside the
package, so that tests can require the fast versions to agree with them
exactly.
"""

import math

import numpy as np

from prodint import (
    AdditiveIF,
    BoundCheck,
    EstimateGrid,
    EventHistory,
    GeneralIF,
    Interval,
    defect_profile,
    matrix_norm,
    product_integral,
    refinement_partitions,
)
from prodint.checks import CheckRecord
from prodint.estimators import infer_dim
from prodint.simulation import _observation_spans


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
            if path.jump_at(scenario.grid[i - 1]) is not None:
                p_obs = censoring.q * (1.0 - censoring.delta)
        observed.append(rng.random() < p_obs)

    changes = []
    for (start, end), on in zip(spans, observed):
        changes.append((start, path.state_at(start) if on else 0))
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
            before = eh.state_before(u)
            if before >= 1:
                at_risk[before - 1] += 1
            after = eh.state_at(u)
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


# -- path-space queries, one loop over every path per call ----------------------


def statuses(path, a):
    left = path.state_before(a.lo) if a.lo_closed else path.state_at(a.lo)
    right = path.state_at(a.hi) if a.hi_closed else path.state_before(a.hi)
    return left, right


def occupation(ps, j, t, side="right"):
    total = 0.0
    for path, weight in ps.paths:
        state = path.state_at(t) if side == "right" else path.state_before(t)
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
        jump = path.jump_at(u)
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
            if path.jump_at(u) == (j, k):
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
