"""Rescanning reference versions of the sampler's rule lookup, the filtering
censoring mechanisms and the Nelson-Aalen estimator.

These are the straightforward scans the library replaced with an indexed
lookup, a one-cursor walk and a sweep line.  They stay here, outside the
package, so that tests can require the fast versions to agree with them
exactly.
"""

import numpy as np

from prodint import EstimateGrid, EventHistory
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
