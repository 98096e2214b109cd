"""Empirical estimation from observed event histories.

An event history is one subject's observed trajectory over [0, tau], with
state 0 marking spans where the underlying process is unobserved (the
subject may re-enter observation later).  The estimators are the classical
counting-process ones:

* empirical transition counts  F_jk(t) = n^-1 sum_i #{observed j->k in (0,t]}
* empirical occupancies        p_j(t)  = n^-1 sum_i 1{X_i(t) = j}
* Nelson-Aalen increments      dL_jk(u) = dF_jk(u) / p_j(u-)
* Aalen-Johansen matrix        P(0,t) = prod_{u <= t} (I + dL(u))
* derived occupation curve     p(t) = p(0) @ P(0,t), with p(0) the
  renormalized observed initial distribution.

Transitions into or out of state 0 are never counted, and an unobserved
subject counts toward no state's risk set.  Tied event times across
subjects are pooled into one grid time.  Estimates are step functions,
evaluated by right continuity and extended as constants past the last
event time.  All accumulation runs in subject order, so results do not
depend on scheduling; the product over event times is inherently
sequential.
"""

from __future__ import annotations

import csv
import json
from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Literal, Sequence

import numpy as np

Side = Literal["right", "left"]


class FormatError(ValueError):
    """Malformed event-history input; the message names the offending line."""


class EstimationError(ValueError):
    """The sample cannot support the requested estimate."""


def _jump_error(previous_time: float, previous_state: int, t: float, s: int) -> str | None:
    """Why a jump to ``s`` at ``t`` cannot follow the previous one, or None if it can."""
    if not t > previous_time:  # also rejects NaN
        return "jump times must be strictly increasing and positive"
    if s == previous_state:
        return "consecutive states must differ"
    if s < 0:
        return "states are numbered from 0"
    return None


@dataclass(frozen=True)
class EventHistory:
    """One subject's observed path: initial state at time 0 plus jumps.

    States are integers in 0..d with 0 meaning unobserved; consecutive
    observed states differ and jump times are strictly increasing.
    """

    subject: int
    initial_state: int
    jumps: tuple[tuple[float, int], ...] = ()

    def __post_init__(self) -> None:
        if self.initial_state < 0:
            raise ValueError("states are numbered from 0")
        jumps = tuple((float(t), int(s)) for t, s in self.jumps)
        previous_time = 0.0
        previous_state = self.initial_state
        for t, s in jumps:
            error = _jump_error(previous_time, previous_state, t, s)
            if error is not None:
                raise ValueError(error)
            previous_time, previous_state = t, s
        object.__setattr__(self, "jumps", jumps)

    def state_at(self, t: float) -> int:
        state = self.initial_state
        for time, to in self.jumps:
            if time <= t:
                state = to
            else:
                break
        return state

    def state_before(self, t: float) -> int:
        state = self.initial_state
        for time, to in self.jumps:
            if time < t:
                state = to
            else:
                break
        return state

    @property
    def max_state(self) -> int:
        return max(self.initial_state, max((s for _, s in self.jumps), default=0))


def infer_dim(sample: Sequence[EventHistory]) -> int:
    """Largest observed state, as the default state-space dimension."""
    if not sample:
        raise EstimationError("empty sample")
    return max(max(eh.max_state for eh in sample), 1)


def empirical_counts(sample: Sequence[EventHistory], j: int, k: int, t: float) -> float:
    """Mean number of observed direct j -> k transitions in (0, t] per subject."""
    if not sample:
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


def empirical_occupancy(
    sample: Sequence[EventHistory], j: int, t: float, side: Side = "right"
) -> float:
    """Fraction of subjects observed in state j at t (or just before t)."""
    if not sample:
        raise EstimationError("empty sample")
    if j < 1:
        raise ValueError("occupancy is tracked for observable states >= 1")
    hits = 0
    for eh in sample:
        state = eh.state_at(t) if side == "right" else eh.state_before(t)
        if state == j:
            hits += 1
    return hits / len(sample)


@dataclass(frozen=True)
class EstimateGrid:
    """Estimates at the pooled observed transition times.

    ``hazard_steps[i]`` is the Nelson-Aalen increment matrix at
    ``times[i]``; ``transition[i]`` the running Aalen-Johansen product
    P(0, times[i]); ``occupation[i]`` the derived occupation row there.
    The transition and occupation parts are filled in by
    ``aalen_johansen`` and ``occupation_estimate``.
    """

    dim: int
    n: int
    times: tuple[float, ...]
    hazard_steps: tuple[np.ndarray, ...]
    transition: tuple[np.ndarray, ...] | None = None
    p0: np.ndarray | None = None
    occupation: tuple[np.ndarray, ...] | None = None

    def hazard_step_at(self, t: float) -> np.ndarray:
        """Increment at exactly ``t`` (zero matrix off the event grid)."""
        i = bisect_right(self.times, t) - 1
        if i >= 0 and self.times[i] == t:
            return self.hazard_steps[i]
        return np.zeros((self.dim, self.dim))

    def transition_at(self, t: float) -> np.ndarray:
        if self.transition is None:
            raise EstimationError("transition part not computed yet")
        i = bisect_right(self.times, t) - 1
        if i < 0:
            return np.eye(self.dim)
        return self.transition[i]

    def occupation_at(self, t: float) -> np.ndarray:
        if self.occupation is None or self.p0 is None:
            raise EstimationError("occupation part not computed yet")
        i = bisect_right(self.times, t) - 1
        if i < 0:
            return self.p0
        return self.occupation[i]

    def to_json_dict(self) -> dict:
        if self.transition is None or self.occupation is None or self.p0 is None:
            raise EstimationError("grid is not fully computed")
        return {
            "d": self.dim,
            "n": self.n,
            "p0": list(self.p0),
            "times": list(self.times),
            "hazard_steps": [step.tolist() for step in self.hazard_steps],
            "transition": [mat.tolist() for mat in self.transition],
            "occupation": [row.tolist() for row in self.occupation],
        }


def nelson_aalen(
    sample: Sequence[EventHistory], upto: float | None = None, dim: int | None = None
) -> EstimateGrid:
    """Pooled hazard increments at every observed transition time.

    At each event time u the increment is (observed j->k count at u) /
    (subjects observed in j just before u).  The denominator is at least
    one whenever the numerator is positive, because a subject observed to
    transition out of j at u is itself observed in j just before u.

    One sweep over the sorted jump times: the risk sets start from the
    time-0 states, each time's increment uses the risk sets held before
    that time's jumps, and then every jump -- counted or not, including
    moves into and out of state 0 -- moves one subject between risk sets.
    """
    if not sample:
        raise EstimationError("empty sample")
    d = dim if dim is not None else infer_dim(sample)
    at_risk = [0] * (d + 1)  # index 0 tallies the unobserved
    moves: dict[float, list[tuple[int, int]]] = {}
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


def aalen_johansen(grid: EstimateGrid) -> EstimateGrid:
    """Running forward products P(0, t) of (I + hazard increment).

    Each factor is row-stochastic because the off-diagonal increment row
    mass never exceeds one; the products therefore have nonnegative entries
    and unit row sums, which is checked.
    """
    eye = np.eye(grid.dim)
    running = eye
    transition = []
    for u, step in zip(grid.times, grid.hazard_steps):
        off = step.copy()
        np.fill_diagonal(off, 0.0)
        if not (off >= 0.0).all():
            raise EstimationError(f"negative hazard increment at {u}")
        if not (off.sum(axis=1) <= 1.0 + 1e-12).all():
            raise EstimationError(f"exit mass above one at {u}")
        running = running @ (eye + step)
        if not (running >= -1e-12).all():
            raise EstimationError(f"negative transition estimate at {u}")
        if not np.abs(running.sum(axis=1) - 1.0).max() <= 1e-12:
            raise EstimationError(f"row sums drift at {u}")
        transition.append(running)
    return replace(grid, transition=tuple(transition))


def occupation_estimate(sample: Sequence[EventHistory], grid: EstimateGrid) -> EstimateGrid:
    """Derived occupation curve: renormalized initial occupancy pushed forward."""
    if grid.transition is None:
        grid = aalen_johansen(grid)
    counts0 = np.zeros(grid.dim)
    for eh in sample:
        state = eh.initial_state
        if state >= 1:
            counts0[state - 1] += 1
    total = counts0.sum()
    if total == 0:
        raise EstimationError("no subject observed at time 0")
    p0 = counts0 / total
    occupation = tuple(p0 @ mat for mat in grid.transition)
    for u, row in zip(grid.times, occupation):
        if not ((row >= -1e-12).all() and row.sum() <= 1.0 + 1e-12):
            raise EstimationError(f"occupation estimate out of range at {u}")
    return replace(grid, p0=p0, occupation=occupation)


def estimate(
    sample: Sequence[EventHistory], upto: float | None = None, dim: int | None = None
) -> EstimateGrid:
    """Full pipeline: hazard increments, transition matrices, occupation curve."""
    grid = nelson_aalen(sample, upto=upto, dim=dim)
    grid = aalen_johansen(grid)
    return occupation_estimate(sample, grid)


# -- event-history CSV ------------------------------------------------------

CSV_HEADER = ("subject", "time", "state")


def read_event_histories(path, max_state: int | None = None) -> list[EventHistory]:
    """Read `subject,time,state` rows; the time-0 row gives the initial state.

    Raises FormatError naming the line of the first malformed row.  Each
    subject's jumps are validated once, by ``EventHistory``; only when that
    fails are its rows walked again to find the line.
    """
    rows_by_subject: dict[int, list[tuple[int, float, int]]] = {}
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
        except csv.Error as exc:  # e.g. a field above the csv module's size limit
            raise FormatError(f"line {reader.line_num}: {exc}") from None

    histories = []
    for subject in sorted(rows_by_subject):
        rows = rows_by_subject[subject]
        first_line, first_time, initial = rows[0]
        if first_time != 0.0:
            raise FormatError(f"line {first_line}: subject {subject} must start with a time-0 row")
        jumps = tuple((time, state) for _, time, state in rows[1:])
        try:
            histories.append(EventHistory(subject, initial, jumps))
        except ValueError:
            _raise_first_bad_row(rows)
            raise
    if not histories:
        raise FormatError("no subject rows found")
    return histories


def _raise_first_bad_row(rows: list[tuple[int, float, int]]) -> None:
    """Raise FormatError naming the first of one subject's rows that cannot
    follow the row before it."""
    _, previous_time, previous_state = rows[0]
    for lineno, time, state in rows[1:]:
        error = _jump_error(previous_time, previous_state, time, state)
        if error is not None:
            raise FormatError(f"line {lineno}: {error}") from None
        previous_time, previous_state = time, state


def write_event_histories(path, sample: Sequence[EventHistory]) -> int:
    """Write the CSV form; returns the number of data rows."""
    rows = 0
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_HEADER)
        for eh in sorted(sample, key=lambda h: h.subject):
            writer.writerow([eh.subject, 0.0, eh.initial_state])
            rows += 1
            for t, s in eh.jumps:
                writer.writerow([eh.subject, t, s])
                rows += 1
    return rows


def write_occupation_csv(path, grid: EstimateGrid) -> None:
    """Occupation curve as `t,p_1..p_d`, starting from the time-0 row."""
    if grid.p0 is None or grid.occupation is None:
        raise EstimationError("occupation part not computed yet")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t"] + [f"p_{j}" for j in range(1, grid.dim + 1)])
        writer.writerow([0.0] + list(grid.p0))
        for t, row in zip(grid.times, grid.occupation):
            writer.writerow([t] + list(row))


def write_grid_json(path, grid: EstimateGrid) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(grid.to_json_dict(), handle, indent=2)
        handle.write("\n")
