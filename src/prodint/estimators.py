"""Empirical estimation from observed event histories.

An event history is one subject's observed trajectory over [0, tau], with
state 0 marking spans where the underlying process is unobserved (the
subject may re-enter observation later).  A sample of them is held in
columns (``EventSample``); the estimators are the classical
counting-process ones:

* empirical occupancies        p_j(t)  = n^-1 sum_i 1{X_i(t) = j}
* Nelson-Aalen increments      dL_jk(u) = dN_jk(u) / Y_j(u-), with N_jk
  counting observed direct j->k transitions and Y_j(u-) the subjects
  observed in j just before u
* Aalen-Johansen matrix        P(0,t) = prod_{u <= t} (I + dL(u))
* derived occupation curve     p(t) = p(0) @ P(0,t), with p(0) the
  renormalized observed initial distribution.

Transitions into or out of state 0 are never counted, and an unobserved
subject counts toward no state's risk set.  Tied event times across
subjects are pooled into one grid time.  Estimates are step functions,
evaluated by right continuity and extended as constants past the last
event time.  Counts and risk sets are integers, so the estimates do not
depend on the order of the subjects; the product over event times is
inherently sequential.
"""

from __future__ import annotations

import csv
import io
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Literal, NamedTuple

import numpy as np

from .interval_functions import HazardMatrixIF, first_failure, product_integral_sweep

Side = Literal["right", "left"]

# Largest number of float64 entries, (event times + 1) * d * d, that an
# estimate may hold in each of its hazard and transition parts: 2**24
# entries are 128 MiB per part.  The dimension d is the largest state of a
# sample unless given, so one stray state number could otherwise ask for
# more memory than the machine has.
MAX_GRID_ENTRIES = 2**24


class FormatError(ValueError):
    """Malformed event-history input; the message names the offending line."""


class EstimationError(ValueError):
    """The sample cannot support the requested estimate."""


class GridBudgetError(EstimationError):
    """The estimate would hold more than ``MAX_GRID_ENTRIES`` entries per part."""


def _jump_error(previous_time: float, previous_state: int, t: float, s: int) -> str | None:
    """Why a jump to ``s`` at ``t`` cannot follow the previous one, or None if it can."""
    if not t > previous_time:  # also rejects NaN
        return "jump times must be strictly increasing and positive"
    if s == previous_state:
        return "consecutive states must differ"
    if s < 0:
        return "states are numbered from 0"
    return None


class EventHistory(NamedTuple):
    """One subject of an ``EventSample``, as iterating the sample yields it:
    the subject id, its state at time 0 and its (time, state) jumps.

    A read-only view of columns the sample has already validated; it
    checks nothing itself.
    """

    subject: int
    initial_state: int
    jumps: tuple[tuple[float, int], ...]


def _column(values, dtype) -> np.ndarray:
    column = np.array(values, dtype=dtype)
    if column.ndim != 1:
        raise ValueError("sample columns must be one-dimensional")
    column.setflags(write=False)
    return column


class EventSample:
    """A sample of event histories held in columns.

    Subject ``subjects[i]`` (strictly increasing) starts in ``initial[i]`` at
    time 0 and makes the jumps ``offsets[i]:offsets[i + 1]`` of ``times`` and
    ``states``.  Within a subject, jump times are positive and strictly
    increasing and consecutive states differ; states are numbered from 0,
    which marks an unobserved span.  The columns are validated once, when
    the sample is made, and are read-only.  ``sources[k]`` is the state
    jump k leaves and ``max_state`` the largest state of the sample (0 when
    it has none).  The estimators read these columns; iteration yields
    each subject's ``EventHistory`` view of them.
    """

    def __init__(self, subjects, initial, offsets, times, states) -> None:
        self.subjects = _column(subjects, np.int64)
        self.initial = _column(initial, np.int64)
        self.offsets = _column(offsets, np.int64)
        self.times = _column(times, np.float64)
        self.states = _column(states, np.int64)
        n, size = len(self.subjects), len(self.times)
        if len(self.initial) != n or len(self.offsets) != n + 1 or len(self.states) != size:
            raise ValueError("sample columns have inconsistent lengths")
        counts = np.diff(self.offsets)
        if self.offsets[0] != 0 or self.offsets[-1] != size or (counts < 0).any():
            raise ValueError("jump offsets must rise from 0 to the number of jumps")
        if (np.diff(self.subjects) <= 0).any():
            raise ValueError("subject ids must be strictly increasing")
        if (self.initial < 0).any() or (self.states < 0).any():
            raise ValueError("states are numbered from 0")
        bad = ~(self.times > self._previous(self.times, np.zeros(n)))  # also rejects NaN
        if bad.any():
            subject = self._subject_of_jump(bad.argmax())
            raise ValueError(f"subject {subject}: jump times must be strictly increasing and positive")
        self.sources = self._previous(self.states, self.initial)
        self.sources.setflags(write=False)
        repeated = self.states == self.sources
        if repeated.any():
            subject = self._subject_of_jump(repeated.argmax())
            raise ValueError(f"subject {subject}: consecutive states must differ")
        self.max_state = int(max(self.initial.max(initial=0), self.states.max(initial=0)))

    def _subject_of_jump(self, k: int) -> int:
        return int(self.subjects[np.searchsorted(self.offsets, k, side="right") - 1])

    def _previous(self, values: np.ndarray, heads: np.ndarray) -> np.ndarray:
        """``values`` shifted one jump later within each subject; a subject's
        first jump gets its entry of ``heads``."""
        previous = np.empty_like(values)
        previous[1:] = values[:-1]
        has_jumps = self.offsets[1:] > self.offsets[:-1]
        previous[self.offsets[:-1][has_jumps]] = heads[has_jumps]
        return previous

    def states_at(self, t: float, side: Side = "right") -> np.ndarray:
        """Each subject's state at t, or just before t with ``side="left"``."""
        reached = self.times <= t if side == "right" else self.times < t
        before = np.concatenate(([0], np.cumsum(reached)))
        begin = self.offsets[:-1]
        count = before[self.offsets[1:]] - before[begin]
        # jump times rise within a subject, so the jumps it has made by t come first
        state = self.initial.copy()
        moved = count > 0
        state[moved] = self.states[(begin + count - 1)[moved]]
        return state

    def __len__(self) -> int:
        return len(self.subjects)

    def __iter__(self):
        jumps = list(zip(self.times.tolist(), self.states.tolist()))
        offsets = self.offsets.tolist()
        for i, (subject, initial) in enumerate(zip(self.subjects.tolist(), self.initial.tolist())):
            yield EventHistory(subject, initial, tuple(jumps[offsets[i] : offsets[i + 1]]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventSample):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, name), getattr(other, name))
            for name in ("subjects", "initial", "offsets", "times", "states")
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"EventSample({len(self)} subjects, {len(self.times)} jumps)"


def _check_dimension(sample: EventSample, d: int) -> None:
    """Raise EstimationError naming the first subject with a state above d."""
    if sample.max_state <= d:
        return
    top = sample.initial.copy()
    np.maximum.at(top, np.repeat(np.arange(len(sample)), np.diff(sample.offsets)), sample.states)
    i = int(np.argmax(top > d))
    raise EstimationError(f"subject {sample.subjects[i]} visits state {top[i]} beyond dimension {d}")


def empirical_occupancy(sample: EventSample, j: int, t: float, side: Side = "right") -> float:
    """Fraction of subjects observed in state j at t (or just before t)."""
    if not len(sample):
        raise EstimationError("empty sample")
    if j < 1:
        raise ValueError("occupancy is tracked for observable states >= 1")
    return int(np.count_nonzero(sample.states_at(t, side) == j)) / len(sample)


@dataclass(frozen=True)
class EstimateGrid:
    """Estimates at the pooled observed transition times, built whole by
    ``estimate``.

    ``hazard_steps[i]`` is the Nelson-Aalen increment matrix at
    ``times[i]`` (the atoms of ``nelson_aalen``'s ``HazardMatrixIF``);
    ``transition[i]`` the Aalen-Johansen product P(0, times[i]), the
    product integral of that hazard over (0, times[i]]; ``p0`` the
    renormalized observed initial distribution and ``occupation[i]`` the
    derived occupation row p0 @ transition[i].

    Only for a Markov law is ``transition`` a transition probability.
    Otherwise its row j converges to the product of the pooled hazards,
    not to P(X(t) = k | X(0) = j): in a duration-dependent illness-death
    law the ill-to-dead entry tends to 0.4 where the truth is 0.2.  The
    occupation estimate p(0) times that product is the estimator proved
    consistent without the Markov property.
    """

    dim: int
    n: int
    times: tuple[float, ...]
    hazard_steps: np.ndarray
    transition: np.ndarray
    p0: np.ndarray
    occupation: np.ndarray

    def occupation_at(self, t: float) -> np.ndarray:
        i = bisect_right(self.times, t) - 1
        return self.p0 if i < 0 else self.occupation[i]

    def to_json_dict(self) -> dict:
        return {
            "d": self.dim,
            "n": self.n,
            "p0": list(self.p0),
            "times": list(self.times),
            "hazard_steps": [step.tolist() for step in self.hazard_steps],
            "transition": [mat.tolist() for mat in self.transition],
            "occupation": [row.tolist() for row in self.occupation],
        }


def nelson_aalen(sample: EventSample, upto: float | None = None, dim: int | None = None) -> HazardMatrixIF:
    """Pooled hazard increments at every observed transition time.

    At each event time u the increment is (observed j->k count at u) /
    (subjects observed in j just before u), formed by
    ``HazardMatrixIF.from_counts``.  The denominator is at least one
    whenever the numerator is positive, because a subject observed to
    transition out of j at u is itself observed in j just before u.

    The risk sets just before each event time are the time-0 states plus a
    running sum of every earlier jump -- counted or not, including moves
    into and out of state 0 -- each moving one subject between risk sets.
    """
    if not len(sample):
        raise EstimationError("empty sample")
    d = dim if dim is not None else max(sample.max_state, 1)
    _check_dimension(sample, d)
    if d < 1:  # every subject then stays unobserved
        raise EstimationError("no subject observed at time 0")
    sources, targets = sample.sources, sample.states
    counted = (sources >= 1) & (targets >= 1)
    if upto is not None:
        counted &= sample.times <= upto
    times, column = np.unique(sample.times[counted], return_inverse=True)
    size = len(times)
    entries = (size + 1) * d * d
    if entries > MAX_GRID_ENTRIES:
        raise GridBudgetError(
            f"{size} event times with {d} states need {entries} estimate entries, "
            f"above the budget of {MAX_GRID_ENTRIES}"
        )
    cell = (column * d + sources[counted] - 1) * d + targets[counted] - 1
    counts = np.bincount(cell, minlength=size * d * d).reshape(size, d, d).astype(np.float64)
    # a jump moves its subject between risk sets from the first event time after it on
    first_after = np.searchsorted(times, sample.times, side="right") * (d + 1)
    moves = np.bincount(first_after + targets, minlength=(size + 1) * (d + 1))
    moves -= np.bincount(first_after + sources, minlength=(size + 1) * (d + 1))
    moves[: d + 1] += np.bincount(sample.initial, minlength=d + 1)
    at_risk = np.cumsum(moves.reshape(size + 1, d + 1), axis=0)[:size, 1:]
    return HazardMatrixIF.from_counts(times.tolist(), counts, at_risk)


def aalen_johansen(hazard: HazardMatrixIF) -> np.ndarray:
    """The forward products P(0, t) of (I + hazard increment) at the
    hazard's times: its product integral swept over (0, t].

    ``HazardMatrixIF`` keeps every factor row-stochastic (nonnegative
    off-diagonals, exit mass at most one, zero row sums), so the products
    have nonnegative entries and unit row sums, which is checked.
    """
    products = np.array(list(product_integral_sweep(hazard, 0.0, hazard.times)))
    products = products.reshape(hazard.jumps.shape)
    failure = first_failure(hazard.times, (
        (products < -1e-12, "negative transition estimate"),
        (np.abs(products.sum(axis=2) - 1.0) > 1e-12, "row sums drift"),
    ))
    if failure:
        raise EstimationError(failure)
    return products


def occupation_estimate(sample: EventSample, times, transition: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The renormalized initial occupancy p0 and the occupation rows
    p0 @ P(0, t) at ``times``, pushed forward by the ``transition``
    products estimated from ``sample``."""
    counts0 = np.bincount(sample.initial, minlength=transition.shape[-1] + 1)[1:].astype(np.float64)
    total = counts0.sum()
    if total == 0:
        raise EstimationError("no subject observed at time 0")
    p0 = counts0 / total
    occupation = p0 @ transition
    out_of_range = (occupation < -1e-12).any(axis=1) | (occupation.sum(axis=1) > 1.0 + 1e-12)
    failure = first_failure(times, ((out_of_range, "occupation estimate out of range"),))
    if failure:
        raise EstimationError(failure)
    return p0, occupation


def estimate(sample: EventSample, upto: float | None = None, dim: int | None = None) -> EstimateGrid:
    """Full pipeline: hazard increments, transition matrices, occupation curve."""
    hazard = nelson_aalen(sample, upto=upto, dim=dim)
    transition = aalen_johansen(hazard)
    p0, occupation = occupation_estimate(sample, hazard.times, transition)
    return EstimateGrid(hazard.dim, len(sample), hazard.times, hazard.jumps, transition, p0, occupation)


# -- event-history CSV ------------------------------------------------------

CSV_HEADER = ("subject", "time", "state")
# Everything a data row of plain decimal numbers can hold.  Within it numpy's
# and Python's number parsers accept the same fields with the same values.
_PLAIN_ROW_BYTES = b"0123456789+-.eE,\t \r\n"
_ROW_DTYPE = np.dtype([("subject", np.int64), ("time", np.float64), ("state", np.int64)])


def read_event_histories(path, max_state: int | None = None) -> EventSample:
    """Read `subject,time,state` rows; the time-0 row gives the initial state.

    A file of plain decimal rows is parsed in bulk and validated with array
    operations.  Any other file, and any file that fails a check, is read
    row by row, which raises FormatError naming the line of the first
    malformed row.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    sample = _read_bulk(data, max_state)
    return sample if sample is not None else _read_rows(path, max_state)


def _read_bulk(data: bytes, max_state: int | None) -> EventSample | None:
    """The sample the row reader returns for ``data``, or None where the
    bulk path cannot tell (the row reader then finds the error or reads the
    file)."""
    header, _, body = data.partition(b"\n")
    if tuple(field.strip() for field in header.split(b",")) != tuple(h.encode() for h in CSV_HEADER):
        return None
    if body.translate(None, _PLAIN_ROW_BYTES) or not body.strip():
        return None
    # the csv module refuses fields above its size limit; no line of this file holds one
    line_ends = np.flatnonzero(np.frombuffer(body + b"\n", np.uint8) == ord("\n"))
    if np.diff(line_ends, prepend=-1).max() > csv.field_size_limit():
        return None
    try:
        rows = np.loadtxt(
            io.BytesIO(body), dtype=_ROW_DTYPE, delimiter=",", comments=None,
            quotechar=None, ndmin=1, encoding="ascii",
        )
    except (ValueError, OverflowError):
        return None
    subjects, times, states = rows["subject"], rows["time"], rows["state"]
    if max_state is not None and (states > max_state).any():
        return None
    order = np.argsort(subjects, kind="stable")  # keeps each subject's rows in file order
    subjects, times, states = subjects[order], times[order], states[order]
    heads = np.flatnonzero(np.r_[True, subjects[1:] != subjects[:-1]])
    if not (times[heads] == 0.0).all():
        return None
    jumps = np.ones(len(rows), dtype=bool)
    jumps[heads] = False
    offsets = np.append(heads - np.arange(len(heads)), len(rows) - len(heads))
    try:
        return EventSample(subjects[heads], states[heads], offsets, times[jumps], states[jumps])
    except ValueError:
        return None


def _rows(path, max_state: int | None = None):
    """Yield (line, subject, time, state) of each data row, checking each row alone."""
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
                for name, value in (("subject", subject), ("state", state)):
                    if not -(2**63) <= value < 2**63:
                        raise FormatError(f"line {lineno}: {name} {value} out of range")
                yield lineno, subject, time, state
        except csv.Error as exc:  # e.g. a field above the csv module's size limit
            raise FormatError(f"line {reader.line_num}: {exc}") from None


def _read_rows(path, max_state: int | None) -> EventSample:
    """The row-by-row reader: every row is checked on its own, then against
    the row before it of its subject."""
    rows_by_subject: dict[int, list[tuple[int, float, int]]] = {}
    for lineno, subject, time, state in _rows(path, max_state):
        rows_by_subject.setdefault(subject, []).append((lineno, time, state))
    if not rows_by_subject:
        raise FormatError("no subject rows found")
    subjects = sorted(rows_by_subject)
    for subject in subjects:
        rows = rows_by_subject[subject]
        first_line, previous_time, previous_state = rows[0]
        if previous_time != 0.0:
            raise FormatError(f"line {first_line}: subject {subject} must start with a time-0 row")
        for lineno, time, state in rows[1:]:
            error = _jump_error(previous_time, previous_state, time, state)
            if error is not None:
                raise FormatError(f"line {lineno}: {error}")
            previous_time, previous_state = time, state
    ordered = [rows_by_subject[subject] for subject in subjects]
    jumps = [row for rows in ordered for row in rows[1:]]
    return EventSample(
        subjects,
        [rows[0][2] for rows in ordered],
        np.cumsum([0] + [len(rows) - 1 for rows in ordered]),
        [time for _, time, _ in jumps],
        [state for _, _, state in jumps],
    )


def line_of_state(path, state: int) -> int:
    """Line number of the first row of a valid event-history CSV in ``state``."""
    return next(lineno for lineno, _, _, s in _rows(path) if s == state)


def write_event_histories(path, sample: EventSample) -> int:
    """Write the CSV form, ordered by subject; returns the number of data rows.

    The rows are those ``csv.writer`` writes: numbers as ``str`` gives them,
    lines ending in CRLF.
    """
    # a jump row is its subject's id before one of a few (time, state) texts
    times, time_of = np.unique(sample.times, return_inverse=True)
    states, state_of = np.unique(sample.states, return_inverse=True)
    width = len(states)
    pairs, pair_of = np.unique(time_of * width + state_of, return_inverse=True)
    time_text = [repr(t) for t in times.tolist()]
    state_text = [str(s) for s in states.tolist()]
    pair_text = [f"{time_text[p // width]},{state_text[p % width]}\r\n" for p in pairs.tolist()]
    tails = np.array(pair_text, dtype=object)[pair_of].tolist()
    offsets = sample.offsets.tolist()
    chunks = [",".join(CSV_HEADER) + "\r\n"]
    for i, (subject, initial) in enumerate(zip(sample.subjects.tolist(), sample.initial.tolist())):
        prefix = f"{subject},"
        chunks.append(prefix + prefix.join([f"0.0,{initial}\r\n"] + tails[offsets[i] : offsets[i + 1]]))
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("".join(chunks))
    return len(sample) + len(sample.times)


def write_occupation_csv(path, grid: EstimateGrid) -> None:
    """Occupation curve as `t,p_1..p_d`, starting from the time-0 row."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["t"] + [f"p_{j}" for j in range(1, grid.dim + 1)])
        writer.writerow([0.0] + list(grid.p0))
        for t, row in zip(grid.times, grid.occupation):
            writer.writerow([t] + list(row))


def _json_float(value: float) -> str:
    """``value`` as ``json`` writes a float: its repr, or NaN, Infinity, -Infinity."""
    if value != value:
        return "NaN"
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    return float.__repr__(value)


def _write_json_array(handle, array: np.ndarray, depth: int, text) -> None:
    """A float array laid out as ``json.dump(..., indent=2)`` lays out its
    nested lists at nesting ``depth``, one innermost row per write; ``text``
    spells one float."""
    if not len(array):
        handle.write("[]")
        return
    pad = "\n" + "  " * (depth + 1)
    if array.ndim == 1:
        handle.write("[" + pad + ("," + pad).join(map(text, array.tolist())))
    else:
        for i, inner in enumerate(array):
            handle.write(("[" if i == 0 else ",") + pad)
            _write_json_array(handle, inner, depth + 1, text)
    handle.write("\n" + "  " * depth + "]")


def write_grid_json(path, grid: EstimateGrid) -> None:
    """``json.dump(grid.to_json_dict(), handle, indent=2)`` and a newline,
    written one row at a time instead of one token at a time."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f'{{\n  "d": {grid.dim!r},\n  "n": {grid.n!r}')
        for key, values in (
            ("p0", grid.p0),
            ("times", grid.times),
            ("hazard_steps", grid.hazard_steps),
            ("transition", grid.transition),
            ("occupation", grid.occupation),
        ):
            array = np.asarray(values, dtype=float)
            text = float.__repr__ if np.isfinite(array).all() else _json_float
            handle.write(f',\n  "{key}": ')
            _write_json_array(handle, array, 1, text)
        handle.write("\n}\n")
