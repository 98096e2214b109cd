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
import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .interval_functions import HazardMatrixIF, first_failure, product_integral_sweep

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


class EventHistory(NamedTuple):
    """One subject of an ``EventSample``, as iterating the sample yields it:
    the subject id, its state at time 0 and its (time, state) jumps.

    A read-only view of columns the sample has already validated; it
    checks nothing itself.
    """

    subject: int
    initial_state: int
    jumps: tuple[tuple[float, int], ...]


def _column(values, dtype, name: str) -> np.ndarray:
    column = np.asarray(values)
    if column.ndim != 1:
        raise ValueError("sample columns must be one-dimensional")
    if dtype is np.int64 and column.dtype.kind == "f":  # a fractional value is refused, not truncated
        whole = (np.trunc(column) == column) & (np.abs(column) < 2.0**63)  # NaN and inf are not
        if not whole.all():
            raise ValueError(f"{name} must be whole numbers, got {float(column[~whole][0])!r}")
    column = column.astype(dtype)
    column.setflags(write=False)
    return column


class EventSample:
    """A sample of event histories held in columns.

    Subject ``subjects[i]`` (strictly increasing) starts in ``initial[i]`` at
    time 0 and makes the jumps ``offsets[i]:offsets[i + 1]`` of ``times`` and
    ``states``.  Within a subject, jump times are positive, finite and
    strictly increasing and consecutive states differ; states are numbered
    from 0, which marks an unobserved span.  Ids, states and offsets may be
    given as whole floats (2.0); a fractional one raises ``ValueError``
    naming its column.  The columns are validated once, when the sample is
    made, and are read-only.  ``sources[k]`` is the state jump k leaves and
    ``max_state`` the largest state of the sample (0 when it has none).
    The estimators read these columns; iteration yields each subject's
    ``EventHistory`` view of them.
    """

    def __init__(self, subjects, initial, offsets, times, states) -> None:
        self.subjects = _column(subjects, np.int64, "subject ids")
        self.initial = _column(initial, np.int64, "initial states")
        self.offsets = _column(offsets, np.int64, "jump offsets")
        self.times = _column(times, np.float64, "jump times")
        self.states = _column(states, np.int64, "jump states")
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
        infinite = self.times == np.inf
        bad = ~(self.times > self._previous(self.times, np.zeros(n))) | infinite  # also flags NaN
        if bad.any():
            k = int(bad.argmax())
            rule = "finite" if infinite[k] else "strictly increasing and positive"
            raise ValueError(f"subject {self._subject_of_jump(k)}: jump times must be {rule}")
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

    def states_at(self, t: float) -> np.ndarray:
        """Each subject's state at t."""
        before = np.concatenate(([0], np.cumsum(self.times <= t)))
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


@dataclass(frozen=True, eq=False)
class EstimateGrid:
    """Estimates at the pooled observed transition times, built whole by
    ``estimate``.

    ``hazard_steps[i]`` is the Nelson-Aalen increment matrix at
    ``times[i]`` (the ``jumps`` of ``nelson_aalen``'s ``HazardMatrixIF``);
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

    ``path`` is a file name or a binary file; either is read once, so a
    pipe works too.  A file of plain decimal rows is parsed in bulk, any
    other file row by row; either way the rows are put together and
    checked as arrays (``_assemble``).  A file the bulk parse declines or
    that fails a check is read row by row from the same bytes, which
    raises FormatError naming the line of the first malformed row.
    """
    if hasattr(path, "read"):
        data = path.read()
    else:
        with open(path, "rb") as handle:
            data = handle.read()
    sample = _read_bulk(data, max_state)
    return sample if sample is not None else _read_rows(data, max_state)


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
    if max_state is not None and (rows["state"] > max_state).any():
        return None
    return _assemble(rows["subject"], rows["time"], rows["state"])


def _assemble(subjects, times, states, lines=None) -> EventSample | None:
    """The sample of the rows held in columns, each subject's rows in file
    order: sorted by subject, a subject's first row gives its time-0 state
    and each later row a jump.  Where a subject's first row is not at time
    0, or a row is not later than the one before it, is at an infinite time
    or repeats its state, raise FormatError naming the ``lines`` entry of
    the first such row, subject by subject; without ``lines``, return None."""
    if (subjects[1:] < subjects[:-1]).any():
        order = np.argsort(subjects, kind="stable")  # keeps each subject's rows in file order
        subjects, times, states = subjects[order], times[order], states[order]
        lines = lines if lines is None else lines[order]
    heads = np.flatnonzero(np.r_[True, subjects[1:] != subjects[:-1]])
    jumps = np.ones(len(subjects), dtype=bool)
    jumps[heads] = False
    if (times[heads] == 0.0).all():
        offsets = np.append(heads - np.arange(len(heads)), len(subjects) - len(heads))
        try:
            return EventSample(subjects[heads], states[heads], offsets, times[jumps], states[jumps])
        except ValueError:
            pass
    if lines is None:
        return None
    unstarted = ~jumps & (times != 0.0)
    late = jumps & np.r_[False, ~(times[1:] > times[:-1])]  # also flags NaN
    infinite = times == np.inf
    repeated = jumps & np.r_[False, states[1:] == states[:-1]]
    k = int(np.argmax(unstarted | late | infinite | repeated))
    if unstarted[k]:
        raise FormatError(f"line {lines[k]}: subject {subjects[k]} must start with a time-0 row")
    if late[k]:
        raise FormatError(f"line {lines[k]}: jump times must be strictly increasing and positive")
    if infinite[k]:
        raise FormatError(f"line {lines[k]}: jump times must be finite")
    raise FormatError(f"line {lines[k]}: consecutive states must differ")


def _rows(data: bytes, max_state: int | None = None):
    """Yield (line, subject, time, state) of each data row of the CSV's
    bytes, checking each row alone; bytes that are not UTF-8 raise
    FormatError naming their line."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # counted as the csv reader counts them: lines end at \n, \r or \r\n
        line = len(io.StringIO(data[: exc.start].decode("utf-8") + "?", newline="").readlines())
        raise FormatError(f"line {line}: byte {data[exc.start]:#04x} is not UTF-8 ({exc.reason})") from None
    with io.StringIO(text, newline="") as handle:
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


def _read_rows(data: bytes, max_state: int | None) -> EventSample:
    """The row reader: each row is checked on its own as it is read, then
    the rows together by ``_assemble``, which names the faulty row's line."""
    rows = np.array(list(_rows(data, max_state)), dtype=[("line", np.int64), *_ROW_DTYPE.descr])
    if not len(rows):
        raise FormatError("no subject rows found")
    return _assemble(rows["subject"], rows["time"], rows["state"], rows["line"])


def line_of_state(data: bytes, state: int) -> int:
    """Line number of the first row in ``state`` of a valid event-history
    CSV, given as its bytes."""
    return next(lineno for lineno, _, _, s in _rows(data) if s == state)


def write_event_histories(path, sample: EventSample) -> int:
    """Write the CSV form, ordered by subject; returns the number of data rows.

    The rows are those ``csv.writer`` writes: numbers as ``str`` gives them,
    lines ending in CRLF.  A jump row is its subject's id before the text of
    its (time, state) cell, one of (distinct times) x (distinct states),
    each used cell's text made once.  Where the cells are no more than the
    jumps, as on every grid sample, the used ones are marked in a mask over
    all of them; otherwise they are found by sorting the jumps' cell codes,
    so that memory stays in proportion to the jumps.
    """
    times, time_of = np.unique(sample.times, return_inverse=True)
    states, state_of = np.unique(sample.states, return_inverse=True)
    width = len(states)
    code = time_of * width + state_of
    if len(times) * width <= len(code):
        used = np.zeros(len(times) * width, dtype=bool)
        used[code] = True
        cells = slots = np.flatnonzero(used)
        text_of = np.empty(len(used), dtype=object)
    else:
        cells, code = np.unique(code, return_inverse=True)
        slots = slice(None)
        text_of = np.empty(len(cells), dtype=object)
    time_text = [repr(t) for t in times.tolist()]
    state_text = [str(s) for s in states.tolist()]
    text_of[slots] = [f"{time_text[c // width]},{state_text[c % width]}\r\n" for c in cells.tolist()]
    tails = text_of[code].tolist()
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


# -- JSON documents ---------------------------------------------------------

_text = json.encoder.encode_basestring_ascii
_RECORDS_PER_WRITE = 512  # the text in flight stays a few hundred KiB however many records


def _dumps(value, depth: int) -> str:
    """``value`` as ``json.dump(..., indent=2)`` lays it out at nesting ``depth``."""
    return json.dumps(value, indent=2).replace("\n", "\n" + "  " * depth)


def _write_array(handle, array: np.ndarray, depth: int, text) -> None:
    """A float array laid out as ``json.dump(..., indent=2)`` lays out its
    ``tolist()`` at nesting ``depth``, one innermost row per write; ``text``
    spells one float."""
    if not array.ndim or not len(array):
        handle.write(text(array.item()) if not array.ndim else "[]")
        return
    pad = "\n" + "  " * (depth + 1)
    if array.ndim == 1:
        handle.write("[" + pad + ("," + pad).join(map(text, array.tolist())))
    else:
        for i, inner in enumerate(array):
            handle.write(("[" if i == 0 else ",") + pad)
            _write_array(handle, inner, depth + 1, text)
    handle.write("\n" + "  " * depth + "]")


def _column_text(column: tuple):
    """The JSON text of each value of one column of records (nesting 3)."""
    kinds = set(map(type, column))
    if kinds == {float} and all(map(math.isfinite, column)):
        return map(float.__repr__, column)
    if kinds == {str}:
        return map(_text, column)
    if kinds == {bool}:
        return map({True: "true", False: "false"}.__getitem__, column)
    return [_dumps(value, 3) for value in column]


def write_json(path, document: dict) -> None:
    """What ``json.dump(document, handle, indent=2)`` and a newline write for
    a dict with string keys, a row or a chunk of records per write: a float
    ndarray stands for its ``tolist()``, a list of named tuples of one type
    for their ``_asdict()``s (one ``%`` template per record, each column of a
    chunk encoded in one pass), and ``json.dumps`` lays out any other value."""
    with open(path, "w", encoding="utf-8") as handle:
        for i, (key, value) in enumerate(document.items()):
            handle.write(("{" if i == 0 else ",") + f"\n  {_text(key)}: ")
            if isinstance(value, np.ndarray):
                _write_array(handle, value, 1, float.__repr__ if np.isfinite(value).all() else json.dumps)
            elif (isinstance(value, list) and value and getattr(value[0], "_fields", None)
                  and len(set(map(type, value))) == 1):
                fields = ",".join(f"\n      {_text(name)}: %s" for name in value[0]._fields)
                template = "\n    {" + fields + "\n    }"
                for start in range(0, len(value), _RECORDS_PER_WRITE):
                    columns = [_column_text(column) for column in zip(*value[start : start + _RECORDS_PER_WRITE])]
                    handle.write(("[" if start == 0 else ",") + ",".join(map(template.__mod__, zip(*columns))))
                handle.write("\n  ]")
            else:
                handle.write(_dumps(value, 1))
        handle.write("\n}\n" if document else "{}\n")


def write_grid_json(path, grid: EstimateGrid) -> None:
    """The estimate grid as a JSON document (``write_json``): the dimension,
    the sample size, p0, the event times, and the hazard steps, transition
    products and occupation rows at those times."""
    arrays = ("p0", "times", "hazard_steps", "transition", "occupation")
    write_json(path, {"d": grid.dim, "n": grid.n, **{k: np.asarray(getattr(grid, k), dtype=float) for k in arrays}})
