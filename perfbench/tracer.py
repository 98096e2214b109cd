"""Span tracer that wraps the package's public functions at run time.

Nothing under ``src/`` is edited: ``Instrumentation`` replaces every
binding of a public function or method in the seven ``prodint`` modules with
a wrapper and puts the originals back on exit.  A timed wrapper records one
span (name, start, end, parent) in flat in-memory arrays; self time is
derived afterwards as each span's duration minus the durations of its
direct children.  A few per-path or per-interval helpers are too hot to
time without swamping the run; they are either left alone (their cost lands
in the caller's self time) or only counted.
"""

from __future__ import annotations

import importlib
import inspect
import os
import time
from array import array

import numpy as np

MODULES = ("intervals", "interval_functions", "multistate", "simulation", "estimators", "checks", "cli")

# Called once per path or per interval endpoint; timing them would cost more
# than the work they do.
UNTRACED = {
    "intervals.Interval",
    "intervals.Partition",
    "multistate.StatePath",
    "simulation.ScenarioConfig.feature",
}
# Counted but not timed.
COUNTED = {"estimators.EventHistory.state_at", "estimators.EventHistory.state_before"}

# The ten suites of `prodint verify`, by the check function that computes each.
SUITES = {
    "occupation-identity": "occupation_identity_checks",
    "hazard-defect": "hazard_defect_checks",
    "chapman-kolmogorov": "chapman_kolmogorov_checks",
    "count-mean-defect": "count_mean_defect_checks",
    "transform-duality": "transform_duality_checks",
    "hazard-integral": "hazard_integral_checks",
    "markov-product": "markov_product_checks",
    "occupation-lower-bound": "occupation_bound_checks",
    "extinction-exit": "extinction_checks",
    "uncensored-identity": "uncensored_identity_checks",
}

# PathSpace queries that loop once over every path per call.
PER_PATH_QUERIES = ("occupation", "transition", "counting_mean", "indicator_mean", "jump_mass")
PARTITION_BUILDERS = ("intervals.refine", "intervals.young_partition", "intervals.halve_open_cells")
WRITERS = (
    "estimators.write_event_histories",
    "estimators.write_occupation_csv",
    "estimators.write_grid_json",
)


class Spans:
    """Flat span store plus event counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counters: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def add(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def summary(self) -> dict[str, tuple[int, float, float]]:
        """name -> (calls, inclusive seconds, self seconds).

        Inclusive time sums every span of the name; none of the names the
        metrics read from can nest inside itself.
        """
        names = np.frombuffer(self.name, dtype=np.int32) if len(self.name) else np.zeros(0, np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32) if len(self.parent) else np.zeros(0, np.int32)
        duration = np.asarray(self.end) - np.asarray(self.start)
        has_parent = parent >= 0
        children = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
        self_time = duration - children
        size = len(self.names)
        calls = np.bincount(names, minlength=size)
        inclusive = np.bincount(names, weights=duration, minlength=size)
        exclusive = np.bincount(names, weights=self_time, minlength=size)
        return {
            name: (int(calls[i]), float(inclusive[i]), float(exclusive[i]))
            for i, name in enumerate(self.names)
        }


def _timed(spans: Spans, name: str, fn, hook):
    ident = spans.name_id(name)
    names, parents, starts, ends, stack = spans.name, spans.parent, spans.start, spans.end, spans.stack
    clock = time.perf_counter

    def wrapper(*args, **kwargs):
        index = len(starts)
        names.append(ident)
        parents.append(stack[-1])
        ends.append(0.0)
        stack.append(index)
        starts.append(clock())
        try:
            result = fn(*args, **kwargs)
        finally:
            ends[index] = clock()
            stack.pop()
        if hook is not None:
            hook(spans, args, kwargs, result)
        return result

    return wrapper


def _counted(spans: Spans, name: str, fn):
    counters = spans.counters

    def wrapper(*args, **kwargs):
        counters[name] = counters.get(name, 0) + 1
        return fn(*args, **kwargs)

    return wrapper


def _generator(spans: Spans, name: str, fn):
    """Counts the partitions a refinement schedule yields; depth = yields - 1."""

    key = name + ".max_depth"
    counters = spans.counters

    def wrapper(*args, **kwargs):
        # consumers stop early once a transform settles, so record as we go
        for depth, part in enumerate(fn(*args, **kwargs)):
            if depth > counters.get(key, 0):
                counters[key] = depth
            yield part

    return wrapper


# -- counters fed from call arguments and results -------------------------------


def _path_evals(spans, args, kwargs, result):
    spans.add("multistate.path_evals", len(args[0].paths))


def _counting_mean_if_evals(spans, args, kwargs, result):
    # one pass over the paths per event time; counted without calling the
    # (traced) event_times property again
    paths = args[0].paths
    times = {t for path, _ in paths for t, _ in path.jumps}
    spans.add("multistate.path_evals", len(times) * len(paths))


def _cells_built(spans, args, kwargs, result):
    spans.add("intervals.cells_built", len(result.cells))


def _paths_enumerated(spans, args, kwargs, result):
    spans.add("simulation.paths_enumerated", len(result.paths))


def _event_times(spans, args, kwargs, result):
    spans.add("estimators.event_times", len(result.times))


def _rows_read(spans, args, kwargs, result):
    spans.add("estimators.rows_read", sum(1 + len(h.jumps) for h in result))


def _bytes_written(spans, args, kwargs, result):
    spans.add("estimators.bytes_written", os.path.getsize(args[0]))


def _records(suite):
    def hook(spans, args, kwargs, result):
        spans.add(f"checks.{suite}.records", len(result))

    return hook


HOOKS = {
    **{f"multistate.PathSpace.{q}": _path_evals for q in PER_PATH_QUERIES},
    "multistate.PathSpace.counting_mean_if": _counting_mean_if_evals,
    **{name: _cells_built for name in PARTITION_BUILDERS},
    "simulation.exact_pathspace": _paths_enumerated,
    "estimators.nelson_aalen": _event_times,
    "estimators.read_event_histories": _rows_read,
    **{name: _bytes_written for name in WRITERS},
    **{f"checks.{fn}": _records(suite) for suite, fn in SUITES.items()},
}


class Instrumentation:
    """Context manager that installs the wrappers and restores the originals."""

    def __init__(self, spans: Spans) -> None:
        self.spans = spans
        self.restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        if name in COUNTED:
            return _counted(self.spans, name, fn)
        if inspect.isgeneratorfunction(fn):
            return _generator(self.spans, name, fn)
        return _timed(self.spans, name, fn, HOOKS.get(name))

    def _set(self, owner, attr: str, value) -> None:
        self.restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self) -> Spans:
        package = importlib.import_module("prodint")
        modules = [importlib.import_module(f"prodint.{m}") for m in MODULES]
        replacement: dict[int, object] = {}
        for short, module in zip(MODULES, modules):
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                name = f"{short}.{attr}"
                if name in UNTRACED:
                    continue
                if inspect.isfunction(obj):
                    replacement[id(obj)] = self._wrap(name, obj)
                elif inspect.isclass(obj):
                    self._wrap_class(name, obj)
        # rebind every module-level name that refers to a wrapped function,
        # including names imported from another module
        for module in modules + [package]:
            for attr, obj in list(vars(module).items()):
                if id(obj) in replacement and inspect.isfunction(obj):
                    self._set(module, attr, replacement[id(obj)])
        return self.spans

    def _wrap_class(self, class_name: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            name = f"{class_name}.{attr}"
            if name in UNTRACED:
                continue
            if isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(name, raw.__func__)))
            elif isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(name, raw))

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self.restore):
            setattr(owner, attr, original)
        self.restore.clear()


def layer_metrics(spans: Spans, report_bytes: int) -> dict[str, float]:
    """The per-layer metrics of one traced repetition."""
    stats = spans.summary()
    counters = spans.counters

    def calls(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[0] for n in names)

    def inclusive(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_time(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[2] for n in names)

    def matching(prefix):
        return [n for n in stats if n.startswith(prefix)]

    queries = matching("multistate.PathSpace.")
    sampler = ("simulation.simulate_sample", "simulation.sample_path", "simulation.subject_rng")
    metrics = {
        "multistate.query_calls": calls(*queries),
        "multistate.query_self_s": self_time(*queries),
        "multistate.path_evals": counters.get("multistate.path_evals", 0),
        "multistate.hazard_matrix_s": inclusive("multistate.PathSpace.hazard_matrix"),
        "interval_functions.cells_evaluated": calls(
            "interval_functions.GeneralIF.__call__", "interval_functions.AdditiveIF.__call__"
        ),
        "interval_functions.defect_calls": calls("interval_functions.strict_transform_defect"),
        "interval_functions.transform_calls": calls(
            "interval_functions.additive_transform", "interval_functions.multiplicative_transform"
        ),
        "interval_functions.product_integral_calls": calls("interval_functions.product_integral"),
        "interval_functions.max_refinement_depth": counters.get(
            "interval_functions.refinement_partitions.max_depth", 0
        ),
        "intervals.partition_calls": calls(*PARTITION_BUILDERS),
        "intervals.cells_built": counters.get("intervals.cells_built", 0),
        "intervals.partition_self_s": self_time(*PARTITION_BUILDERS),
        "simulation.subjects_sampled": calls("simulation.sample_path"),
        "simulation.sample_self_s": self_time(*sampler),
        "simulation.outgoing_calls": calls("simulation.ScenarioConfig.outgoing"),
        "simulation.outgoing_s": inclusive("simulation.ScenarioConfig.outgoing"),
        "simulation.censoring_s": inclusive("simulation.apply_censoring"),
        "simulation.paths_enumerated": counters.get("simulation.paths_enumerated", 0),
        "simulation.enumerate_s": inclusive("simulation.exact_pathspace"),
        "estimators.nelson_aalen_s": inclusive("estimators.nelson_aalen"),
        "estimators.event_times": counters.get("estimators.event_times", 0),
        "estimators.state_lookups": counters.get("estimators.EventHistory.state_at", 0)
        + counters.get("estimators.EventHistory.state_before", 0),
        "estimators.aalen_johansen_s": inclusive("estimators.aalen_johansen"),
        "estimators.occupation_s": inclusive("estimators.occupation_estimate"),
        "estimators.read_s": inclusive("estimators.read_event_histories"),
        "estimators.rows_read": counters.get("estimators.rows_read", 0),
        "estimators.write_s": inclusive(*WRITERS),
        "estimators.bytes_written": counters.get("estimators.bytes_written", 0),
    }
    for suite, fn in SUITES.items():
        metrics[f"checks.{suite}.s"] = inclusive(f"checks.{fn}")
        metrics[f"checks.{suite}.records"] = counters.get(f"checks.{suite}.records", 0)
    for layer in MODULES:
        metrics[f"{layer}.self_s"] = self_time(*matching(layer + "."))
    metrics["cli.report_bytes"] = report_bytes
    metrics["trace.spans"] = len(spans.start)
    return metrics


def top_self_times(spans: Spans, limit: int = 5) -> list[tuple[str, float]]:
    stats = spans.summary()
    ranked = sorted(((s, n) for n, (_, _, s) in stats.items()), reverse=True)
    return [(n, s) for s, n in ranked[:limit]]
