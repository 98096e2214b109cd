"""Seeded inputs, command lines and output checks for the four workloads.

Every input is generated here from the benchmark seed; the program under
test only ever sees command-line arguments and the files written here.
Generators keep the realized size of each workload inside a narrow band
for every seed (paths, ticks, subjects, event times), because the run-to-run
spread of the end-to-end metrics is taken across seeds.

The parent process imports the package only to replay the random corpus
of `prodint verify` when it picks verify seeds (see verify-corpus below).
"""

from __future__ import annotations

import json
import math
import os
import re

import numpy as np

WORKLOADS = ("verify-corpus", "verify-wide", "grid-pipeline", "continuous-estimate")

# What items_per_s counts.
ITEMS = {
    "verify-corpus": "check records",
    "verify-wide": "check records",
    "grid-pipeline": "subjects",
    "continuous-estimate": "observed transition rows",
}

# Workload sizes.  ``quick`` shrinks every workload to a smoke-test size.
SIZES = {
    "full": {
        "verify-corpus": {"count": 10, "inputs": 3, "band": 0.02, "reference_seeds": 48},
        "verify-wide": {"ticks": 8, "paths": (96, 100)},
        "grid-pipeline": {"ticks": 100, "n": 1000},
        "continuous-estimate": {"n": 600, "jumps": 3, "sample_times": 50},
    },
    "quick": {
        "verify-corpus": {"count": 1, "inputs": 2, "band": 1.0, "reference_seeds": 4},
        "verify-wide": {"ticks": 4, "paths": (6, 40)},
        "grid-pipeline": {"ticks": 10, "n": 40},
        "continuous-estimate": {"n": 30, "jumps": 2, "sample_times": 10},
    },
}

# The packaged scenarios `prodint verify` loads when no --scenario is given.
CORPUS_FILES = ("idn.json", "surv.json", "forced_exit.json")

# Same mechanism and q as the packaged conforming.json.
CONFORMING_FILTER = {"kind": "state_filtering_conforming", "q": 0.7}

SUMMARY_LINE = re.compile(r"^check (\S+): (PASS|FAIL) \((\d+)/(\d+),")


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, tag)))


def _write_json(path: str, document) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    return path


# -- verify-corpus ------------------------------------------------------------
#
# `prodint verify --count C --seed S` draws C + 2 * (C // 4) random tiny
# spaces from default_rng(S).  Their cost and their number of check records
# vary several-fold between seeds, so the workload takes a few verify seeds,
# each accepted only when two proxies of the spaces it will draw lie within
# a band around the median proxies of a fixed reference set of seeds.  The
# proxies replay the package's generator (the first draws of `cmd_verify`).
# The cost proxy scores each space as cells * d^2 * (PER_CALL + paths): the
# defect suites evaluate d^2 queries on every cell of the refinement
# schedule, each looping over every path.  The record proxy counts the
# records of the suites that grow with the space, as `prodint.checks` makes
# them (see _space_records).  Holding both in a band holds wall_s and
# items_per_s steady.

PER_CALL = 7.7  # fitted ratio of per-query overhead to per-path cost
DEPTHS = 6  # refinement depth of the defect suites


def _schedule_cells(event_times, tau: float) -> int:
    """Cells visited by one defect profile on (0, tau].

    The Young partition has one point per event time and one open gap per
    stretch between them; each halving turns an open cell into three.
    Over depths 0..DEPTHS plus the coarse cell that is 1 + 247 g + 7 E.
    """
    gaps = len(event_times) + (1 if not event_times or event_times[-1] < tau else 0)
    return 1 + gaps * (2 ** (DEPTHS + 2) - DEPTHS - 3) + (DEPTHS + 1) * len(event_times)


def _space_records(ps) -> int:
    """Records the space-dependent verify suites make for one space.

    One occupation-identity record per grid time; one count-mean-defect
    record per ordered pair of states; per state j, one
    occupation-lower-bound record per pair of ticks, and one more
    (occupation-bound-equality) when nothing ever jumps into j; and per
    ordered pair (j, k), two hazard-integral records (value and bound) per
    interval shape on every block where j is occupied just before: 4
    shapes, or 6 when the block starts after 0.
    """
    dim = ps.dim
    ticks = [0.0, *ps.grid]
    inflow = set()
    for u in ps.event_times:
        mass = ps.jump_mass(u)
        inflow.update(k for k in range(1, dim + 1) if mass[:, k - 1].any())
    tick_pairs = len(ticks) * (len(ticks) + 1) // 2
    records = len(ps.grid) + dim * (dim - 1)
    for j in range(1, dim + 1):
        records += tick_pairs * (1 if j in inflow else 2)
        start = None
        for tick in ticks:
            occupied = ps.occupation(j, tick) > 0.0
            if occupied and start is None:
                start = tick
            if not occupied and start is not None:
                records += 2 * (dim - 1) * (6 if start > 0.0 else 4) * (tick > start)
                start = None
        if start is not None:
            records += 2 * (dim - 1) * (6 if start > 0.0 else 4) * (ps.tau > start)
    return records


def corpus_proxy(count: int, verify_seed: int) -> tuple[float, int, int, int]:
    """(cost proxy, record proxy, random spaces, paths) of `verify --count count --seed verify_seed`."""
    from prodint.checks import random_scenario
    from prodint.simulation import exact_pathspace

    rng = np.random.default_rng(verify_seed)
    scenarios = [random_scenario(rng) for _ in range(count)]
    scenarios += [random_scenario(rng, progressive=True) for _ in range(count // 4)]
    scenarios += [random_scenario(rng, forced_exit=True) for _ in range(count // 4)]
    cost = 0.0
    records = paths = 0
    for scenario in scenarios:
        ps = exact_pathspace(scenario)
        cost += _schedule_cells(ps.event_times, ps.tau) * ps.dim**2 * (PER_CALL + len(ps.paths))
        records += _space_records(ps)
        paths += len(ps.paths)
    return cost, records, len(scenarios), paths


def prepare_verify_corpus(work: str, seed: int, size: dict) -> dict:
    count = size["count"]
    reference_rng = _rng(0, 100)
    reference = [
        corpus_proxy(count, int(s))[:2]
        for s in reference_rng.integers(0, 2**31, size=size["reference_seeds"])
    ]
    target_cost = float(np.median([cost for cost, _ in reference]))
    target_records = float(np.median([records for _, records in reference]))
    rng = _rng(seed, 101)
    inputs = []
    costs = []
    paths = []
    tried = 0
    while len(inputs) < size["inputs"]:
        tried += 1
        if tried > 2000 * size["inputs"]:
            raise RuntimeError("no verify seed found inside the cost and record bands")
        verify_seed = int(rng.integers(0, 2**31))
        cost, records, spaces, n_paths = corpus_proxy(count, verify_seed)
        if abs(cost / target_cost - 1.0) > size["band"] or abs(records / target_records - 1.0) > size["band"]:
            continue
        report = os.path.join(work, f"report-{len(inputs)}.json")
        inputs.append(
            [["verify", "--count", str(count), "--seed", str(verify_seed), "--report", report]]
        )
        costs.append(cost)
        paths.append(n_paths)
    return {
        "inputs": inputs,
        "setup_scenarios": [],
        "setup_corpus": True,
        "sizes": {
            "count": count,
            "random_spaces_per_input": spaces,
            "packaged_spaces": len(CORPUS_FILES),
            "verify_seeds": len(inputs),
            "random_paths_per_input": paths,
            "cost_proxy_target": round(target_cost, 1),
            "cost_proxy_spread": round((max(costs) - min(costs)) / target_cost, 4),
            "record_proxy_target": round(target_records, 1),
            "candidates_tried": tried,
        },
    }


# -- verify-wide ----------------------------------------------------------------
#
# One 3-state duration-dependent scenario on integer ticks 1..T.  Rules use
# sixteenths so every enumerated weight is an exact binary fraction.  At the
# last tick state 1 empties with certainty and nothing flows into it, so
# extinction-exit finds a boundary.


def _outgoing(rules, t: float, state: int, duration: float):
    fallback = ()
    for rule in rules:
        if rule["time"] != t or rule["from"] != state:
            continue
        if "when" in rule and rule["when"] == duration:
            return tuple((int(k), p) for k, p in rule["probs"].items())
        if "when" not in rule:
            fallback = tuple((int(k), p) for k, p in rule["probs"].items())
    return fallback


def count_paths(scenario: dict) -> tuple[int, int]:
    """(trajectories, ticks with a jump) of a duration-dependent scenario."""
    frontier = {}
    for state, p in enumerate(scenario["initial"], start=1):
        if p > 0:
            frontier[(state, 0.0)] = frontier.get((state, 0.0), 0) + 1
    active = 0
    for t in scenario["grid"]:
        grown: dict = {}
        jumped = False
        for (state, entered), multiplicity in frontier.items():
            out = _outgoing(scenario["transitions"], t, state, t - entered)
            if sum(p for _, p in out) < 1.0:
                grown[(state, entered)] = grown.get((state, entered), 0) + multiplicity
            for to, p in out:
                if p > 0:
                    grown[(to, t)] = grown.get((to, t), 0) + multiplicity
                    jumped = True
        active += jumped
        frontier = grown
    return sum(frontier.values()), active


def wide_scenario(rng: np.random.Generator, ticks: int) -> dict:
    dim = 3
    grid = [float(t) for t in range(1, ticks + 1)]
    first = int(rng.integers(8, 15))
    second = int(rng.integers(0, 16 - first + 1))
    initial = [first / 16, second / 16, (16 - first - second) / 16]
    rules = []
    for t in grid[:-1]:
        for state in range(1, dim + 1):
            if rng.random() < 0.45:
                continue
            to = int(rng.choice([s for s in range(1, dim + 1) if s != state]))
            rule = {"time": t, "from": state, "probs": {str(to): int(rng.integers(1, 9)) / 16}}
            if rng.random() < 0.5:
                durations = [t] + [t - g for g in grid if g < t]
                rule["when"] = float(rng.choice(durations))
                if rng.random() < 0.5:
                    rules.append(
                        {"time": t, "from": state, "probs": {str(to): int(rng.integers(1, 9)) / 16}}
                    )
            rules.append(rule)
    last = grid[-1]
    rules.append({"time": last, "from": 1, "probs": {"2": 1.0}})
    if rng.random() < 0.5:
        rules.append({"time": last, "from": 2, "probs": {"3": int(rng.integers(1, 9)) / 16}})
    return {
        "d": dim,
        "tau": last,
        "grid": grid,
        "rule": "duration_dependent",
        "initial": initial,
        "transitions": rules,
    }


def prepare_verify_wide(work: str, seed: int, size: dict) -> dict:
    rng = _rng(seed, 200)
    lo, hi = size["paths"]
    for attempt in range(1, 5001):
        scenario = wide_scenario(rng, size["ticks"])
        paths, active = count_paths(scenario)
        # every tick is an event time, so the refinement schedule is the same
        if lo <= paths <= hi and active == size["ticks"]:
            break
    else:
        raise RuntimeError("no wide scenario found inside the path band")
    path = _write_json(os.path.join(work, "wide.json"), scenario)
    verify_seed = int(rng.integers(0, 2**31))
    return {
        "inputs": [[["verify", "--scenario", path, "--count", "0", "--seed", str(verify_seed)]]],
        "setup_scenarios": [path],
        "setup_corpus": False,
        "sizes": {
            "ticks": len(scenario["grid"]),
            "states": scenario["d"],
            "paths": paths,
            "rules": len(scenario["transitions"]),
            "generator_attempts": attempt,
        },
    }


# -- grid-pipeline ----------------------------------------------------------------


def markov_scenario(rng: np.random.Generator, ticks: int) -> dict:
    dim = 3
    grid = [float(t) for t in range(1, ticks + 1)]
    rules = []
    for t in grid:
        for state in range(1, dim + 1):
            probs = {
                str(to): int(rng.integers(1, 5)) / 64 for to in range(1, dim + 1) if to != state
            }
            rules.append({"time": t, "from": state, "probs": probs})
    return {
        "d": dim,
        "tau": grid[-1],
        "grid": grid,
        "rule": "markov",
        "initial": [0.5, 0.25, 0.25],
        "transitions": rules,
    }


def markov_occupation(scenario: dict) -> np.ndarray:
    """Exact occupation at tau: the initial row times the product of I + A(t)."""
    dim = scenario["d"]
    by_time: dict = {}
    for rule in scenario["transitions"]:
        by_time.setdefault(rule["time"], []).append(rule)
    row = np.array(scenario["initial"], dtype=float)
    for t in scenario["grid"]:
        step = np.eye(dim)
        for rule in by_time.get(t, ()):
            j = rule["from"] - 1
            for to, p in rule["probs"].items():
                step[j, int(to) - 1] += p
                step[j, j] -= p
        row = row @ step
    return row


def prepare_grid_pipeline(work: str, seed: int, size: dict) -> dict:
    rng = _rng(seed, 300)
    scenario_path = _write_json(os.path.join(work, "markov.json"), markov_scenario(rng, size["ticks"]))
    censoring_path = _write_json(os.path.join(work, "conforming.json"), CONFORMING_FILTER)
    sample = os.path.join(work, "sample.csv")
    simulate = [
        "simulate", "--scenario", scenario_path, "--censoring", censoring_path,
        "--n", str(size["n"]), "--seed", str(int(rng.integers(0, 2**31))), "--out", sample,
    ]
    estimate = [
        "estimate", "--input", sample, "--dim", "3",
        "--out-csv", os.path.join(work, "occupation.csv"),
        "--out-json", os.path.join(work, "grid.json"),
    ]
    return {
        "inputs": [[simulate, estimate]],
        "setup_scenarios": [scenario_path],
        "setup_censoring": censoring_path,
        "setup_corpus": False,
        "check": {"scenario": scenario_path, "n": size["n"]},
        "sizes": {"ticks": size["ticks"], "states": 3, "subjects": size["n"], "rules": 3 * size["ticks"]},
    }


# -- continuous-estimate --------------------------------------------------------
#
# Each subject makes exactly `jumps` observed transitions between states 1..4
# at continuous times in (0, 10), plus one unobserved (state 0) span, so the
# sample has exactly n * jumps distinct event times for every seed.


def continuous_rows(rng: np.random.Generator, n: int, jumps: int, dim: int = 4):
    """Rows of n subjects with `jumps` observed transitions and one hidden span each."""
    while True:
        times = rng.uniform(0.0, 10.0, size=(n, jumps + 2))
        if len(np.unique(times)) == times.size and times.min() > 0.0:
            break
    times.sort(axis=1)
    rows = []
    for subject in range(n):
        # the state-0 span is neither the first nor the last state, so it
        # removes exactly two of the jumps + 2 changes from the observed ones
        hidden = int(rng.integers(1, jumps + 2))
        state = int(rng.integers(1, dim + 1))
        rows.append((subject, 0.0, state))
        for k in range(jumps + 2):
            if k + 1 == hidden:
                state = 0
            else:
                state = int(rng.choice([s for s in range(1, dim + 1) if s != state]))
            rows.append((subject, float(times[subject, k]), state))
    return rows


def observed_transitions(rows) -> list[tuple[float, int, int]]:
    """(time, from, to) of every transition between observable states."""
    out = []
    for (s0, _, a), (s1, t, b) in zip(rows, rows[1:]):
        if s0 == s1 and a >= 1 and b >= 1:
            out.append((t, a, b))
    return out


def prepare_continuous(work: str, seed: int, size: dict) -> dict:
    rng = _rng(seed, 400)
    rows = continuous_rows(rng, size["n"], size["jumps"])
    path = os.path.join(work, "continuous.csv")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("subject,time,state\n")
        for subject, t, state in rows:
            handle.write(f"{subject},{t!r},{state}\n")
    transitions = observed_transitions(rows)
    estimate = [
        "estimate", "--input", path, "--dim", "4",
        "--out-csv", os.path.join(work, "occupation.csv"),
        "--out-json", os.path.join(work, "grid.json"),
    ]
    return {
        "inputs": [[estimate]],
        "setup_scenarios": [],
        "setup_corpus": False,
        "check": {"sample_times": size["sample_times"], "seed": seed},
        "sizes": {
            "subjects": size["n"],
            "states": 4,
            "rows": len(rows),
            "observed_transitions": len(transitions),
            "event_times": len({t for t, _, _ in transitions}),
        },
    }


PREPARE = {
    "verify-corpus": prepare_verify_corpus,
    "verify-wide": prepare_verify_wide,
    "grid-pipeline": prepare_grid_pipeline,
    "continuous-estimate": prepare_continuous,
}


# -- output checks --------------------------------------------------------------
#
# Each check returns (attempted, failed, items, per-name record counts).
# Operations are check records, CLI commands (a nonzero exit fails) and the
# benchmark's own output checks.


class Outcome:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.items = 0
        self.records: dict[str, list[int]] = {}
        self.problems: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def _argument(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def check_verify(commands, codes, stdouts, wide: bool) -> Outcome:
    out = Outcome()
    for argv, code, text in zip(commands, codes, stdouts):
        out.op(code == 0, f"verify exited with {code}")
        found = False
        for line in text.splitlines():
            match = SUMMARY_LINE.match(line)
            if not match:
                continue
            found = True
            name, passed, total = match.group(1), int(match.group(3)), int(match.group(4))
            counts = out.records.setdefault(name, [0, 0])
            counts[0] += passed
            counts[1] += total
            out.attempted += total
            out.failed += total - passed
            out.items += total
            if passed != total:
                out.problems.append(f"{name}: {total - passed} of {total} records failed")
        out.op(found, "verify printed no check summary")
        report = _argument(argv, "--report")
        if report:
            with open(report, encoding="utf-8") as handle:
                records = json.load(handle)["records"]
            out.op(
                len(records) == sum(t for _, t in out.records.values())
                and all(r["passed"] for r in records),
                "report records disagree with the printed summary",
            )
        if wide:
            out.op(
                out.records.get("extinction-exit", [0, 0])[1] >= 1,
                "no extinction boundary in the wide scenario",
            )
    return out


def _load_grid(path):
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def check_grid_pipeline(commands, codes, stdouts, scenario: str, n: int) -> Outcome:
    out = Outcome()
    for code, argv in zip(codes, commands):
        out.op(code == 0, f"{argv[0]} exited with {code}")
    out.op(f"wrote {n} subjects" in stdouts[0], "simulate did not report the subject count")
    out.items = n
    if any(codes):
        return out
    grid = _load_grid(_argument(commands[1], "--out-json"))
    transition = np.array(grid["transition"])
    drift = float(np.abs(transition.sum(axis=2) - 1.0).max()) if transition.size else 0.0
    out.op(drift <= 1e-12, f"Aalen-Johansen row sums drift by {drift:.3e}")
    with open(scenario, encoding="utf-8") as handle:
        exact = markov_occupation(json.load(handle))
    final = np.array(grid["occupation"][-1])
    gap = float(np.abs(final - exact).max())
    # 5 times the largest standard error of a proportion, 0.5 / sqrt(n)
    bound = 2.5 / math.sqrt(n)
    out.op(gap <= bound, f"final occupation is {gap:.4f} from the exact product (bound {bound:.4f})")
    return out


def read_rows(path: str):
    with open(path, encoding="utf-8") as handle:
        next(handle)
        return [
            (int(s), float(t), int(x))
            for s, t, x in (line.strip().split(",") for line in handle if line.strip())
        ]


def check_continuous(commands, codes, stdouts, sample_times: int, seed: int) -> Outcome:
    """Nelson-Aalen increments at sampled event times against count / at-risk."""
    out = Outcome()
    out.op(codes[0] == 0, f"estimate exited with {codes[0]}")
    argv = commands[0]
    rows = read_rows(_argument(argv, "--input"))
    transitions = observed_transitions(rows)
    out.items = len(transitions)
    if codes[0]:
        return out
    grid = _load_grid(_argument(argv, "--out-json"))
    times = grid["times"]
    out.op(times == sorted(t for t, _, _ in transitions), "event times differ from the input")
    by_subject: dict[int, list[tuple[float, int]]] = {}
    for subject, t, state in rows:
        by_subject.setdefault(subject, []).append((t, state))
    index = {t: i for i, t in enumerate(times)}
    rng = _rng(seed, 401)
    picks = rng.choice(len(transitions), size=min(sample_times, len(transitions)), replace=False)
    dim = grid["d"]
    for pick in picks:
        u, j, k = transitions[int(pick)]
        at_risk = 0
        for history in by_subject.values():
            before = history[0][1]
            for t, state in history[1:]:
                if t >= u:
                    break
                before = state
            at_risk += before == j
        expected = np.zeros((dim, dim))
        expected[j - 1, k - 1] = 1.0 / at_risk
        expected[j - 1, j - 1] = -1.0 / at_risk
        got = np.array(grid["hazard_steps"][index[u]]) if u in index else np.full((dim, dim), np.inf)
        gap = float(np.abs(got - expected).max())
        out.op(gap <= 1e-12, f"Nelson-Aalen increment at {u!r} is off by {gap:.3e}")
    return out


def check(workload: str, plan: dict, commands, codes, stdouts) -> Outcome:
    if workload == "grid-pipeline":
        return check_grid_pipeline(commands, codes, stdouts, **plan["check"])
    if workload == "continuous-estimate":
        return check_continuous(commands, codes, stdouts, **plan["check"])
    return check_verify(commands, codes, stdouts, wide=workload == "verify-wide")
