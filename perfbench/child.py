"""Runs one workload in a process of its own and writes its measurements.

Usage: python3 child.py SPEC.json

The spec names the workload, the prepared plan (its inputs, each a list of
CLI command lines that make one repetition), the measuring time and whether
to trace.  Commands run in-process through ``prodint.cli.main`` after the
imports are done; one unmeasured warm-up repetition comes first.  Every
repetition's outputs are checked outside the timed region.

Untraced runs report the median repetition time of each input, averaged
over the inputs, with every command's time scaled to the reference speed of
the host (see speed.py).  Traced runs alternate an untraced and a traced
repetition on the same input, so the difference of their medians is the
tracing overhead; traced times, like the spans, are not scaled.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import statistics
import sys
import time

import speed
import tracer
import workloads

MIN_REPS = 3
MAX_REPS = 200


def run_rep(cli, commands, spans=None):
    """Run one repetition's commands; returns (scaled seconds, raw seconds, exit codes, stdouts).

    The scaled time is each command's time at the reference speed of
    `speed`, from reference loops timed right before and after it.
    """
    codes, stdouts = [], []
    elapsed = raw = 0.0
    gc.collect()
    with tracer.Instrumentation(spans) if spans is not None else contextlib.nullcontext():
        for argv in commands:
            buffer = io.StringIO()
            before = speed.loop_seconds()
            started = time.perf_counter()
            with contextlib.redirect_stdout(buffer):
                code = cli.main(list(argv))
            seconds = time.perf_counter() - started
            elapsed += speed.scaled(seconds, before, speed.loop_seconds())
            raw += seconds
            codes.append(code)
            stdouts.append(buffer.getvalue())
    return elapsed, raw, codes, stdouts


def report_bytes(commands) -> int:
    total = 0
    for argv in commands:
        if "--report" in argv:
            total += os.path.getsize(argv[argv.index("--report") + 1])
    return total


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    import prodint.cli as cli

    plan = spec["plan"]
    inputs = plan["inputs"]
    totals = {"attempted": 0, "failed": 0}
    problems: list[str] = []
    records: dict[str, list[int]] = {}

    def measure(index, spans=None):
        commands = inputs[index % len(inputs)]
        seconds, raw, codes, stdouts = run_rep(cli, commands, spans)
        outcome = workloads.check(spec["workload"], plan, commands, codes, stdouts)
        totals["attempted"] += outcome.attempted
        totals["failed"] += outcome.failed
        problems.extend(outcome.problems)
        for name, (passed, total) in outcome.records.items():
            counts = records.setdefault(name, [0, 0])
            counts[0] += passed
            counts[1] += total
        return seconds, raw, outcome.items, commands

    measure(0)  # warm-up: fills lazy imports and caches, not timed
    deadline = time.perf_counter() + spec["seconds"]
    result: dict = {}
    if not spec["trace"]:
        # inputs are visited in turn, so each one is sampled across the run
        walls = [[] for _ in inputs]
        raws = [[] for _ in inputs]
        counts = [0 for _ in inputs]
        index = 0
        while index < MAX_REPS and (index < MIN_REPS * len(inputs) or time.perf_counter() < deadline):
            seconds, raw, counts[index % len(inputs)], _ = measure(index)
            walls[index % len(inputs)].append(seconds)
            raws[index % len(inputs)].append(raw)
            index += 1
        typical = [statistics.median(times) for times in walls]
        result["metrics"] = {
            "wall_s": statistics.fmean(typical),
            "items_per_s": sum(counts) / sum(typical),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["reps"] = index
        result["walls"] = walls
        result["raw_walls"] = raws
        result["items"] = counts
    else:
        plain, traced, layer_runs, tops = [], [], [], []
        index = 0
        while index < MAX_REPS and (index < 2 or time.perf_counter() < deadline):
            _, seconds, _, _ = measure(index)
            plain.append(seconds)
            spans = tracer.Spans()
            _, seconds, _, commands = measure(index, spans)
            traced.append(seconds)
            layer_runs.append(tracer.layer_metrics(spans, report_bytes(commands)))
            tops.append(tracer.top_self_times(spans))
            index += 1
        metrics = {
            key: statistics.median(run[key] for run in layer_runs) for key in layer_runs[0]
        }
        metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        result["metrics"] = metrics
        result["reps"] = len(traced)
        result["top_self"] = tops[len(tops) // 2]
    result.update(totals)
    result["problems"] = problems[:20]
    result["records"] = records
    with open(spec["result_path"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
