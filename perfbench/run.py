"""Benchmark of the prodint command line: four workloads, five end-to-end
metrics, and a traced run that attributes time to the package's modules.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-corpus --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload in turn
    python3 perfbench/run.py --quick                     # tiny sizes, checks the output

Each workload runs in a child process of its own, one at a time.  Inputs
are generated from --seed into a scratch directory inside the checkout,
which is removed afterwards.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.  The
exit code is 1 when any output check failed and 2 when the checkout has
no package to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

import speed
import tracer
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPS = 7
CHILD_BUDGET_S = 170.0
# A fresh interpreter imports the CLI and loads the workload's config files,
# then prints how long that took and how long the reference workload of
# speed.py takes twice afterwards; it runs after the timed region so that
# its numpy import is not taken out of the set-up time.  Timing inside the
# interpreter keeps the process start and exit, whose cost here jumps in
# steps of tens of milliseconds, out of the figure.
SETUP_CODE = (
    "import time\n"
    "started = time.perf_counter()\n"
    "import sys\n"
    "import prodint.cli\n"
    "from prodint.simulation import load_censoring, load_scenario\n"
    "n = int(sys.argv[1])\n"
    "for path in sys.argv[2:2 + n]:\n"
    "    load_scenario(path)\n"
    "for path in sys.argv[2 + n:]:\n"
    "    load_censoring(path)\n"
    "seconds = time.perf_counter() - started\n"
    "from speed import loop_seconds\n"
    "print(seconds, loop_seconds(), loop_seconds())\n"
)
END_TO_END_UNITS = {
    "wall_s": "s",
    "items_per_s": "items/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if "bytes" in name:
        return "B"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join((SRC, HERE))
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def environment(seed: int, workload: str, sizes: dict) -> dict:
    digest = hashlib.sha256()
    package = os.path.join(SRC, "prodint")
    for folder, _, files in sorted(os.walk(package)):
        for name in sorted(files):
            if name.endswith((".py", ".json")):
                with open(os.path.join(folder, name), "rb") as handle:
                    digest.update(name.encode() + handle.read())
    revision = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            revision = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            revision = "unknown"

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    return {
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_revision": revision,
        "src_digest": digest.hexdigest()[:16],
        "seed": seed,
        "workload": workload,
        "sizes": sizes,
    }


def measure_setup(plan: dict, reps: int) -> tuple[float, float]:
    """Median time for fresh interpreters to import the CLI and load the configs.

    Returns (median scaled to the reference speed of speed.py, raw median).
    """
    scenarios = list(plan["setup_scenarios"])
    if plan["setup_corpus"]:
        corpus = os.path.join(SRC, "prodint", "corpus")
        scenarios += [os.path.join(corpus, name) for name in workloads.CORPUS_FILES]
    censoring = [plan["setup_censoring"]] if plan.get("setup_censoring") else []
    argv = [sys.executable, "-c", SETUP_CODE, str(len(scenarios)), *scenarios, *censoring]
    times, raws = [], []
    for rep in range(reps + 1):
        proc = subprocess.run(argv, env=child_env(), check=True, timeout=60, capture_output=True, text=True)
        if rep:  # the first start may still write bytecode caches
            seconds, first, second = map(float, proc.stdout.split())
            times.append(speed.scaled(seconds, first, second))
            raws.append(seconds)
    return statistics.median(times), statistics.median(raws)


def run_child(work: str, workload: str, plan: dict, seconds: float, trace: bool, budget: float) -> dict:
    spec = {
        "root": ROOT,
        "workload": workload,
        "plan": plan,
        "seconds": seconds,
        "trace": trace,
        "result_path": os.path.join(work, "result.json"),
    }
    spec_path = os.path.join(work, "spec.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    subprocess.run(
        [sys.executable, os.path.join(HERE, "child.py"), spec_path],
        env=child_env(), check=True, timeout=budget, stdout=subprocess.DEVNULL,
    )
    with open(spec["result_path"], encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> tuple[dict, list[str]]:
    """Prepare, measure and check one workload; returns (result line, report lines)."""
    started = time.perf_counter()
    size = workloads.SIZES["quick" if quick else "full"][workload]
    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch)
    try:
        plan = workloads.PREPARE[workload](work, seed, size)
        metrics = {}
        if not trace:
            metrics["setup_s"], raw_setup = measure_setup(plan, 1 if quick else SETUP_REPS)
        budget = CHILD_BUDGET_S - (time.perf_counter() - started)
        child = run_child(work, workload, plan, seconds, trace, budget)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    metrics.update(child["metrics"])
    attempted, failed = child["attempted"], child["failed"]
    lines = [
        f"workload {workload} seed {seed} seconds {seconds:g} trace {int(trace)} reps {child['reps']}",
        "env " + json.dumps(environment(seed, workload, plan["sizes"]), sort_keys=True),
    ]
    for name, (passed, total) in sorted(child["records"].items()):
        lines.append(f"records {name} {passed}/{total} passed, over all repetitions")
    lines += [f"problem {p}" for p in child["problems"]]
    if trace:
        units = {name: layer_unit(name) for name in metrics}
        for name, seconds_self in child["top_self"]:
            lines.append(f"self_time {name} {seconds_self:.6f} s")
        layers = sorted((metrics[f"{layer}.self_s"], layer) for layer in tracer.MODULES)
        lines.append("layer_self_time " + " ".join(f"{layer}={s:.4f}" for s, layer in reversed(layers)))
    else:
        units = dict(END_TO_END_UNITS)
        lines.append(f"items {' '.join(map(str, child['items']))} {workloads.ITEMS[workload]} per input")
        for times, raws in zip(child["walls"], child["raw_walls"]):
            lines.append(
                f"walls median {statistics.median(times):.4f} s: " + " ".join(f"{t:.4f}" for t in times)
                + f" (unscaled median {statistics.median(raws):.4f} s)"
            )
        lines.append(f"setup unscaled median {raw_setup:.4f} s")
    for name, value in metrics.items():
        lines.append(f"metric {name} {value!r} {units[name]}")
    if not trace:
        lines.append(f"metric failed_share {failed / max(attempted, 1)!r} ratio")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return result, lines


def declared_metrics() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]} | {"failed_share": "ratio"},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def missing_metrics(lines: list[str], declared: dict) -> list[str]:
    printed = {}
    for line in lines:
        parts = line.split()
        if parts[0] == "metric" and len(parts) == 4:
            printed[parts[1]] = parts[3]
    return [f"{n} [{u}]" for n, u in declared.items() if printed.get(n) != u]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny sizes; check every metric is printed")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "prodint", "cli.py")):
        print(f"perfbench: no package to measure under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)  # the verify-corpus seed picker replays the package's generator

    if args.quick:
        declared = declared_metrics()
        passes = [(w, t) for w in workloads.WORKLOADS for t in (0, 1)]
        seconds = 0.5
    else:
        chosen = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        passes = [(w, args.trace) for w in chosen]
        seconds = args.seconds

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload, trace in passes:
        try:
            result, lines = run_workload(workload, args.seed, seconds, bool(trace), args.quick)
        except (subprocess.SubprocessError, OSError, RuntimeError, ValueError) as exc:
            print(f"perfbench: {workload} did not complete: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
        if args.quick:
            absent = missing_metrics(lines, declared[trace])
            if absent:
                print(f"perfbench: {workload} trace {trace} did not print {', '.join(absent)}", file=sys.stderr)
                result["correct"] = False
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = f"{workload}/" if len(passes) > 1 else ""
        suffix = f"/trace{trace}" if args.quick else ""
        for name, entry in result["metrics"].items():
            combined["metrics"][prefix + name + suffix] = entry
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
