"""Command-line front end: simulate, estimate, verify, convergence.

Exit codes: 0 all good, 1 a check failed, 2 usage or configuration error
(or a transform whose refinement schedule did not settle), 3 I/O error.
Every run is reproducible from the config digest and the seed printed in
its report.

``simulate`` and ``estimate`` run only the estimation pipeline
(``estimators``, ``simulation`` and the calculus beneath them).  The check
suites (``checks``) and the path-space oracle (``multistate``) are
imported the first time ``verify`` or ``convergence`` runs.  Only a report
holds the config digest, so it is taken only when one is written.

The JSON documents, the ``verify``/``convergence`` run report and the
``estimate --out-json`` grid, are written by ``estimators.write_json``;
this module only names the report's keys, in ``_write_report``.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
import time

import numpy as np

from .estimators import (
    EstimationError,
    FormatError,
    GridBudgetError,
    estimate,
    line_of_state,
    read_event_histories,
    write_event_histories,
    write_grid_json,
    write_json,
    write_occupation_csv,
)
from .interval_functions import ConvergenceError
from .simulation import (
    CensoringConfig,
    ConfigError,
    ScenarioConfig,
    exact_pathspace,
    exact_pathspaces,
    load_censoring,
    load_scenario,
    packaged_scenario,
    simulate_sample,
)

CORPUS_SCENARIOS = ("idn.json", "surv.json", "forced_exit.json")


def _digest(*documents) -> str:
    import hashlib  # loads OpenSSL, which simulate and estimate do not need

    canonical = json.dumps(documents, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def _write_report(path, *, command, config_digest, seed, suites=(), records, table=(), elapsed_s) -> None:
    """The JSON run report, its keys in this order; no path, no file."""
    if path:
        write_json(path, {
            "command": command,
            "config_digest": config_digest,
            "seed": seed,
            "suites": suites,  # verify: name, records and wall_s per suite
            "records": records,  # name, lhs, rhs, tol, passed, detail, kind
            "table": table,
            "elapsed_s": elapsed_s,
        })


def _slack(record) -> float:
    """Distance of a bound record from its bound, negative when it failed; a
    failure at equality is 0.0, not -0.0."""
    distance = abs(record.lhs - record.rhs)
    return distance if record.passed else 0.0 - distance


def _summarize(records) -> int:
    """Print one line per check name; return 1 if anything failed.

    Equality checks show their worst gap |lhs - rhs| next to its tolerance,
    bound checks the smallest slack to their bound.
    """
    by_name: dict[str, list] = {}
    for record in records:
        by_name.setdefault(record.name, []).append(record)
    failed = False
    for name, group in by_name.items():
        bad = [r for r in group if not r.passed]
        status = "PASS" if not bad else "FAIL"
        if group[0].kind == "bound":
            margin = f"min slack {min(_slack(r) for r in group):.3e}"
        else:
            worst = max(group, key=lambda r: abs(r.lhs - r.rhs))
            margin = f"worst gap {abs(worst.lhs - worst.rhs):.3e}, tol {worst.tol:.0e}"
        print(f"check {name}: {status} ({len(group) - len(bad)}/{len(group)}, {margin})")
        for r in bad[:5]:
            print(f"  FAIL {r.detail}: lhs={r.lhs!r} rhs={r.rhs!r} tol={r.tol!r}")
        failed = failed or bool(bad)
    return 1 if failed else 0


def cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    censoring = load_censoring(args.censoring) if args.censoring else CensoringConfig("none")
    try:
        sample = simulate_sample(scenario, censoring, args.n, args.seed)
    except ConfigError as exc:  # the rule table, an observation switch or the sample size
        raise ConfigError(f"{args.scenario}: {exc}") from None
    rows = write_event_histories(args.out, sample)
    print(f"wrote {len(sample)} subjects ({rows} rows, {len(sample.times)} jumps) to {args.out}")
    return 0


def cmd_estimate(args) -> int:
    if args.upto is not None and not math.isfinite(args.upto):
        raise ConfigError(f"--upto must be a finite time, got {args.upto!r}")
    if args.dim is not None and args.dim < 1:
        raise ConfigError(f"--dim must be at least 1, got {args.dim}")
    with open(args.input, "rb") as handle:
        data = handle.read()  # once: a pipe has nothing left to read a second time
    sample = read_event_histories(io.BytesIO(data), max_state=args.dim)
    try:
        grid = estimate(sample, upto=args.upto, dim=args.dim)
    except GridBudgetError as exc:
        if args.dim is not None:
            raise ConfigError(f"--dim {args.dim}: {exc}") from None
        line = line_of_state(data, sample.max_state)
        raise FormatError(f"line {line}: state {sample.max_state}: {exc}") from None
    if args.out_csv:
        write_occupation_csv(args.out_csv, grid)
        print(f"wrote occupation curve to {args.out_csv}")
    if args.out_json:
        write_grid_json(args.out_json, grid)
        print(f"wrote estimate grid to {args.out_json}")
    tail = grid.occupation_at(grid.times[-1]) if grid.times else grid.p0
    print("final occupation estimate:", " ".join(f"{v:.4f}" for v in tail))
    return 0


def _corpus_scenarios(corpus_dir) -> dict[str, ScenarioConfig]:
    if corpus_dir:  # a missing file is an OSError that names its path
        return {name: load_scenario(os.path.join(corpus_dir, name)) for name in CORPUS_SCENARIOS}
    return {name: packaged_scenario(name) for name in CORPUS_SCENARIOS}


def cmd_verify(args) -> int:
    from . import checks

    started = time.perf_counter()
    if args.count < 0:
        raise ConfigError(f"--count must be at least 0, got {args.count}")
    if args.only and args.only not in checks.SUITES:
        print(f"unknown check {args.only!r}; choose from {', '.join(sorted(checks.SUITES))}", file=sys.stderr)
        return 2

    if args.scenario:
        scenarios = {os.path.basename(args.scenario): load_scenario(args.scenario)}
    else:
        scenarios = _corpus_scenarios(args.corpus)
    rng = np.random.default_rng(args.seed)
    mixed = [checks.random_scenario(rng) for _ in range(args.count)]
    mixed += [checks.random_scenario(rng, progressive=True) for _ in range(args.count // 4)]
    mixed += [checks.random_scenario(rng, forced_exit=True) for _ in range(args.count // 4)]
    spaces = []
    for name, scenario in scenarios.items():
        try:
            spaces.append(exact_pathspace(scenario))
        except ValueError as exc:  # a law the oracle cannot build: weights off 1, too many paths
            raise ConfigError(f"{args.scenario or name}: {exc}") from None
    spaces += exact_pathspaces(mixed)
    labels = [*scenarios, *(f"random {i}" for i in range(len(mixed)))]

    inputs = checks.SuiteInputs(spaces, labels, rng, args.count, corpus=not args.scenario)
    records, suites = [], []
    for name in [args.only] if args.only else checks.SUITES:
        suite_started = time.perf_counter()
        made = checks.SUITES[name](inputs)
        seconds = time.perf_counter() - suite_started
        print(f"suite {name}: {len(made)} records in {seconds:.4f} s")
        suites.append({"name": name, "records": len(made), "wall_s": seconds})
        records += made
    if args.only == "hazard-defect":
        print("defect profile on", labels[0])
        for label, value in checks.hazard_defect_table(spaces[0]):
            print(f"  {label:>8}: {value:.3e}")

    status = _summarize(records)
    _write_report(
        args.report,
        command="verify",
        config_digest=_digest({k: v.to_json_dict() for k, v in scenarios.items()}, args.count)
        if args.report else None,
        seed=args.seed,
        suites=suites,
        records=records,
        elapsed_s=time.perf_counter() - started,
    )
    return status


def cmd_convergence(args) -> int:
    from . import checks

    started = time.perf_counter()
    if not (math.isfinite(args.sup_tol) and args.sup_tol > 0.0):
        raise ConfigError(f"--sup-tol must be a positive finite tolerance, got {args.sup_tol!r}")
    if not math.isfinite(args.bias_floor):
        raise ConfigError(f"--bias-floor must be finite, got {args.bias_floor!r}")
    scenario = load_scenario(args.scenario)
    if not scenario.grid:
        # the study compares the estimated and exact curves at the grid times
        raise ConfigError(f"{args.scenario}: scenario grid is empty, so there is no time to compare at")
    conforming = load_censoring(args.censoring)
    violating = load_censoring(args.violating) if args.violating else None
    try:
        ns = [int(x) for x in args.n.split(",") if x]
    except ValueError:
        ns = []
    if not ns or any(n < 1 for n in ns):
        raise ConfigError(f"--n must be a comma-separated list of positive sample sizes, got {args.n!r}")
    try:
        records, table = checks.convergence_study(
            scenario, conforming, violating, ns, args.seed, args.sup_tol, args.bias_floor
        )
    except EstimationError:  # a drawn sample, which the study names by its arm, size and seed
        raise
    except ValueError as exc:  # the scenario's law, named as verify names it
        raise ConfigError(f"{args.scenario}: {exc}") from None
    print(f"{'arm':>12} {'n':>8} {'sup_error':>12}")
    for row in table:
        print(f"{row['arm']:>12} {row['n']:>8} {row['sup_error']:>12.5f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write("arm,n,sup_error\n")
            for row in table:
                handle.write(f"{row['arm']},{row['n']},{row['sup_error']}\n")
        print(f"wrote table to {args.out}")
    status = _summarize(records)
    _write_report(
        args.report,
        command="convergence",
        config_digest=_digest(
            scenario.to_json_dict(),
            conforming.to_json_dict(),
            violating.to_json_dict() if violating else None,
            ns,
        ) if args.report else None,
        seed=args.seed,
        records=records,
        table=table,
        elapsed_s=time.perf_counter() - started,
    )
    return status


class _VerifyHelp(argparse.Action):
    """``verify -h``: the help of ``--only`` names every check suite, so the
    suites are imported when the help is shown, not when the parser is built."""

    only: argparse.Action  # the --only option

    def __init__(self, option_strings, dest, **kwargs):
        super().__init__(option_strings, argparse.SUPPRESS, nargs=0, default=argparse.SUPPRESS, **kwargs)

    def __call__(self, parser, namespace, values, option_string=None):
        from . import checks

        self.only.help = f"run a single check suite: {', '.join(checks.SUITES)}"
        parser.print_help()
        parser.exit()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prodint",
        description="Multi-state product-integral estimation and its verification harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="sample censored event histories to CSV")
    sim.add_argument("--scenario", required=True, help="scenario JSON file")
    sim.add_argument("--censoring", help="censoring JSON file (default: none)")
    sim.add_argument("--n", type=int, required=True, help="number of subjects (>= 1)")
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--out", required=True, help="output CSV path")
    sim.set_defaults(func=cmd_simulate)

    est = sub.add_parser("estimate", help="run the estimators on an event-history CSV")
    est.add_argument("--input", required=True, help="event-history CSV")
    est.add_argument("--dim", type=int, help="number of observable states (default: inferred)")
    est.add_argument("--upto", type=float, help="ignore transitions after this time")
    est.add_argument("--out-csv", help="occupation-curve CSV output")
    est.add_argument("--out-json", help="full estimate grid JSON output")
    est.set_defaults(func=cmd_estimate)

    ver = sub.add_parser("verify", help="run the exact-identity check suites", add_help=False)
    shows_help = ver.add_argument("-h", "--help", action=_VerifyHelp, help="show this help message and exit")
    ver.add_argument("--corpus", help="corpus directory (default: packaged)")
    ver.add_argument("--scenario", help="verify a single scenario JSON instead of the corpus")
    shows_help.only = ver.add_argument("--only", help="run a single check suite")
    ver.add_argument("--count", type=int, default=100, help="randomized instances per suite (>= 0)")
    ver.add_argument("--seed", type=int, default=7)
    ver.add_argument("--report", help="write a JSON run report here")
    ver.set_defaults(func=cmd_verify)

    conv = sub.add_parser("convergence", help="error-vs-sample-size study against the oracle")
    conv.add_argument("--scenario", required=True)
    conv.add_argument("--censoring", required=True, help="conforming censoring JSON")
    conv.add_argument("--violating", help="violating censoring JSON for the negative control")
    conv.add_argument("--n", default="100,1000,10000", help="comma-separated sample sizes")
    conv.add_argument("--seed", type=int, default=7)
    conv.add_argument("--sup-tol", type=float, default=0.02, help="gate on the final sup error")
    conv.add_argument("--bias-floor", type=float, default=0.05, help="violating arm must exceed this")
    conv.add_argument("--out", help="plot-ready CSV output")
    conv.add_argument("--report", help="write a JSON run report here")
    conv.set_defaults(func=cmd_convergence)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # SeedSequence, and so every sampler stream, takes non-negative seeds only
        if getattr(args, "seed", 0) < 0:
            raise ConfigError(f"--seed must be a non-negative integer, got {args.seed}")
        return args.func(args)
    except (ConvergenceError, ValueError) as exc:  # ConfigError, FormatError and JSONDecodeError too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
