import functools
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from prodint import GeneralIF, checks, cli, estimators, multiplicative_transform, read_event_histories, simulation
from prodint.checks import CheckRecord
from prodint.cli import _summarize, _write_report, main
from prodint.estimators import EstimateGrid, write_grid_json, write_json

from corpora import float_sum_exit_scenario, wide_grid_scenario
from reference_impl import empirical_occupancy

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "src" / "prodint" / "corpus"
DATA = ROOT / "tests" / "data"
TRACER = ROOT / "perfbench" / "tracer.py"


def run(*argv):
    return main([str(a) for a in argv])


def run_fresh(*args, stdin=None):
    """A fresh interpreter with this package on its path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    return subprocess.run(
        [sys.executable, *map(str, args)], input=stdin, capture_output=True, text=True, env=env, timeout=120
    )


class TestSimulate:
    def test_writes_sample(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = run(
            "simulate", "--scenario", f"{CORPUS}/idn.json",
            "--censoring", f"{CORPUS}/conforming.json",
            "--n", 100, "--seed", 7, "--out", out,
        )
        assert code == 0
        assert "100 subjects" in capsys.readouterr().out
        assert len(read_event_histories(out)) == 100

    def test_zero_subjects_is_usage_error(self, tmp_path, capsys):
        code = run(
            "simulate", "--scenario", f"{CORPUS}/idn.json",
            "--n", 0, "--seed", 7, "--out", tmp_path / "s.csv",
        )
        assert code == 2
        assert "subject" in capsys.readouterr().err

    def test_missing_scenario_is_io_error(self, tmp_path, capsys):
        code = run(
            "simulate", "--scenario", tmp_path / "nope.json",
            "--n", 5, "--seed", 7, "--out", tmp_path / "s.csv",
        )
        assert code == 3
        assert "nope.json" in capsys.readouterr().err


class TestEstimate:
    def test_uncensored_curve_equals_proportions(self, tmp_path):
        csv_path = tmp_path / "s.csv"
        assert run(
            "simulate", "--scenario", f"{CORPUS}/idn.json",
            "--n", 200, "--seed", 11, "--out", csv_path,
        ) == 0
        occ = tmp_path / "occ.csv"
        grid_json = tmp_path / "grid.json"
        assert run(
            "estimate", "--input", csv_path, "--dim", 3,
            "--out-csv", occ, "--out-json", grid_json,
        ) == 0
        sample = read_event_histories(csv_path)
        rows = occ.read_text().strip().splitlines()
        assert rows[0] == "t,p_1,p_2,p_3"
        for row in rows[1:]:
            t, *probs = map(float, row.split(","))
            for j, p in enumerate(probs, start=1):
                assert p == pytest.approx(empirical_occupancy(sample, j, t), abs=1e-12)
        payload = json.loads(grid_json.read_text())
        assert set(payload) >= {"d", "p0", "times", "hazard_steps", "transition", "occupation"}

    @pytest.mark.parametrize("upto", ["nan", "inf", "-inf"])
    def test_non_finite_upto_is_usage_error(self, tmp_path, capsys, upto):
        sample = tmp_path / "s.csv"
        sample.write_text("subject,time,state\n0,0.0,1\n0,1.0,2\n")
        assert run("estimate", "--input", sample, f"--upto={upto}") == 2
        err = capsys.readouterr().err
        assert "--upto" in err and upto in err

    @pytest.mark.parametrize("dim", [0, -1])
    def test_dimension_below_one_is_usage_error(self, tmp_path, capsys, dim):
        sample = tmp_path / "s.csv"
        sample.write_text("subject,time,state\n0,0.0,0\n")
        assert run("estimate", "--input", sample, "--dim", dim) == 2
        assert f"--dim must be at least 1, got {dim}" in capsys.readouterr().err

    def test_state_beyond_dimension_names_row(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("subject,time,state\n0,0.0,1\n0,1.0,99\n")
        code = run("estimate", "--input", bad, "--dim", 3)
        assert code == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize("state", [100_000, 10**15])
    def test_oversized_state_is_refused_before_allocating(self, tmp_path, capsys, state):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"subject,time,state\n0,0.0,1\n1,0.0,2\n1,1.0,{state}\n")
        assert run("estimate", "--input", bad, "--out-json", tmp_path / "grid.json") == 2
        err = capsys.readouterr().err
        assert f"line 4: state {state}: " in err and "above the budget of 16777216" in err
        assert not (tmp_path / "grid.json").exists()

    def test_oversized_dimension_is_refused(self, tmp_path, capsys):
        csv_path = tmp_path / "s.csv"
        csv_path.write_text("subject,time,state\n0,0.0,1\n0,1.0,2\n")
        assert run("estimate", "--input", csv_path, "--dim", 5000) == 2
        assert "--dim 5000: 1 event times with 5000 states" in capsys.readouterr().err

    def test_state_beyond_int64_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"subject,time,state\n0,0.0,1\n0,1.0,{2**63}\n")
        assert run("estimate", "--input", bad) == 2
        assert f"line 3: state {2**63} out of range" in capsys.readouterr().err

    def test_malformed_row_names_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("subject,time,state\n0,0.0,1\n0,zap,2\n")
        assert run("estimate", "--input", bad) == 2
        assert "line 3" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rows, options, message",
        [
            # the bulk parse declines the file, so the row reader reads it
            ("0,0.0,1\n0,1.0,99\n", ["--dim", "3"], "line 3: state 99 exceeds dimension 3"),
            # the grid is over budget, so the line of the largest state is looked up
            ("0,0.0,1\n0,1.0,5000\n", [], "line 3: state 5000: "),
        ],
        ids=["beyond-dim", "over-budget"],
    )
    def test_piped_input_reads_as_the_file(self, tmp_path, rows, options, message):
        text = "subject,time,state\n" + rows
        path = tmp_path / "s.csv"
        path.write_text(text)
        from_file = run_fresh("-m", "prodint.cli", "estimate", "--input", path, *options)
        piped = run_fresh("-m", "prodint.cli", "estimate", "--input", "/dev/stdin", *options, stdin=text)
        assert from_file.returncode == piped.returncode == 2
        assert message in from_file.stderr
        assert piped.stderr == from_file.stderr


def test_commands_load_only_the_layers_they_run():
    # a fresh interpreter: simulate and estimate need neither the check
    # suites, the path-space oracle nor OpenSSL; verify loads them itself
    script = (
        "import sys\n"
        "import prodint.cli\n"
        "from prodint.simulation import load_scenario\n"
        "loaded = {'prodint.checks', 'prodint.multistate', 'hashlib', '_hashlib'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
        "from prodint import PathSpace\n"
        "sys.exit(prodint.cli.main(['verify', '--count', '0', '--only', 'extinction-exit']))\n"
    )
    done = run_fresh("-c", script)
    assert done.returncode == 0, done.stderr
    assert "check extinction-exit: PASS" in done.stdout


def test_no_module_or_command_loads_scipy(tmp_path):
    # a fresh interpreter: every module of the package and every command
    # run on numpy alone, so the package does not depend on scipy
    sample = str(tmp_path / "s.csv")
    script = (
        "import importlib, pkgutil, sys\n"
        "import prodint\n"
        "for module in pkgutil.iter_modules(prodint.__path__):\n"
        "    importlib.import_module(f'prodint.{module.name}')\n"
        "prodint.PathSpace\n"
        "from prodint.cli import main\n"
        f"assert main(['simulate', '--scenario', '{CORPUS}/idn.json', '--censoring', '{CORPUS}/conforming.json',"
        f" '--n', '200', '--seed', '7', '--out', {sample!r}]) == 0\n"
        f"assert main(['estimate', '--input', {sample!r}]) == 0\n"
        "assert main(['verify', '--count', '1']) == 0\n"
        f"assert main(['convergence', '--scenario', '{CORPUS}/idn.json', '--censoring', '{CORPUS}/conforming.json',"
        f" '--violating', '{CORPUS}/violating.json']) == 0\n"
        "loaded = sorted(name for name in sys.modules if name.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded\n"
    )
    done = run_fresh("-c", script)
    assert done.returncode == 0, done.stderr


def test_simulate_does_not_load_numpy_ma(tmp_path):
    # a fresh interpreter: the sampler's history classes need no masked arrays
    script = (
        "import sys\n"
        "import prodint.cli\n"
        f"code = prodint.cli.main(['simulate', '--scenario', '{CORPUS}/idn.json', '--n', '200', '--seed', '7',"
        f" '--out', {str(tmp_path / 's.csv')!r}])\n"
        "assert code == 0, code\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    done = run_fresh("-c", script)
    assert done.returncode == 0, done.stderr


class TestVerify:
    def test_small_run_passes(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = run("verify", "--count", 4, "--seed", 7, "--report", report)
        out = capsys.readouterr().out
        assert code == 0
        assert "check occupation-identity: PASS" in out
        payload = json.loads(report.read_text())
        assert payload["command"] == "verify" and payload["seed"] == 7
        assert all(r["passed"] for r in payload["records"])

    def test_bound_checks_print_slack(self, capsys):
        assert run("verify", "--count", 2, "--seed", 7) == 0
        lines = {line.split(":")[0]: line for line in capsys.readouterr().out.splitlines()}
        for name in ("transform-bound", "integral-bound", "occupation-lower-bound"):
            assert "min slack" in lines[f"check {name}"] and "worst gap" not in lines[f"check {name}"]
        assert "worst gap" in lines["check occupation-identity"]
        assert "tol 1e-10" in lines["check occupation-identity"]

    def test_defect_table_shown_for_single_suite(self, capsys):
        code = run(
            "verify", "--only", "hazard-defect",
            "--scenario", f"{CORPUS}/idn.json", "--count", 2,
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "defect profile" in out and "coarse" in out

    def test_unknown_suite_rejected(self, capsys):
        assert run("verify", "--only", "bogus", "--count", 2) == 2
        assert "unknown check" in capsys.readouterr().err

    def test_unknown_suite_rejected_before_the_corpus_is_read(self, tmp_path, capsys):
        assert run("verify", "--only", "bogus", "--corpus", tmp_path / "missing") == 2
        assert "unknown check" in capsys.readouterr().err

    def test_help_lists_every_suite(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "1000")  # no line wrapping inside a name
        with pytest.raises(SystemExit):
            run("verify", "--help")
        out = capsys.readouterr().out
        assert all(name in out for name in checks.SUITES)

    def test_float_sum_exit_finds_its_extinction(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(float_sum_exit_scenario().to_json_dict()))
        assert run("verify", "--scenario", path, "--count", 0) == 0
        assert "check extinction-exit: PASS (1/1," in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["idn.json", "surv.json"])
    def test_scenario_without_extinction_passes(self, capsys, name):
        # the "no extinction boundary" record guards the corpus, not one scenario
        assert run("verify", "--scenario", f"{CORPUS}/{name}", "--count", 0) == 0
        out = capsys.readouterr().out
        assert "suite extinction-exit: 0 records" in out and "check extinction-exit" not in out

    def test_rounding_slack_scenario_passes(self, capsys):
        # rows that sum to 1 + 9e-13 once stopped the enumeration: "path weights sum to 1.0000000000026998"
        assert run("verify", "--scenario", DATA / "rounding_slack.json", "--count", 0) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_unbuildable_law_names_the_scenario(self, monkeypatch, capsys):
        # idn's five paths over four ticks take 100 bytes, one more than the budget
        monkeypatch.setattr(simulation, "MAX_PATH_SPACE_BYTES", 99)
        message = "the path space of 5 or more paths over 4 ticks would take 100 bytes or more, above the budget of 99\n"
        assert run("verify", "--scenario", f"{CORPUS}/idn.json", "--count", 0) == 2
        assert capsys.readouterr().err == f"error: {CORPUS}/idn.json: {message}"
        assert run("verify", "--count", 0) == 2
        assert capsys.readouterr().err == f"error: idn.json: {message}"
        assert run("convergence", "--scenario", f"{CORPUS}/idn.json", "--censoring", f"{CORPUS}/conforming.json") == 2
        assert capsys.readouterr().err == f"error: {CORPUS}/idn.json: {message}"

    def test_scenario_with_extinction_checks_it(self, capsys):
        assert run("verify", "--scenario", f"{CORPUS}/forced_exit.json", "--count", 0) == 0
        assert "check extinction-exit: PASS (1/1," in capsys.readouterr().out

    def test_corpus_without_extinction_fails_its_coverage(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name in ("idn.json", "surv.json"):
            shutil.copy(f"{CORPUS}/{name}", corpus / name)
        shutil.copy(f"{CORPUS}/idn.json", corpus / "forced_exit.json")
        assert run("verify", "--corpus", corpus, "--count", 0) == 1
        assert "FAIL no extinction boundary found in the corpus" in capsys.readouterr().out

    def test_each_suite_reports_its_records_and_time(self, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert run("verify", "--count", 2, "--seed", 7, "--report", report) == 0
        lines = [line for line in capsys.readouterr().out.splitlines() if line.startswith("suite ")]
        payload = json.loads(report.read_text())
        suites = payload["suites"]
        assert [s["name"] for s in suites] == list(checks.SUITES)
        assert sum(s["records"] for s in suites) == len(payload["records"])
        assert all(s["records"] > 0 and s["wall_s"] >= 0.0 for s in suites)
        assert lines == [f"suite {s['name']}: {s['records']} records in {s['wall_s']:.4f} s" for s in suites]

    def test_negative_count_is_usage_error(self, capsys):
        assert run("verify", "--count", -4) == 2
        assert "--count" in capsys.readouterr().err

    def test_zero_count_runs_the_corpus_only(self, capsys):
        assert run("verify", "--count", 0, "--only", "extinction-exit") == 0
        assert "check extinction-exit: PASS" in capsys.readouterr().out

    def test_unsettled_transform_is_usage_error(self, monkeypatch, capsys):
        # read as a function that is not step-like, on a schedule cut at
        # depth 0, the transform cannot settle, so the suite raises
        def unsettled(f, a):
            return multiplicative_transform(GeneralIF(f.dim, f, f.support), a, max_depth=0)

        monkeypatch.setattr(checks, "multiplicative_transform", unsettled)
        assert run("verify", "--only", "chapman-kolmogorov", "--count", 0) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: multiplicative transform over (1, 3]")
        assert "Traceback" not in err

    def test_corrupted_corpus_reports_parse_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name in ("idn.json", "surv.json", "forced_exit.json"):
            shutil.copy(f"{CORPUS}/{name}", corpus / name)
        (corpus / "surv.json").write_text("{ not json")
        code = run("verify", "--corpus", corpus, "--count", 2)
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_corpus_file_is_io_error(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        shutil.copy(f"{CORPUS}/idn.json", corpus / "idn.json")
        code = run("verify", "--corpus", corpus, "--count", 2)
        assert code == 3
        assert "surv.json" in capsys.readouterr().err


class TestSuiteRegistry:
    @pytest.fixture(scope="class")
    def single_suite_runs(self, tmp_path_factory):
        """Exit code and record names of `verify --only NAME --count 2 --seed 7`, by suite."""
        runs = {}
        for name in checks.SUITES:
            report = tmp_path_factory.mktemp("report") / "report.json"
            code = run("verify", "--only", name, "--count", 2, "--seed", 7, "--report", report)
            runs[name] = code, {r["name"] for r in json.loads(report.read_text())["records"]}
        return runs

    @pytest.mark.parametrize("name", list(checks.SUITES))
    def test_each_suite_runs_alone(self, single_suite_runs, name):
        code, names = single_suite_runs[name]
        assert code == 0 and names

    def test_single_suites_make_every_record_name_of_the_full_run(self, single_suite_runs, tmp_path):
        report = tmp_path / "report.json"
        assert run("verify", "--count", 2, "--seed", 7, "--report", report) == 0
        full = {r["name"] for r in json.loads(report.read_text())["records"]}
        assert set().union(*(names for _, names in single_suite_runs.values())) == full

    def test_traced_suite_record_counts_add_up(self, tmp_path):
        spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        assert list(tracer.SUITES) == list(checks.SUITES)
        report = tmp_path / "report.json"
        spans = tracer.Spans()
        with tracer.Instrumentation(spans):
            assert run("verify", "--count", 2, "--seed", 7, "--report", report) == 0
        metrics = tracer.layer_metrics(spans, report.stat().st_size)
        counts = {name: metrics[f"checks.{name}.records"] for name in checks.SUITES}
        assert all(count > 0 for count in counts.values()), counts
        assert sum(counts.values()) == len(json.loads(report.read_text())["records"])


class TestSummary:
    def test_equality_shows_worst_gap_and_tol(self, capsys):
        records = [CheckRecord("eq", 1.0, 1.0 + 2**-40, 1e-10, True), CheckRecord("eq", 0.5, 0.5, 1e-10, True)]
        assert _summarize(records) == 0
        assert capsys.readouterr().out == "check eq: PASS (2/2, worst gap 9.095e-13, tol 1e-10)\n"

    def test_bound_shows_min_slack(self, capsys):
        records = [
            CheckRecord("floor", 3.0, 2.0, 1e-12, True, kind="bound"),
            CheckRecord("floor", 2.5, 2.25, 1e-12, True, kind="bound"),
        ]
        assert _summarize(records) == 0
        assert capsys.readouterr().out == "check floor: PASS (2/2, min slack 2.500e-01)\n"

    def test_failed_bound_has_negative_slack(self, capsys):
        records = [
            CheckRecord("floor", 3.0, 2.0, 1e-12, True, kind="bound"),
            CheckRecord("floor", 1.5, 2.0, 1e-12, False, "x", kind="bound"),
        ]
        assert _summarize(records) == 1
        assert capsys.readouterr().out.startswith("check floor: FAIL (1/2, min slack -5.000e-01)\n")

    def test_failed_bound_at_equality_has_zero_slack(self, capsys):
        records = [CheckRecord("floor", 2.0, 2.0, 0.0, False, "x", kind="bound")]
        assert _summarize(records) == 1
        assert capsys.readouterr().out.startswith("check floor: FAIL (0/1, min slack 0.000e+00)\n")

    def test_report_records_hold_every_field_in_order(self, tmp_path):
        records = [CheckRecord("eq", 1.0, 2.0, 0.0, False, "d"), CheckRecord("b", 1, 2, 0, True, kind="bound")]
        path = tmp_path / "report.json"
        _write_report(path, command="verify", config_digest="digest", seed=7, records=records, elapsed_s=0.5)
        report = json.loads(path.read_text())
        assert list(report) == ["command", "config_digest", "seed", "suites", "records", "table", "elapsed_s"]
        dumped = report["records"]
        assert [list(r) for r in dumped] == [["name", "lhs", "rhs", "tol", "passed", "detail", "kind"]] * 2
        assert [list(r.values()) for r in dumped] == [list(r) for r in records]

    def test_no_report_path_writes_no_file(self, tmp_path, monkeypatch):
        # nor takes the config digest, which only a report holds
        def no_digest(*documents):
            raise AssertionError("a config digest taken without a report")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "_digest", no_digest)
        _write_report(None, command="verify", config_digest="digest", seed=7, records=[], elapsed_s=0.5)
        assert run("verify", "--count", 0, "--only", "extinction-exit") == 0
        convergence = ("convergence", "--scenario", CORPUS / "surv.json", "--censoring", CORPUS / "conforming.json")
        assert run(*convergence, "--n", 50) in (0, 1)
        assert list(tmp_path.iterdir()) == []

    def test_records_coerce_their_numbers_and_are_immutable(self):
        record = CheckRecord("eq", 1, np.float64(2.5), np.int64(0), np.bool_(True))
        assert [type(v) for v in record[1:5]] == [float, float, float, bool]
        assert (record.detail, record.kind) == ("", "equality")
        with pytest.raises(AttributeError):
            record.lhs = 3.0


JSON_FLOATS = st.floats() | st.sampled_from([-0.0, float("nan"), float("inf"), -float("inf")])
JSON_TEXTS = st.text() | st.sampled_from(['say "hi"', "back\\slash", "na\u00efve \u2603 \U0001f600", "\x00\n\t"])


def assert_json_dump_text(path, document):
    """The file at ``path`` holds what json.dump(document, handle, indent=2)
    and a newline write.  A mismatch names its first differing character:
    pytest's own diff of two long texts takes minutes, once per shrink step."""
    dumped = path.with_name("expected.json")
    with open(dumped, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    text, expected = path.read_text(encoding="utf-8"), dumped.read_text(encoding="utf-8")
    if text != expected:
        at = len(os.path.commonprefix([text, expected]))
        window = slice(max(at - 60, 0), at + 60)
        pytest.fail(f"differs from json.dump at character {at}: {text[window]!r} != {expected[window]!r}")


def plain(value):
    """The value json.dump is given for one of write_json's: a float array's
    tolist() and a list of named tuples of one type as their _asdict()s."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, list) and value and hasattr(value[0], "_fields") and len(set(map(type, value))) == 1:
        return [record._asdict() for record in value]
    return value


RECORD_TYPES = [
    namedtuple("One", ["value"]),
    namedtuple("Three", ["name", "na\u00efve", "x_1"]),
    namedtuple("Five", ["a", "b", "c", "d", "e"]),
]
COLUMNS = [
    JSON_FLOATS,
    JSON_TEXTS,
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.none() | st.booleans() | st.integers(-5, 5) | JSON_FLOATS | JSON_TEXTS,
    st.lists(st.integers(0, 3), max_size=2) | st.dictionaries(JSON_TEXTS, st.integers(), max_size=2),
]
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | JSON_FLOATS | JSON_TEXTS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(JSON_TEXTS, inner, max_size=3),
    max_leaves=8,
)


CHUNK = estimators._RECORDS_PER_WRITE


@st.composite
def record_lists(draw, sizes):
    """Records of one named-tuple type, each column drawn from one strategy
    of ``COLUMNS``: a filler record repeated, with drawn records put in at
    drawn places."""
    kind = draw(st.sampled_from(RECORD_TYPES))
    columns = [draw(st.sampled_from(COLUMNS)) for _ in kind._fields]
    record = st.builds(kind, *columns)
    size = draw(sizes)
    if not size:
        return []
    records = [draw(record)] * size
    for _ in range(draw(st.integers(0, 4))):
        records[draw(st.integers(0, size - 1))] = draw(record)
    return records


FLOAT_ARRAYS = arrays(np.float64, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3), elements=JSON_FLOATS)


class TestJsonWriters:
    """write_json, and the report and grid documents built on it, write
    what json.dump(..., indent=2) writes of their plain form."""

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.dictionaries(JSON_TEXTS, record_lists(st.integers(0, 3)) | FLOAT_ARRAYS | JSON_VALUES, max_size=4))
    def test_write_json_matches_json_dump(self, tmp_path, document):
        write_json(tmp_path / "document.json", document)
        assert_json_dump_text(tmp_path / "document.json", {k: plain(v) for k, v in document.items()})

    # a separate property, so that a failure on short lists shrinks fast
    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(record_lists(st.sampled_from([CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])))
    def test_records_across_chunk_boundaries_match_json_dump(self, tmp_path, records):
        write_json(tmp_path / "document.json", {"records": records})
        assert_json_dump_text(tmp_path / "document.json", {"records": plain(records)})

    def test_named_tuples_of_two_types_are_written_as_json_dump_writes_them(self, tmp_path):
        Pair, Other = namedtuple("Pair", ["a", "b"]), namedtuple("Other", ["a", "b"])
        document = {"rows": [Pair(1.5, "x"), Other(2, None)], "empty": []}
        write_json(tmp_path / "document.json", document)
        assert_json_dump_text(tmp_path / "document.json", document)

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.lists(
            st.builds(
                CheckRecord, JSON_TEXTS, JSON_FLOATS, JSON_FLOATS, JSON_FLOATS, st.booleans(),
                JSON_TEXTS, st.sampled_from(["equality", "bound"]),
            ),
            max_size=4,
        ),
        st.lists(
            st.fixed_dictionaries({"arm": JSON_TEXTS, "n": st.integers(1, 10**6), "sup_error": JSON_FLOATS}),
            max_size=3,
        ),
        st.none() | st.integers(0, 2**70),
        JSON_FLOATS,
        st.lists(
            st.fixed_dictionaries({"name": JSON_TEXTS, "records": st.integers(0, 10**6), "wall_s": JSON_FLOATS}),
            max_size=3,
        ),
    )
    def test_report_matches_json_dump(self, tmp_path, records, table, seed, elapsed, suites):
        _write_report(
            tmp_path / "report.json", command="verify", config_digest="0123abcd", seed=seed,
            suites=suites, records=records, table=table, elapsed_s=elapsed,
        )
        assert_json_dump_text(tmp_path / "report.json", {
            "command": "verify",
            "config_digest": "0123abcd",
            "seed": seed,
            "suites": suites,
            "records": [r._asdict() for r in records],
            "table": table,
            "elapsed_s": elapsed,
        })

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.integers(1, 3), st.integers(0, 3), st.data())
    def test_grid_matches_json_dump(self, tmp_path, dim, size, data):
        def floats(*shape):
            values = data.draw(st.lists(JSON_FLOATS, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
            return np.array(values, dtype=float).reshape(shape)

        times = tuple(sorted(set(data.draw(st.lists(st.floats(0.0, 10.0), min_size=size, max_size=size)))))
        grid = EstimateGrid(
            dim, data.draw(st.integers(1, 10**6)), times,
            tuple(floats(dim, dim) for _ in times), tuple(floats(dim, dim) for _ in times),
            floats(dim), tuple(floats(dim) for _ in times),
        )
        write_grid_json(tmp_path / "grid.json", grid)
        assert_json_dump_text(tmp_path / "grid.json", {
            "d": grid.dim,
            "n": grid.n,
            "p0": grid.p0.tolist(),
            "times": list(grid.times),
            "hazard_steps": [step.tolist() for step in grid.hazard_steps],
            "transition": [mat.tolist() for mat in grid.transition],
            "occupation": [row.tolist() for row in grid.occupation],
        })


class TestConvergence:
    def test_single_size_table(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        code = run(
            "convergence", "--scenario", f"{CORPUS}/idn.json",
            "--censoring", f"{CORPUS}/conforming.json",
            "--n", "400", "--seed", 7, "--sup-tol", 0.2, "--out", out,
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "convergence-final" in text and "decreasing" not in text
        assert out.read_text().startswith("arm,n,sup_error")

    def test_report_is_reproducible(self, tmp_path):
        reports = []
        for name in ("a.json", "b.json"):
            path = tmp_path / name
            assert run(
                "convergence", "--scenario", f"{CORPUS}/idn.json",
                "--censoring", f"{CORPUS}/conforming.json",
                "--violating", f"{CORPUS}/violating.json",
                "--n", "100,400", "--seed", 7, "--sup-tol", 0.5,
                "--report", path,
            ) == 0
            payload = json.loads(path.read_text())
            payload.pop("elapsed_s")
            reports.append(payload)
        assert reports[0] == reports[1]

    def test_empty_grid_is_usage_error(self, tmp_path, capsys):
        doc = corpus_document("idn.json")
        doc.update(grid=[], transitions=[])
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        code = run("convergence", "--scenario", path, "--censoring", f"{CORPUS}/conforming.json")
        assert code == 2
        err = capsys.readouterr().err
        assert "empty.json" in err and "grid is empty" in err

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--sup-tol", "nan"),
            ("--sup-tol", "inf"),
            ("--sup-tol", "-1"),
            ("--sup-tol", "0"),
            ("--bias-floor", "nan"),
            ("--bias-floor", "inf"),
        ],
    )
    def test_bad_tolerance_is_usage_error(self, capsys, flag, value):
        code = run(
            "convergence", "--scenario", f"{CORPUS}/idn.json",
            "--censoring", f"{CORPUS}/conforming.json", "--n", "50", flag, value,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert flag in err and repr(float(value)) in err

    @pytest.mark.parametrize("sizes", ["100,abc", "100,1e3", ",", "100,0"])
    def test_bad_sizes_name_the_flag(self, capsys, sizes):
        code = run(
            "convergence", "--scenario", f"{CORPUS}/idn.json",
            "--censoring", f"{CORPUS}/conforming.json", "--n", sizes,
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"--n must be a comma-separated list of positive sample sizes, got {sizes!r}" in err

    def test_gate_failure_sets_exit_code(self, capsys):
        code = run(
            "convergence", "--scenario", f"{CORPUS}/idn.json",
            "--censoring", f"{CORPUS}/conforming.json",
            "--n", "50", "--seed", 7, "--sup-tol", 1e-9,
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_flat_errors_fail_the_decrease_with_zero_slack(self, capsys):
        # errors that stay at 0.0 do not strictly decrease: the bound fails at equality
        code = run("convergence", "--scenario", DATA / "underflow.json", "--censoring", f"{CORPUS}/conforming.json")
        assert code == 1
        out = capsys.readouterr().out
        assert "check convergence-decreasing: FAIL (0/1, min slack 0.000e+00)\n" in out
        assert "-0.000e+00" not in out

    @pytest.mark.parametrize("seed", [6, 8])
    def test_unusable_sample_is_named_by_its_arm_size_and_seed(self, capsys, seed):
        # q = 0.7 can leave the one subject unobserved at time 0: the sample is at fault, not the scenario
        code = run(
            "convergence", "--scenario", f"{CORPUS}/idn.json",
            "--censoring", f"{CORPUS}/conforming.json", "--n", 1, "--seed", seed,
        )
        assert code == 2
        assert capsys.readouterr().err == f"error: conforming arm at n=1, seed {seed}: no subject observed at time 0\n"

    def test_refused_sample_size_is_named_by_its_arm_size_and_seed(self, capsys):
        # the sampler's refusal once named the scenario file, which is not at fault
        code = run(
            "convergence", "--scenario", f"{CORPUS}/idn.json",
            "--censoring", f"{CORPUS}/conforming.json", "--n", 5_000_000_000,
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "error: conforming arm at n=5000000000, seed 7: subject ids must be below 2**32, got 5000000000 subjects\n"
        )


# -- no exception escapes main ----------------------------------------------------

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 5)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([1e400, -1e400, 0.5, 1.5, 2**64])
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def node_paths(doc, prefix=()):
    """Every key or index path into a JSON document, the root excluded."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from node_paths(value, prefix + (key,))


# integers past int64 and past the float range, which numpy and float() refuse
huge_integers = st.sampled_from([2**63, -(2**63) - 1, 2**64 + 1, 10**400, -(10**400)])


@st.composite
def malformed_documents(draw, base, values=json_values):
    """A valid document with up to three nodes replaced or deleted, or raw text."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text(max_size=20))
    doc = json.loads(json.dumps(base))
    for _ in range(draw(st.integers(1, 3))):
        paths = list(node_paths(doc))
        if not paths:
            break
        *parents, last = draw(st.sampled_from(paths))
        holder = functools.reduce(lambda node, key: node[key], parents, doc)
        if draw(st.booleans()):
            del holder[last]
        else:
            holder[last] = draw(values)
    return json.dumps(doc)


def corpus_document(name):
    with open(f"{CORPUS}/{name}", encoding="utf-8") as handle:
        return json.load(handle)


CENSORING_BASES = [
    corpus_document("conforming.json"),
    corpus_document("violating.json"),
    {"kind": "independent_right", "after": {"1.0": 0.25, "2.0": 0.25}, "never": 0.5},
    {"kind": "none"},
]
CSV_TOKENS = ["0", "1", "2", "3", "-1", "0.0", "0.5", "1.0", "2", "nan", "inf", "1e400", "x", "", '"', " ",
              "subject", "time", "state", "9" * 5000, "1" * 140_000, "\x00"]

fuzz_settings = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


def main_exit_code(*argv):
    code = run(*argv)
    assert code in (0, 1, 2, 3)
    return code


@fuzz_settings
@given(
    malformed_documents(corpus_document("idn.json")),
    st.sampled_from(CENSORING_BASES).flatmap(malformed_documents),
)
def test_malformed_configs_never_escape_main(tmp_path, scenario, censoring):
    (tmp_path / "scenario.json").write_text(scenario)
    (tmp_path / "censoring.json").write_text(censoring)
    main_exit_code(
        "simulate", "--scenario", tmp_path / "scenario.json", "--censoring", tmp_path / "censoring.json",
        "--n", 5, "--seed", 1, "--out", tmp_path / "sample.csv",
    )
    main_exit_code(
        "convergence", "--scenario", tmp_path / "scenario.json", "--censoring", tmp_path / "censoring.json",
        "--violating", tmp_path / "censoring.json", "--n", "4,8", "--seed", 1,
    )


@fuzz_settings
@given(
    st.lists(st.lists(st.sampled_from(CSV_TOKENS), max_size=4), max_size=6),
    st.booleans(),
    st.sampled_from([[], ["--dim", 3], ["--upto", 1.0]]),
)
def test_malformed_csv_never_escapes_main(tmp_path, rows, with_header, options):
    lines = ["subject,time,state"] if with_header else []
    lines += [",".join(row) for row in rows]
    (tmp_path / "sample.csv").write_text("\n".join(lines) + "\n")
    main_exit_code("estimate", "--input", tmp_path / "sample.csv", *options)


SCENARIO_NAMES = ("idn.json", "surv.json", "forced_exit.json")


def malformed_scenario(name):
    return malformed_documents(corpus_document(name), json_values | huge_integers)


@fuzz_settings
@given(st.sampled_from(SCENARIO_NAMES).flatmap(malformed_scenario))
def test_malformed_scenario_never_escapes_verify(tmp_path, capsys, scenario):
    path = tmp_path / "scenario.json"
    path.write_text(scenario)
    code = main_exit_code("verify", "--scenario", path, "--count", 0)
    err = capsys.readouterr().err
    assert code in (0, 1) or "scenario.json" in err, err


@st.composite
def broken_corpora(draw):
    """How to lay out each corpus file: kept, malformed, missing, a
    directory or undecodable bytes; or a corpus path that is a file."""
    if draw(st.integers(0, 19)) == 0:
        return None
    layout = {}
    for name in SCENARIO_NAMES:
        kind = draw(st.sampled_from(["kept", "malformed", "malformed", "missing", "directory", "bytes"]))
        text = draw(malformed_scenario(name)) if kind == "malformed" else None
        layout[name] = (kind, text)
    return layout


@fuzz_settings
@given(broken_corpora())
def test_broken_corpus_never_escapes_verify(tmp_path, capsys, layout):
    corpus = Path(tempfile.mkdtemp(dir=tmp_path)) / "corpus"
    if layout is None:
        corpus.write_text("not a directory")
    else:
        corpus.mkdir()
        for name, (kind, text) in layout.items():
            if kind == "kept":
                shutil.copy(f"{CORPUS}/{name}", corpus / name)
            elif kind == "malformed":
                (corpus / name).write_text(text)
            elif kind == "directory":
                (corpus / name).mkdir()
            elif kind == "bytes":
                (corpus / name).write_bytes(b"\xff\xfe{")
    code = main_exit_code("verify", "--corpus", corpus, "--count", 0)
    err = capsys.readouterr().err
    assert code in (0, 1) or str(corpus) in err, err


class TestEscapesFound:
    """Inputs that once escaped main as a traceback, or were accepted."""

    def write_idn(self, tmp_path, **changes):
        doc = corpus_document("idn.json")
        doc.update(changes)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        return path

    def simulate(self, tmp_path, scenario, censoring=f"{CORPUS}/conforming.json"):
        return run(
            "simulate", "--scenario", scenario, "--censoring", censoring,
            "--n", 5, "--seed", 1, "--out", tmp_path / "sample.csv",
        )

    def test_infinite_dimension_is_config_error(self, tmp_path, capsys):
        assert self.simulate(tmp_path, self.write_idn(tmp_path, d=float("inf"))) == 2
        assert "malformed scenario document: OverflowError" in capsys.readouterr().err

    def test_deeply_nested_json_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text("[" * 100_000)
        assert self.simulate(tmp_path, path) == 2
        assert "nested too deeply" in capsys.readouterr().err

    def test_oversized_csv_field_is_format_error(self, tmp_path, capsys):
        path = tmp_path / "sample.csv"
        path.write_text("subject,time,state\n0,0.0,1\n0," + "1" * 200_000 + ",2\n")
        assert run("estimate", "--input", path) == 2
        assert "line 3: field larger than field limit" in capsys.readouterr().err

    def test_nan_initial_probability_is_rejected(self, tmp_path, capsys):
        path = self.write_idn(tmp_path, initial=[float("nan"), 1.0, 0.0])
        assert self.simulate(tmp_path, path) == 2
        assert "initial distribution" in capsys.readouterr().err

    def test_nan_transition_probability_is_rejected(self, tmp_path, capsys):
        transitions = corpus_document("idn.json")["transitions"]
        transitions[0]["probs"] = {"2": float("nan")}
        path = self.write_idn(tmp_path, transitions=transitions)
        assert self.simulate(tmp_path, path) == 2
        assert "transition probabilities" in capsys.readouterr().err

    @pytest.mark.parametrize("tau", [float("nan"), float("inf"), 0.0, -1.0])
    def test_bad_tau_is_rejected_by_name(self, tmp_path, capsys, tau):
        path = self.write_idn(tmp_path, tau=tau)
        message = f"tau must be a positive finite time, got {tau!r}"
        assert self.simulate(tmp_path, path) == 2
        assert message in capsys.readouterr().err
        assert run("verify", "--scenario", path, "--count", 0) == 2
        assert message in capsys.readouterr().err
        assert run("convergence", "--scenario", path, "--censoring", f"{CORPUS}/conforming.json") == 2
        assert message in capsys.readouterr().err

    def test_tau_where_midpoints_overflow_is_rejected_by_name(self, tmp_path, capsys):
        # simulate once wrote rows at time inf, and verify named neither the cause nor the file
        path = self.write_idn(tmp_path, tau=1.7e308, grid=[1e308, 1.5e308], transitions=[])
        message = f"error: {path}: tau must be below 2**1023"
        assert self.simulate(tmp_path, path) == 2
        assert capsys.readouterr().err.startswith(message)
        assert run("verify", "--scenario", path, "--count", 0) == 2
        assert capsys.readouterr().err.startswith(message)

    def test_largest_accepted_tau_keeps_every_time_finite(self, tmp_path, capsys):
        tau = float(np.nextafter(2.0**1023, 0.0))
        transitions = [{"time": tau / 2, "from": 1, "probs": {"2": 0.5}}]
        path = self.write_idn(tmp_path, d=2, tau=tau, grid=[tau / 2, tau], initial=[1.0, 0.0], transitions=transitions)
        assert self.simulate(tmp_path, path) == 0
        assert np.isfinite(read_event_histories(tmp_path / "sample.csv").times).all()
        assert run("verify", "--scenario", path, "--count", 0) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("grid", [[5e-324], [1.0, 1.0000000000000002]])
    def test_grid_with_no_float_between_its_times_verifies(self, tmp_path, capsys, grid):
        # no float lies strictly inside the gap (0, 5e-324) or (1.0, 1.0000000000000002);
        # the schedule once raised "a cell is too narrow to halve" for a gap no suite halves
        path = tmp_path / "close.json"
        path.write_text(json.dumps({
            "d": 2, "tau": 2.0, "grid": grid, "rule": "markov", "initial": [1.0, 0.0],
            "transitions": [{"time": grid[0], "from": 1, "probs": {"2": 0.5}}],
        }))
        for scenario in (path, DATA / "close_grid.json"):
            report = tmp_path / "report.json"
            assert run("verify", "--scenario", scenario, "--count", 0, "--report", report) == 0
            assert capsys.readouterr().err == ""
            records = json.loads(report.read_text())["records"]
            assert records and all(r["passed"] for r in records)

    def test_suite_error_names_its_space(self, monkeypatch, capsys):
        def failing(ps, label=""):
            raise ValueError("the law is out of reach")

        monkeypatch.setattr(checks, "hazard_defect_checks", failing)
        assert run("verify", "--scenario", DATA / "close_grid.json", "--count", 0) == 2
        assert capsys.readouterr().err == "error: close_grid.json: the law is out of reach\n"
        assert run("verify", "--count", 0) == 2
        assert capsys.readouterr().err == "error: idn.json: the law is out of reach\n"

    @pytest.mark.parametrize("censoring", ["conforming.json", "violating.json", "right_censoring.json"])
    def test_observation_switch_with_no_room_is_refused_by_its_times(self, tmp_path, capsys, censoring):
        # 0.5 * (1.0 + 1.0000000000000002) == 1.0, so a span start or cut time
        # there once gave a history whose times do not rise, blamed on a subject
        message = "no time lies strictly between 1.0 and 1.0000000000000002 for an observation switch"
        assert self.simulate(tmp_path, DATA / "close_grid.json", f"{CORPUS}/{censoring}") == 2
        assert capsys.readouterr().err == f"error: {DATA / 'close_grid.json'}: {message}\n"
        argv = ["--scenario", DATA / "close_grid.json", "--censoring", f"{CORPUS}/{censoring}", "--n", 50]
        assert run("convergence", *argv, "--seed", 7) == 2
        assert capsys.readouterr().err == f"error: conforming arm at n=50, seed 7: {message}\n"
        # fully observed, the same grid samples
        out = tmp_path / "full.csv"
        assert run("simulate", "--scenario", DATA / "close_grid.json", "--n", 50, "--seed", 7, "--out", out) == 0
        assert len(read_event_histories(out)) == 50

    def test_rule_table_over_budget_is_refused_by_the_scenario_file(self, tmp_path, capsys):
        # 3,000 ticks of 400 states once asked numpy for a 3.36 GiB table: where
        # memory is limited, a MemoryError traceback that exits 1
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(wide_grid_scenario(3000, 400, "entry_time_dependent").to_json_dict()))
        message = (
            f"error: {path}: the entry_time_dependent rule table of 3000 grid times and dimension 400 "
            "would take 3611406401 bytes, above the budget of 268435456\n"
        )
        for command, *argv in (
            ("simulate", "--n", 10, "--seed", 1, "--out", tmp_path / "sample.csv"),
            ("verify", "--count", 0),
            ("convergence", "--censoring", f"{CORPUS}/conforming.json", "--n", 10),
        ):
            assert run(command, "--scenario", path, *argv) == 2
            assert capsys.readouterr().err == message

    @pytest.mark.parametrize("time", ["1e999", "inf"])
    def test_infinite_time_is_refused_by_its_line(self, tmp_path, capsys, time):
        # once exit 0, with a row at time inf and Infinity, which is not JSON, in the grid
        path = tmp_path / "sample.csv"
        path.write_text(f"subject,time,state\n0,0.0,1\n0,{time},2\n")
        out = tmp_path / "grid.json"
        assert run("estimate", "--input", path, "--out-csv", tmp_path / "o.csv", "--out-json", out) == 2
        assert capsys.readouterr().err == "error: line 3: jump times must be finite\n"
        assert not out.exists()

    def test_undecodable_byte_is_refused_by_its_line(self, tmp_path, capsys):
        # once "'utf-8' codec can't decode byte 0xff in position 33", an offset into the decoder's chunk
        path = tmp_path / "sample.csv"
        path.write_bytes(b"subject,time,state\n0,0.0,1\n0,1.0,\xff\n")
        assert run("estimate", "--input", path) == 2
        assert capsys.readouterr().err == "error: line 3: byte 0xff is not UTF-8 (invalid start byte)\n"

    @pytest.mark.parametrize(
        "document, message",
        [
            ({"kind": "independent_right", "after": {"1.0": float("nan")}, "never": 1.0}, "probabilities"),
            ({"kind": "independent_right", "after": {"1.0": 0.5}, "never": float("nan")}, "probabilities"),
            ({"kind": "independent_right", "after": {"-3.0": 1.0}, "never": 0.0}, "censoring times"),
        ],
    )
    def test_bad_right_censoring_is_rejected(self, tmp_path, capsys, document, message):
        path = tmp_path / "censoring.json"
        path.write_text(json.dumps(document))
        assert self.simulate(tmp_path, f"{CORPUS}/idn.json", path) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "verify", "convergence"])
    def test_negative_seed_is_rejected_by_name(self, tmp_path, capsys, command):
        argv = {
            "simulate": ["--scenario", f"{CORPUS}/idn.json", "--n", 5, "--out", tmp_path / "s.csv"],
            "verify": ["--count", 0],
            "convergence": ["--scenario", f"{CORPUS}/idn.json", "--censoring", f"{CORPUS}/conforming.json"],
        }[command]
        assert run(command, *argv, "--seed", -1) == 2
        err = capsys.readouterr().err
        assert "--seed must be a non-negative integer, got -1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text", ["{", "[]", '{"d": "x"}', "\udcff"])
    def test_malformed_scenario_names_the_file(self, tmp_path, capsys, text):
        path = tmp_path / "scenario.json"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        assert self.simulate(tmp_path, path) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")
        assert run("verify", "--scenario", path, "--count", 0) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")

    @pytest.mark.parametrize("text", ["{", "[]"])
    def test_broken_corpus_names_the_file(self, tmp_path, capsys, text):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for name in ("idn.json", "surv.json", "forced_exit.json"):
            shutil.copy(f"{CORPUS}/{name}", corpus / name)
        (corpus / "forced_exit.json").write_text(text)
        assert run("verify", "--corpus", corpus, "--count", 0) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {corpus / 'forced_exit.json'}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "change, message",
        [
            (
                {"transitions": [{"time": 1.0, "from": 1.5, "probs": {"2": 0.5}}]},
                "rule state 'from' must be a whole number, got 1.5",
            ),
            ({"d": 2.5}, "dimension 'd' must be a whole number, got 2.5"),
            (
                {"transitions": [{"time": 3.0, "from": 2, "when": float("nan"), "probs": {"3": 0.8}}]},
                "rule feature 'when' must be finite, got nan",
            ),
        ],
    )
    def test_non_integral_or_nan_fields_are_rejected(self, tmp_path, capsys, change, message):
        # these once loaded truncated (state 1, dimension 2) or as a rule that never matches
        path = self.write_idn(tmp_path, **change)
        assert run("verify", "--scenario", path, "--count", 0) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert self.simulate(tmp_path, path) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_whole_number_floats_still_load(self, tmp_path):
        path = self.write_idn(tmp_path, d=3.0, transitions=[{"time": 1.0, "from": 1.0, "probs": {"2": 0.5}}])
        assert run("verify", "--scenario", path, "--count", 0) == 0

    def test_law_with_overflowing_reciprocal_occupation_verifies(self, tmp_path, capsys):
        # a valid law whose state 2 holds 1e-320 after t = 1, whose 1/occupation
        # overflows: the hazard-integral suite multiplies by the occupation
        # instead of storing its reciprocal, so the law verifies
        report = tmp_path / "report.json"
        assert run("verify", "--scenario", DATA / "tiny_occupation.json", "--count", 0, "--report", report) == 0
        assert capsys.readouterr().err == ""
        records = json.loads(report.read_text())["records"]
        assert any(r["name"] == "hazard-integral" for r in records)
        assert all(r["passed"] for r in records)

    def test_law_whose_path_weight_underflows_verifies(self, capsys):
        # 1 -> 2 at t = 1 and 2 -> 1 at t = 2, each with probability 1e-200:
        # the path that takes both weighs 1e-400, which underflowed to a
        # zero weight that the path space refused; it is dropped instead
        assert run("verify", "--scenario", DATA / "underflow.json", "--count", 0) == 0
        assert capsys.readouterr().err == ""

    def test_exact_convergence_study_passes(self, tmp_path, capsys):
        # nobody moves, so the estimate is exact at every size and its
        # errors, all 0.0, cannot fall: that once failed convergence-decreasing
        report = tmp_path / "report.json"
        argv = ["--scenario", DATA / "no_moves.json", "--censoring", f"{CORPUS}/conforming.json"]
        assert run("convergence", *argv, "--report", report) == 0
        payload = json.loads(report.read_text())
        assert [row["sup_error"] for row in payload["table"]] == [0.0, 0.0, 0.0]
        (decreasing,) = [r for r in payload["records"] if r["name"] == "convergence-decreasing"]
        assert (decreasing["lhs"], decreasing["passed"]) == (0.0, True)
        # with the underflow law the errors stay at 1e-200, which must fall
        assert run("convergence", "--scenario", DATA / "underflow.json", *argv[2:]) == 1
        assert "FAIL errors 0.0000 0.0000 0.0000" in capsys.readouterr().out

    def test_malformed_censoring_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "censoring.json"
        path.write_text('{"kind": "none"')
        assert self.simulate(tmp_path, f"{CORPUS}/idn.json", path) == 2
        assert capsys.readouterr().err.startswith(f"error: {path}: ")
