"""Pinned digests of the fixed-seed `simulate` CSV, `estimate` grid and
`verify` records.

Speed work on the sampler, the censoring walk, the CSV reader, the
estimators, the path-space oracle and the check suites must leave these
outputs byte-identical.  The digests also depend on the platform's float64
matrix products.
"""

import hashlib
import json
from pathlib import Path

from prodint.cli import main

CORPUS = Path(__file__).resolve().parents[1] / "src" / "prodint" / "corpus"
SAMPLE_SHA256 = "cfd35a3dc4a140fabd2679e48a0c9e1abd380fb31d3f6d095809af1a529d202f"
GRID_SHA256 = "d9f1644d3649917648be629c4bafedabf1a21c483bb4c58e3835879f060f6a3d"
# (name, lhs, rhs, tol, passed, detail) of every `verify --count 10 --seed 7` record
VERIFY_RECORDS_SHA256 = "03944b218adeff2d9f29c70aa99605a486a56ec2978ebf3ef38ab17487bdabe6"


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_idn_conforming_sample_and_grid_are_pinned(tmp_path):
    sample = tmp_path / "sample.csv"
    grid = tmp_path / "grid.json"
    assert main([
        "simulate", "--scenario", f"{CORPUS}/idn.json", "--censoring", f"{CORPUS}/conforming.json",
        "--n", "1000", "--seed", "7", "--out", str(sample),
    ]) == 0
    assert sha256(sample) == SAMPLE_SHA256
    assert main(["estimate", "--input", str(sample), "--out-json", str(grid)]) == 0
    assert sha256(grid) == GRID_SHA256


def test_verify_records_are_pinned(tmp_path):
    report = tmp_path / "report.json"
    assert main(["verify", "--count", "10", "--seed", "7", "--report", str(report)]) == 0
    records = json.loads(report.read_text())["records"]
    rows = [[r["name"], r["lhs"], r["rhs"], r["tol"], r["passed"], r["detail"]] for r in records]
    assert len(rows) == 1939
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == VERIFY_RECORDS_SHA256
