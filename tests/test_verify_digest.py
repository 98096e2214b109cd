"""Pinned digest of the records of `verify --count 100 --seed 7`: the 153
spaces of the corpus (3 packaged, 150 random) through every suite.

Speed work on the path-space laws and the check suites must leave every
record bit-identical.  The digest also depends on the platform's float64
matrix products.
"""

import hashlib
import json

from prodint.cli import main

# (name, lhs, rhs, tol, passed, detail) of every record
VERIFY_100_RECORDS_SHA256 = "ea2568c2d341a7df6851671014673b06615a1913fb38bc38d46874110c9325be"


def test_verify_count_100_records_are_pinned(tmp_path):
    report = tmp_path / "report.json"
    assert main(["verify", "--count", "100", "--seed", "7", "--report", str(report)]) == 0
    records = json.loads(report.read_text())["records"]
    rows = [[r["name"], r["lhs"], r["rhs"], r["tol"], r["passed"], r["detail"]] for r in records]
    assert len(rows) == 14754
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == VERIFY_100_RECORDS_SHA256
