"""Smoke test of the benchmark's quick mode.

    python3 perfbench/check_quick.py        # or: python3 -m pytest perfbench/check_quick.py

Runs every workload at its tiny size, traced and untraced, and requires a
zero exit, a correct result line and every declared metric with its unit.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def test_quick_mode_prints_every_metric():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--quick", "--seed", "3"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    for workload in spec["workloads"]:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            for metric in spec[group]:
                entry = result["metrics"][f"{workload['name']}/{metric['name']}/trace{trace}"]
                assert entry["unit"] == metric["unit"]
                assert isinstance(entry["value"], (int, float))


if __name__ == "__main__":
    test_quick_mode_prints_every_metric()
    print("quick mode ok")
