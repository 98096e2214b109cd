"""The benchmark's reads of the package.

``perfbench/`` is imported as it stands: its tracer wraps the package,
reads path spaces, samples and estimate grids through its hooks, and its
verify-corpus workload replays the random corpus of ``prodint verify`` to
pick seeds.  A change to the package that breaks one of those reads fails
here, not only in the benchmark's own smoke run.
"""

from pathlib import Path

import pytest

from prodint import cli

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "src" / "prodint" / "corpus"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracer
    import workloads

    return tracer, workloads


def test_traced_commands_feed_the_counters(perfbench, tmp_path, capsys):
    tracer, _ = perfbench
    sample = tmp_path / "sample.csv"
    spans = tracer.Spans()
    with tracer.Instrumentation(spans):
        assert cli.main(["verify", "--count", "1", "--seed", "3"]) == 0
        assert cli.main([
            "simulate", "--scenario", str(CORPUS / "idn.json"), "--censoring", str(CORPUS / "conforming.json"),
            "--n", "20", "--seed", "7", "--out", str(sample),
        ]) == 0
        assert cli.main(["estimate", "--input", str(sample)]) == 0
    metrics = tracer.layer_metrics(spans, 0)
    assert metrics["multistate.path_evals"] > 0
    assert metrics["estimators.rows_read"] > 0
    assert metrics["estimators.event_times"] > 0


def test_verify_seed_proxy_replays_the_random_corpus(perfbench):
    _, workloads = perfbench
    cost, records, spaces, paths = workloads.corpus_proxy(1, 0)
    assert cost > 0 and records > 0 and spaces == 1 and paths > 0
