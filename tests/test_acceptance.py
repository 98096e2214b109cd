"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS line with the measured quantity; a failing
criterion fails its assert.  Randomized portions are seeded, so the whole
module is deterministic.
"""

import time

import numpy as np
import pytest

from prodint import (
    CensoringConfig,
    Interval,
    illness_death_scenario,
    multiplicative_transform,
    product_integral,
)
from prodint.checks import (
    SUITES,
    SuiteInputs,
    chapman_kolmogorov_checks,
    convergence_study,
    count_mean_defect_checks,
    hazard_defect_table,
    hazard_integral_checks,
    markov_product_checks,
    occupation_bound_checks,
    occupation_identity_checks,
    transform_duality_checks,
    uncensored_identity_checks,
)

from corpora import default_corpus, random_corpus

OC = Interval.open_closed

SEED = 7


def all_passed(records) -> bool:
    return all(r.passed for r in records)


def worst_gap(records) -> float:
    return max((abs(r.lhs - r.rhs) for r in records), default=0.0)


def report(name: str, detail: str) -> None:
    print(f"ACCEPTANCE {name}: PASS ({detail})")


@pytest.fixture(scope="module")
def corpus():
    golden = default_corpus()
    rng = np.random.default_rng(SEED)
    mixed = random_corpus(rng, 100)
    progressive = random_corpus(rng, 30, progressive=True)
    extinguishing = random_corpus(rng, 30, forced_exit=True)
    return golden, mixed, progressive, extinguishing


def test_criterion_01_occupation_identity(corpus):
    golden, *_ = corpus
    started = time.perf_counter()
    ps = golden["illness-death"]
    records = occupation_identity_checks(ps)
    final = ps.occupation_vector(0.0) @ product_integral(
        ps.hazard_matrix(), OC(0.0, 3.0)
    )
    elapsed = time.perf_counter() - started
    assert all_passed(records), records
    np.testing.assert_allclose(final, [0.25, 0.30, 0.45], atol=1e-10)
    assert elapsed < 1.0
    report("occupation-identity", f"worst gap {worst_gap(records):.2e}, {elapsed:.3f}s")


def test_criterion_02_hazard_is_strict_transform_of_transition(corpus):
    golden, *_ = corpus
    started = time.perf_counter()
    rows = hazard_defect_table(golden["illness-death"], depths=6)
    values = [v for _, v in rows]
    elapsed = time.perf_counter() - started
    assert values[0] > values[-1]
    assert all(later <= earlier + 1e-12 for earlier, later in zip(values, values[1:]))
    assert values[-1] < 1e-10
    assert elapsed < 1.0
    report(
        "hazard-transform-defect",
        f"coarse {values[0]:.3g} -> separated {values[-1]:.2e}, {elapsed:.3f}s",
    )


def test_criterion_03_chapman_kolmogorov_failure(corpus):
    golden, *_ = corpus
    records = chapman_kolmogorov_checks(golden["illness-death"])
    assert all_passed(records), records
    report("chapman-kolmogorov-failure", "direct 0.2 vs transform 0.4, both to 1e-12")


def test_criterion_04_count_mean_is_strict_transform(corpus):
    golden, mixed, *_ = corpus
    spaces = [golden["illness-death"]] + mixed
    assert len(mixed) >= 100
    records = []
    for ps in spaces:
        records.extend(count_mean_defect_checks(ps, depths=3))
    assert all_passed(records), [r for r in records if not r.passed][:3]
    report(
        "count-mean-defect",
        f"{len(records)} state pairs over {len(spaces)} laws, worst {worst_gap(records):.2e}",
    )


def test_criterion_05_transform_duality_and_bound():
    rng = np.random.default_rng(SEED)
    records = transform_duality_checks(rng, count=100, subintervals=10)
    duality = [r for r in records if r.name == "transform-duality"]
    bounds = [r for r in records if r.name == "transform-bound"]
    assert len(duality) == 1000 and len(bounds) == 100
    assert all_passed(records), [r for r in records if not r.passed][:3]
    report(
        "transform-duality",
        f"1000 subinterval products exact to {worst_gap(duality):.2e}, 100 bounds hold",
    )


def test_criterion_06_hazard_weighted_integral(corpus):
    golden, mixed, *_ = corpus
    spaces = list(golden.values()) + mixed
    records = []
    for ps in spaces:
        records.extend(hazard_integral_checks(ps))
    equality = [r for r in records if r.name == "hazard-integral"]
    envelopes = [r for r in records if r.name == "integral-bound"]
    assert all_passed(records), [r for r in records if not r.passed][:3]
    report(
        "hazard-integral",
        f"{len(equality)} equalities to 1e-12 and {len(envelopes)} sup-bounds over {len(spaces)} laws",
    )


def test_criterion_07_markov_product():
    rng = np.random.default_rng(SEED)
    records = markov_product_checks(rng, count=50, subintervals=8)
    assert len(records) >= 400
    assert all_passed(records), [r for r in records if not r.passed][:3]
    report("markov-product", f"{len(records)} interval shapes, worst {worst_gap(records):.2e}")


def test_criterion_08_occupation_floor(corpus):
    golden, mixed, progressive, _ = corpus
    spaces = list(golden.values()) + mixed + progressive
    assert len(spaces) >= 100
    records = [r for i, ps in enumerate(spaces) for r in occupation_bound_checks(ps, f"instance {i}")]
    floors = [r for r in records if r.name == "occupation-lower-bound"]
    equalities = [r for r in records if r.name == "occupation-bound-equality"]
    assert floors and equalities
    assert all_passed(records), [r for r in records if not r.passed][:3]
    report(
        "occupation-floor",
        f"{len(floors)} floors hold, equality certified on {len(equalities)} no-inflow checks",
    )


def test_criterion_09_extinction_exit_mass(corpus):
    golden, mixed, progressive, extinguishing = corpus
    spaces = list(golden.values()) + mixed + progressive + extinguishing
    labels = [f"instance {i}" for i in range(len(spaces))]
    records = SUITES["extinction-exit"](SuiteInputs(spaces, labels, np.random.default_rng(SEED), 0, corpus=True))
    assert all_passed(records), [r for r in records if not r.passed][:3]
    assert len(records) >= 30
    report("extinction-exit", f"{len(records)} boundaries, all exit masses 1 to 1e-12")


def test_criterion_10_consistency_study():
    started = time.perf_counter()
    records, table = convergence_study(
        illness_death_scenario(),
        CensoringConfig("state_filtering_conforming", q=0.7),
        CensoringConfig("violating", q=0.7, delta=0.5),
        ns=(100, 1000, 10000),
        seed=SEED,
        sup_tol=0.02,
        bias_floor=0.05,
    )
    elapsed = time.perf_counter() - started
    assert all_passed(records), records
    assert elapsed < 60.0
    errors = [row["sup_error"] for row in table if row["arm"] == "conforming"]
    biased = [row["sup_error"] for row in table if row["arm"] == "violating"][0]
    report(
        "consistency-study",
        f"sup errors {errors[0]:.3f} > {errors[1]:.3f} > {errors[2]:.3f} < 0.02; "
        f"violating {biased:.3f} > 0.05; {elapsed:.1f}s",
    )


def test_criterion_11_uncensored_identity():
    rng = np.random.default_rng(SEED)
    records = uncensored_identity_checks(rng, count=1000)
    assert len(records) == 1000
    assert all_passed(records), [r for r in records if not r.passed][:3]
    report("uncensored-identity", f"1000 samples, worst gap {worst_gap(records):.2e}")
