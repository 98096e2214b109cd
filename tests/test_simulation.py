import math
import re
import tracemalloc
from bisect import bisect_right
from pathlib import Path

import numpy as np
import pytest

from prodint import (
    CensoringConfig,
    ConfigError,
    EventHistory,
    Interval,
    ScenarioConfig,
    TransitionRule,
    exact_pathspace,
    illness_death_scenario,
    load_censoring,
    load_scenario,
    simulate_sample,
)
from prodint.checks import close_record, extinction_checks, random_scenario
from prodint import simulation
from prodint.cli import CORPUS_SCENARIOS
from prodint.simulation import _tick_states, packaged_scenario

import oracle_enum
from corpora import (
    branching_scenario,
    float_sum_exit_scenario,
    forced_exit_scenario,
    two_state_scenario,
    wide_grid_scenario,
)
from reference_impl import apply_censoring, sample_path, state_at, state_before, subject_rng

ROOT = Path(__file__).resolve().parents[1]
CORPUS = ROOT / "src" / "prodint" / "corpus"
ROUNDING_SLACK = ROOT / "tests" / "data" / "rounding_slack.json"


def sampler_agreement_checks(rng, scenario, draws=10**5, tol=0.01):
    """Empirical occupation frequencies of the sampler against enumeration.

    The array core gets one uniform matrix: a row per draw, a column for the
    initial state and one per grid time.
    """
    ps = exact_pathspace(scenario)
    states = _tick_states(scenario, rng.random((draws, 1 + len(scenario.grid))))
    # every grid time is at most tau, so the last tick column is the state at tau
    freq = np.bincount(states[:, -1], minlength=scenario.dim + 1)[1:] / draws
    truth = ps.occupation_vector(scenario.tau)
    return [
        close_record(
            "sampler-agreement",
            float(np.abs(freq - truth).max()),
            0.0,
            tol,
            detail=f"{draws} draws at t={scenario.tau:g}",
        )
    ]


class TestScenarioValidation:
    def test_rejects_bad_probabilities(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(
                2, 2.0, (1.0,), "markov", (1.0, 0.0),
                (TransitionRule(1.0, 1, ((2, 1.5),)),),
            )

    def test_rejects_excessive_row_mass(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(
                3, 2.0, (1.0,), "markov", (1.0, 0.0, 0.0),
                (TransitionRule(1.0, 1, ((2, 0.7), (3, 0.7))),),
            )

    def test_rejects_feature_on_markov_rule(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(
                2, 2.0, (1.0,), "markov", (1.0, 0.0),
                (TransitionRule(1.0, 1, ((2, 0.5),), when=0.0),),
            )

    def test_rejects_duplicate_rule(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(
                2, 2.0, (1.0,), "markov", (1.0, 0.0),
                (
                    TransitionRule(1.0, 1, ((2, 0.5),)),
                    TransitionRule(1.0, 1, ((2, 0.25),)),
                ),
            )

    def test_rejects_off_grid_rule_time(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(
                2, 2.0, (1.0,), "markov", (1.0, 0.0),
                (TransitionRule(1.5, 1, ((2, 0.5),)),),
            )

    def test_rejects_nan_rule_time(self):
        with pytest.raises(ConfigError, match="rule time nan is not a grid time"):
            ScenarioConfig(
                2, 2.0, (1.0,), "markov", (1.0, 0.0),
                (TransitionRule(float("nan"), 1, ((2, 0.5),)),),
            )

    @pytest.mark.parametrize("tau", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_bad_tau(self, tau):
        with pytest.raises(ConfigError, match=f"tau must be a positive finite time, got {tau!r}"):
            ScenarioConfig(2, tau, (), "markov", (1.0, 0.0), ())

    @pytest.mark.parametrize("tau", [2.0**1023, 1.7e308])
    def test_rejects_tau_where_midpoints_overflow(self, tau):
        # a span start 0.5 * (1e308 + 1.5e308) was once sampled as inf
        with pytest.raises(ConfigError, match=rf"^tau must be below 2\*\*1023, .* got {re.escape(repr(tau))}$"):
            ScenarioConfig(2, tau, (1e308, 1.5e308), "markov", (1.0, 0.0), ())

    def test_rejects_nan_grid_time(self):
        with pytest.raises(ConfigError, match="grid times"):
            ScenarioConfig(2, 2.0, (float("nan"),), "markov", (1.0, 0.0), ())

    def test_rejects_unnormalized_initial(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(2, 2.0, (1.0,), "markov", (0.5, 0.0), ())


class TestExactPathspace:
    def test_float_sum_exit_leaves_nobody_behind(self):
        ps = exact_pathspace(float_sum_exit_scenario())
        # the steps of the sampler's table 0.7, 0.7 + 0.2, 1.0: the last target takes the rounding
        assert [(p.jumps, w) for p, w in ps.paths] == [
            (((1.0, 2),), 0.7), (((1.0, 3),), (0.7 + 0.2) - 0.7), (((1.0, 4),), 1.0 - (0.7 + 0.2))
        ]
        records = extinction_checks(ps, label="instance 0")
        assert [(r.detail, r.passed) for r in records] == [("instance 0 j=1 at t=1", True)]

    def test_rounding_slack_is_spent_once(self):
        # rows summing to 1 + 9e-13, inside the validator's 1e-12: the sampler
        # reads each as exactly 1, and so must the enumeration
        scenario = load_scenario(ROUNDING_SLACK)
        ps = exact_pathspace(scenario)
        assert ps.weights.tolist() == [0.125] * 8
        assert math.fsum(ps.weights.tolist()) == 1.0

    def test_empty_row_keeps_everyone(self):
        scenario = ScenarioConfig(2, 2.0, (1.0,), "markov", (1.0, 0.0), (TransitionRule(1.0, 1, ()),))
        ps = exact_pathspace(scenario)
        assert ps.states.tolist() == [[1, 1]] and ps.weights.tolist() == [1.0]

    def test_illness_death_weights(self, idn_enumerated):
        weights = {
            (p.initial_state, p.jumps): w for p, w in idn_enumerated.paths
        }
        assert len(weights) == 5
        for init, jumps, w in oracle_enum.IDN_PATHS:
            assert weights[(init, jumps)] == pytest.approx(w, abs=1e-15)

    def test_two_state_branch(self):
        ps = exact_pathspace(two_state_scenario())
        assert len(ps.paths) == 2
        assert sorted(w for _, w in ps.paths) == [0.5, 0.5]

    def test_deterministic_scenario_single_path(self):
        ps = exact_pathspace(forced_exit_scenario())
        assert len(ps.paths) == 1
        path, w = ps.paths[0]
        assert w == 1.0 and path.jumps == ((1.0, 2),)

    def test_cap_enforced(self, monkeypatch):
        # idn's five paths over four ticks take 5 * (4 + 8 + 8) bytes
        monkeypatch.setattr(simulation, "MAX_PATH_SPACE_BYTES", 100)
        assert len(exact_pathspace(illness_death_scenario()).weights) == 5
        monkeypatch.setattr(simulation, "MAX_PATH_SPACE_BYTES", 99)
        message = "^the path space of 5 or more paths over 4 ticks would take 100 bytes or more, above the budget of 99$"
        with pytest.raises(ConfigError, match=message):
            exact_pathspace(illness_death_scenario())

    def test_path_space_over_budget_is_refused_before_it_is_allocated(self):
        # 2**19 paths over 3,001 ticks would be a 1.6 GB state matrix, which a
        # 25 KB scenario once grew for more than a minute; 2**13 paths are too many
        scenario = branching_scenario(19, 3000)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigError, match="^the path space of 8192 or more paths over 3001 ticks"):
                exact_pathspace(scenario)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**19 * 3001 // 100

    def test_rule_table_over_budget_is_refused_before_it_is_allocated(self):
        # 3,000 ticks of 400 states once asked numpy for a 3.36 GiB table
        wide = wide_grid_scenario(3000, 400, "entry_time_dependent")
        message = "^the entry_time_dependent rule table of 3000 grid times and dimension 400 would take 3611406401 bytes"
        with pytest.raises(ConfigError, match=message):
            exact_pathspace(wide)
        # 5,000 ticks of 3 states, a 100 MB table, still compile
        assert wide_grid_scenario(5000, 3, "duration_dependent").kernel.rows.shape == (5001, 4, 5001)


class TestSamplePath:
    def test_no_rules_means_constant_path(self, rng):
        scenario = ScenarioConfig(2, 2.0, (1.0,), "markov", (1.0, 0.0), ())
        for _ in range(10):
            assert sample_path(rng, scenario) == EventHistory(0, 1, ())

    def test_duration_rule_forces_exit_next_step(self, rng):
        scenario = ScenarioConfig(
            2, 2.0, (1.0, 2.0), "duration_dependent", (1.0, 0.0),
            (
                TransitionRule(1.0, 1, ((2, 1.0),), when=1.0),
                TransitionRule(2.0, 2, ((1, 1.0),), when=1.0),
            ),
        )
        for _ in range(10):
            assert sample_path(rng, scenario).jumps == ((1.0, 2), (2.0, 1))

    def test_initial_float_residual_goes_to_last_state_with_mass(self):
        class TopOfUnitInterval:
            def random(self):
                return 1.0 - 2.0**-53

        # 0.7 + 0.2 + 0.1 rounds to 1 - 2**-53, the largest value random() returns
        scenario = ScenarioConfig(4, 2.0, (1.0,), "markov", (0.7, 0.2, 0.1, 0.0), ())
        assert sample_path(TopOfUnitInterval(), scenario) == EventHistory(0, 3, ())

    def test_marginals_match_enumeration(self, rng):
        records = sampler_agreement_checks(rng, illness_death_scenario(), draws=10**5)
        assert all(r.passed for r in records)
        assert records[0].lhs < 0.01


class TestCensoring:
    def test_none_is_identity(self, rng):
        path = EventHistory(0, 1, ((1.0, 2), (3.0, 3)))
        eh = apply_censoring(rng, path, illness_death_scenario(), CensoringConfig("none"))
        assert eh.initial_state == 1 and eh.jumps == path.jumps

    def test_deterministic_right_censor(self, rng):
        path = EventHistory(0, 1, ((1.0, 2), (3.0, 3)))
        cfg = CensoringConfig("independent_right", after=((2.0, 1.0),), never=0.0)
        eh = apply_censoring(rng, path, illness_death_scenario(), cfg)
        # observed through t=2 inclusive; unobserved strictly after
        assert state_at(eh, 2.0) == 2
        assert state_at(eh, 2.5) == 0 and state_at(eh, 3.0) == 0
        assert eh.jumps == ((1.0, 2), (2.5, 0))

    def test_baseline_only_censor(self, rng):
        path = EventHistory(0, 1, ((1.0, 2),))
        cfg = CensoringConfig("independent_right", after=((0.0, 1.0),), never=0.0)
        eh = apply_censoring(rng, path, illness_death_scenario(), cfg)
        assert eh.initial_state == 1
        assert eh.jumps == ((0.5, 0),)

    def test_observed_states_never_disagree_with_path(self, rng):
        scenario = illness_death_scenario()
        for kind, kwargs in (
            ("state_filtering_conforming", {"q": 0.6}),
            ("violating", {"q": 0.6, "delta": 0.5}),
            ("independent_right", {"after": ((1.0, 0.5), (2.0, 0.25)), "never": 0.25}),
        ):
            cfg = CensoringConfig(kind, **kwargs)
            for _ in range(200):
                path = sample_path(rng, scenario)
                eh = apply_censoring(rng, path, scenario, cfg)
                for t in np.arange(0.0, 3.25, 0.25):
                    seen = state_at(eh, float(t))
                    assert seen in (0, state_at(path, float(t)))

    def test_filtering_reenters_observation(self):
        scenario = illness_death_scenario()
        cfg = CensoringConfig("state_filtering_conforming", q=0.5)
        reentered = False
        for seed in range(200):
            rng = subject_rng(1234, seed)
            path = sample_path(rng, scenario)
            eh = apply_censoring(rng, path, scenario, cfg)
            states = [state_at(eh, t) for t in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)]
            for a, b in zip(states, states[1:]):
                if a == 0 and b != 0:
                    reentered = True
        assert reentered

    @pytest.mark.parametrize(
        "grid, censoring, times",
        [
            ((5e-324,), CensoringConfig("state_filtering_conforming", q=0.5), "0.0 and 5e-324"),
            ((1.0, 1.0000000000000002), CensoringConfig("violating", q=0.5, delta=0.5), "1.0 and 1.0000000000000002"),
            ((0.5, 1.0, 1.0000000000000002), CensoringConfig("independent_right", after=((0.5, 0.5),), never=0.5), None),
            ((0.5, 1.0, 1.0000000000000002), CensoringConfig("independent_right", after=((1.0, 0.5),), never=0.5),
             "1.0 and 1.0000000000000002"),
        ],
    )
    def test_switch_times_lie_strictly_between_their_ticks(self, grid, censoring, times):
        # a span start or cut time equal to a tick once gave histories whose
        # times do not rise; a cut that falls elsewhere still samples
        scenario = ScenarioConfig(2, 2.0, grid, "markov", (1.0, 0.0), (TransitionRule(grid[-1], 1, ((2, 0.5),)),))
        if times is None:
            assert len(simulate_sample(scenario, censoring, 200, seed=3)) == 200
            return
        message = f"no time lies strictly between {times} for an observation switch"
        with pytest.raises(ConfigError, match=re.escape(message)):
            simulate_sample(scenario, censoring, 5, seed=3)
        assert len(simulate_sample(scenario, CensoringConfig("none"), 5, seed=3)) == 5

    def test_violating_mechanism_biases_hazard(self):
        scenario = illness_death_scenario()
        oracle = exact_pathspace(scenario)
        q, delta, n = 0.7, 0.5, 20_000

        def observable_ratio(cfg, u, j, k, arm):
            sample = simulate_sample(scenario, cfg, n, seed=13, arm=arm)
            jumps = sum(
                1 for eh in sample if state_before(eh, u) == j and state_at(eh, u) == k
            )
            at_risk = sum(1 for eh in sample if state_before(eh, u) == j)
            return jumps / at_risk

        conforming = CensoringConfig("state_filtering_conforming", q=q)
        violating = CensoringConfig("violating", q=q, delta=delta)
        for u, j, k in ((1.0, 1, 2), (3.0, 2, 3)):
            truth = oracle.hazard_matrix()(Interval.point(u))[j - 1, k - 1]
            assert observable_ratio(conforming, u, j, k, 0) == pytest.approx(truth, abs=0.03)
            biased = observable_ratio(violating, u, j, k, 1)
            assert abs(biased - truth) >= delta * truth / 2


def joint_law_scenarios():
    """The three corpus scenarios and 20 generator scenarios at seed 3."""
    rng = np.random.default_rng(3)
    corpus = [load_scenario(f"{CORPUS}/{name}.json") for name in ("idn", "surv", "forced_exit")]
    return corpus + [random_scenario(rng) for _ in range(20)]


def test_sampler_matches_the_exact_joint_law_of_every_tick_pair():
    # the bound, 5 binomial standard errors per cell, was fixed before the test was run
    n = 2 * 10**4
    for scenario in joint_law_scenarios():
        ps = exact_pathspace(scenario)
        sample = simulate_sample(scenario, CensoringConfig("none"), n, seed=7)
        ticks = np.array([sample.states_at(t) for t in (0.0,) + scenario.grid], dtype=np.intp) - 1
        d = scenario.dim
        for left in range(len(ticks)):
            for right in range(left + 1, len(ticks)):
                counts = np.bincount(ticks[left] * d + ticks[right], minlength=d * d).reshape(d, d)
                mass = ps._table(left, right).joint
                assert not counts[mass == 0.0].any(), (scenario, left, right)
                se = np.sqrt(mass * (1.0 - mass) / n)
                assert (np.abs(counts / n - mass) <= 5.0 * se).all(), (scenario, left, right)


def test_censoring_follows_its_law_on_the_sampled_paths():
    # the bound, 5 binomial standard errors per share, was fixed before the test was run
    n = 2 * 10**4
    conforming, violating, right = (
        load_censoring(f"{CORPUS}/{name}.json") for name in ("conforming", "violating", "right_censoring")
    )

    def assert_share(hits, size, p):
        assert abs(np.count_nonzero(hits) / size - p) <= 5.0 * math.sqrt(p * (1.0 - p) / size)

    for name in ("idn", "surv", "forced_exit"):
        scenario = load_scenario(f"{CORPUS}/{name}.json")
        ticks = (0.0,) + scenario.grid

        def tick_states(censoring):
            sample = simulate_sample(scenario, censoring, n, seed=7)
            return np.array([sample.states_at(t) for t in ticks])

        # the censoring draws follow the path draws in each subject's
        # stream, so the uncensored sample of the seed holds the true paths
        paths = tick_states(CensoringConfig("none"))
        assert (paths > 0).all()
        jumped = np.vstack([np.zeros(n, dtype=bool), paths[1:] != paths[:-1]])
        seen = {}
        for censoring in (conforming, violating, right):
            states = tick_states(censoring)
            seen[censoring.kind] = states != 0
            assert np.array_equal(states[states != 0], paths[states != 0])
        for column in seen["state_filtering_conforming"]:
            assert_share(column, n, conforming.q)
        q, delta = violating.q, violating.delta
        for column, jumps in zip(seen["violating"], jumped):
            for group, p in ((jumps, q * (1.0 - delta)), (~jumps, q)):
                if group.any():
                    assert_share(column[group], np.count_nonzero(group), p)
        # a category cut after time t hides its subjects from the tick of
        # the first grid time past t on; one cut at or after the last grid
        # time, like ``never``, hides nobody (column len(ticks))
        weights = {}
        for t, p in right.after + ((math.inf, right.never),):
            column = 1 + bisect_right(scenario.grid, t)
            weights[column] = weights.get(column, 0.0) + p
        observed = seen["independent_right"]
        assert (observed[1:] <= observed[:-1]).all()  # nobody re-enters observation
        first_hidden = np.where(observed.all(axis=0), len(ticks), observed.argmin(axis=0))
        assert set(np.unique(first_hidden).tolist()) <= set(weights)
        for column, p in weights.items():
            assert_share(first_hidden == column, n, p)


class TestReproducibility:
    def test_same_seed_same_sample(self):
        scenario = illness_death_scenario()
        cfg = CensoringConfig("state_filtering_conforming", q=0.7)
        one = simulate_sample(scenario, cfg, 50, seed=42)
        two = simulate_sample(scenario, cfg, 50, seed=42)
        assert one == two

    def test_arms_are_independent_streams(self):
        scenario = illness_death_scenario()
        cfg = CensoringConfig("none")
        one = simulate_sample(scenario, cfg, 50, seed=42, arm=0)
        two = simulate_sample(scenario, cfg, 50, seed=42, arm=1)
        assert one != two

    @pytest.mark.parametrize(
        "n, seed, arm, message",
        [
            (5, -1, 0, "seed -1"),
            (5, 0, -2, "arm -2"),
            (2**32 + 1, 7, 0, "below 2\\*\\*32"),
        ],
    )
    def test_out_of_range_stream_keys_are_rejected(self, n, seed, arm, message):
        with pytest.raises(ConfigError, match=message):
            simulate_sample(two_state_scenario(), CensoringConfig("none"), n, seed, arm)


class TestJsonConfigs:
    def test_scenario_round_trip(self):
        scenario = illness_death_scenario()
        assert ScenarioConfig.from_json_dict(scenario.to_json_dict()) == scenario

    def test_scenario_round_trip_orders_targets_by_state(self):
        # a loaded rule keeps its targets in the document's order, which fixes
        # the inverse-CDF order of the draws: ordered as strings, "10" would come
        # before "2", and sorted, a descending rule would draw another sample
        none = CensoringConfig("none")
        for probs in (((2, 0.25), (10, 0.5)), ((3, 0.5), (2, 0.25))):
            rule = TransitionRule(1.0, 1, probs)
            scenario = ScenarioConfig(10, 1.0, (1.0,), "markov", (1.0,) + (0.0,) * 9, (rule,))
            loaded = ScenarioConfig.from_json_dict(scenario.to_json_dict())
            assert loaded == scenario
            np.testing.assert_array_equal(loaded.kernel.targets, scenario.kernel.targets)
            assert simulate_sample(loaded, none, 200, seed=3) == simulate_sample(scenario, none, 200, seed=3)

    def test_censoring_round_trip(self):
        for cfg in (
            CensoringConfig("none"),
            CensoringConfig("state_filtering_conforming", q=0.7),
            CensoringConfig("violating", q=0.7, delta=0.5),
            CensoringConfig("independent_right", after=((1.0, 0.25),), never=0.75),
        ):
            assert CensoringConfig.from_json_dict(cfg.to_json_dict()) == cfg

    def test_packaged_corpus_matches_builders(self):
        # verify's packaged corpus and a --corpus directory of the same files read the same laws
        for name in CORPUS_SCENARIOS:
            assert packaged_scenario(name) == load_scenario(CORPUS / name)
        assert illness_death_scenario() == load_scenario(CORPUS / "idn.json")
        conforming = load_censoring(f"{CORPUS}/conforming.json")
        assert conforming.kind == "state_filtering_conforming" and conforming.q == 0.7
        violating = load_censoring(f"{CORPUS}/violating.json")
        assert violating.delta == 0.5

    def test_malformed_documents_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig.from_json_dict({"d": 2})
        with pytest.raises(ConfigError):
            CensoringConfig.from_json_dict({"kind": "nonsense"})
