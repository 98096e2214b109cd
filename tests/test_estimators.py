import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from prodint import (
    CensoringConfig,
    EventHistory,
    EventSample,
    FormatError,
    EstimationError,
    HazardMatrixIF,
    Interval,
    aalen_johansen,
    estimate,
    illness_death_scenario,
    nelson_aalen,
    occupation_estimate,
    read_event_histories,
    simulate_sample,
    write_event_histories,
)
from prodint import estimators
from prodint.cli import main
from prodint.estimators import write_occupation_csv

from reference_impl import empirical_counts, empirical_occupancy, event_sample, transition_at


def subject(i, init, *jumps):
    return EventHistory(i, init, tuple(jumps))


def sample_of(*histories):
    return event_sample(histories)


class TestEventSample:
    def test_columns_round_trip_through_histories(self):
        histories = [subject(4, 0, (0.5, 2)), subject(-1, 1), subject(2, 3, (1.0, 0), (2.5, 1))]
        sample = event_sample(histories)
        assert sample.subjects.tolist() == [-1, 2, 4]
        assert sample.offsets.tolist() == [0, 0, 2, 3]
        assert sample.sources.tolist() == [3, 0, 0]
        assert sample.max_state == 3
        assert list(sample) == sorted(histories, key=lambda h: h.subject)
        assert sample == EventSample(*[
            getattr(sample, name) for name in ("subjects", "initial", "offsets", "times", "states")
        ])
        assert sample != list(sample)  # a sample equals only a sample
        with pytest.raises(ValueError):
            sample.times[0] = 9.0  # validated columns are read-only

    @pytest.mark.parametrize(
        "columns, message",
        [
            (([0, 1], [1], [0, 0, 0], [], []), "inconsistent lengths"),
            (([0], [1], [0, 2], [1.0], [2]), "offsets"),
            (([1, 1], [1, 1], [0, 0, 0], [], []), "strictly increasing"),
            (([0], [-1], [0, 0], [], []), "numbered from 0"),
            (([0, 7], [1, 1], [0, 0, 2], [2.0, 1.0], [2, 1]), "subject 7: jump times"),
            (([0], [1], [0, 1], [0.0], [2]), "subject 0: jump times"),
            (([0], [1], [0, 1], [float("nan")], [2]), "subject 0: jump times"),
            (([3, 5], [1, 1], [0, 1, 2], [1.0, 1.0], [2, 1]), "subject 5: consecutive states"),
        ],
    )
    def test_invalid_columns_are_rejected(self, columns, message):
        with pytest.raises(ValueError, match=message):
            EventSample(*columns)

    @pytest.mark.parametrize(
        "columns, message",
        [
            (([0.5, 1], [1, 2], [0, 1, 1], [1.0], [3]), "subject ids must be whole numbers, got 0.5"),
            (([0, 1], [1.7, 2.2], [0, 1, 1], [1.0], [2]), "initial states must be whole numbers, got 1.7"),
            (([0, 1], [1, 2], [0, 0.5, 1], [1.0], [2]), "jump offsets must be whole numbers, got 0.5"),
            (([0, 1], [1, 2], [0, 1, 1], [1.0], [2.9]), "jump states must be whole numbers, got 2.9"),
        ],
    )
    def test_fractional_values_are_rejected_by_column(self, columns, message):
        # once truncated: initial states [1.7, 2.2] were read as [1, 2] and offsets [0, 0.5] as [0, 0]
        with pytest.raises(ValueError, match=f"^{message}$"):
            EventSample(*columns)

    def test_an_infinite_time_is_refused_by_its_subject(self):
        # once accepted: the estimate then wrote a row at time inf and Infinity into its JSON grid
        with pytest.raises(ValueError, match="^subject 0: jump times must be finite$"):
            EventSample([0], [1], [0, 1], [float("inf")], [2])
        with pytest.raises(ValueError, match="^subject 4: jump times must be finite$"):
            EventSample([2, 4], [1, 1], [0, 1, 3], [0.5, 1.0, float("inf")], [2, 2, 1])

    def test_whole_floats_are_accepted(self):
        sample = EventSample([0.0, 1.0], [1.0, 2.0], [0.0, 1.0, 1.0], [1.0], [2.0])
        assert sample == EventSample([0, 1], [1, 2], [0, 1, 1], [1.0], [2])
        assert sample.initial.dtype == sample.states.dtype == np.int64


class TestEmpiricalMeans:
    def test_direct_count(self):
        sample = sample_of(subject(0, 1, (1.0, 2)), subject(1, 1))
        assert empirical_counts(sample, 1, 2, 2.0) == 0.5

    def test_filtered_transition_is_invisible(self):
        # unobserved across t=1: the underlying jump never shows up
        sample = sample_of(subject(0, 1, (0.5, 0), (1.5, 2)), subject(1, 1, (1.0, 2)))
        assert empirical_counts(sample, 1, 2, 3.0) == 0.5

    def test_occupancy(self):
        sample = sample_of(subject(0, 1), subject(1, 1))
        assert empirical_occupancy(sample, 1, 2.0) == 1.0

    def test_occupancy_excludes_unobserved(self):
        sample = sample_of(subject(0, 0), subject(1, 1))
        assert empirical_occupancy(sample, 1, 0.0) == 0.5

    def test_empty_sample_rejected(self):
        with pytest.raises(EstimationError):
            empirical_counts(sample_of(), 1, 2, 1.0)
        with pytest.raises(EstimationError):
            empirical_occupancy(sample_of(), 1, 1.0)

    def test_uncensored_monte_carlo_matches_oracle_means(self):
        sample = simulate_sample(illness_death_scenario(), CensoringConfig("none"), 1000, 17)
        assert empirical_counts(sample, 1, 2, 3.0) == pytest.approx(0.75, abs=0.05)
        assert empirical_occupancy(sample, 2, 3.0) == pytest.approx(0.30, abs=0.05)


class TestNelsonAalen:
    def test_risk_set_of_one(self):
        hazard = nelson_aalen(sample_of(subject(0, 1, (1.0, 2))), dim=2)
        assert hazard.times == (1.0,)
        assert hazard(Interval.point(1.0))[0, 1] == 1.0

    def test_risk_set_of_two(self):
        hazard = nelson_aalen(sample_of(subject(0, 1, (1.0, 2)), subject(1, 1)), dim=2)
        step = hazard(Interval.point(1.0))
        assert step[0, 1] == 0.5
        assert step[0, 0] == -0.5

    def test_rows_sum_to_zero(self):
        sample = simulate_sample(
            illness_death_scenario(), CensoringConfig("state_filtering_conforming", q=0.7), 500, 5
        )
        hazard = nelson_aalen(sample, dim=3)
        for step in hazard.jumps:
            np.testing.assert_allclose(step.sum(axis=1), 0.0, atol=1e-15)
            off = step.copy()
            np.fill_diagonal(off, 0.0)
            assert (off >= 0).all()

    def test_conforming_filter_preserves_hazard(self):
        sample = simulate_sample(
            illness_death_scenario(),
            CensoringConfig("state_filtering_conforming", q=0.7),
            10_000,
            seed=7,
        )
        hazard = nelson_aalen(sample, dim=3)
        assert hazard(Interval.point(3.0))[1, 2] == pytest.approx(0.6, abs=0.03)


class TestHazardFromCounts:
    def test_divides_each_row_by_its_risk_set(self):
        counts = [[[0.0, 1.0, 2.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]]
        hazard = HazardMatrixIF.from_counts((0.5,), counts, [[4, 0, 2]])
        assert hazard.times == (0.5,)
        np.testing.assert_array_equal(hazard.jumps[0], [[-0.75, 0.25, 0.5], [0.0, 0.0, 0.0], [0.5, 0.0, -0.5]])
        assert not np.signbit(hazard.jumps[0][1]).any()  # a row without counts is all (positive) zeros

    def test_counts_with_nobody_at_risk_name_the_state_and_time(self):
        counts = np.zeros((2, 3, 3))
        counts[1, 2, 0] = 1.0
        message = "^transitions out of state 3 at 2.5 with nobody at risk just before$"
        with pytest.raises(ValueError, match=message):
            HazardMatrixIF.from_counts((1.0, 2.5), counts, [[1, 1, 1], [1, 1, 0]])


class TestAalenJohansen:
    def test_no_events_gives_identity(self):
        hazard = nelson_aalen(sample_of(subject(0, 1)), dim=2)
        transition = aalen_johansen(hazard)
        assert hazard.times == () and hazard.jumps.shape == transition.shape == (0, 2, 2)
        np.testing.assert_array_equal(transition_at(hazard.times, transition, 5.0), np.eye(2))

    def test_single_step(self):
        hazard = nelson_aalen(sample_of(subject(0, 1, (1.0, 2)), subject(1, 1)), dim=2)
        np.testing.assert_allclose(transition_at(hazard.times, aalen_johansen(hazard), 1.0)[0], [0.5, 0.5])

    def test_row_stochastic_under_filtering(self):
        sample = simulate_sample(
            illness_death_scenario(), CensoringConfig("state_filtering_conforming", q=0.7), 2000, 9
        )
        for mat in aalen_johansen(nelson_aalen(sample, dim=3)):
            assert (mat >= -1e-12).all()
            np.testing.assert_allclose(mat.sum(axis=1), 1.0, atol=1e-12)


class TestInvariantChecks:
    """The estimator invariants are explicit checks, kept under ``python -O``."""

    @staticmethod
    def bad_hazard():
        step = np.array([[0.5, -0.5], [0.0, 0.0]])  # negative off-diagonal increment
        return HazardMatrixIF(2, (1.0,), (step,))

    def test_negative_increment_raises(self):
        with pytest.raises(ValueError, match="negative off-diagonal hazard at 1.0"):
            self.bad_hazard()

    def test_negative_increment_is_usage_exit_under_cli(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "s.csv"
        path.write_text("subject,time,state\n0,0.0,1\n0,1.0,2\n")
        monkeypatch.setattr(estimators, "nelson_aalen", lambda *args, **kwargs: self.bad_hazard())
        assert main(["estimate", "--input", str(path)]) == 2
        assert "negative off-diagonal hazard" in capsys.readouterr().err

    def test_product_drift_raises(self):
        # each step's rows sum to 9e-13, inside the hazard's tolerance; their
        # product's rows drift from 1 by more than 1e-12 at the second time
        step = np.array([[-0.5, 0.5 + 9e-13], [0.0, 0.0]])
        hazard = HazardMatrixIF(2, (1.0, 2.0, 3.0), (step, step, step))
        with pytest.raises(EstimationError, match="^row sums drift at 2.0$"):
            aalen_johansen(hazard)

    def test_initial_state_counts_toward_dimension(self):
        # state 3 is only ever seen at time 0
        sample = sample_of(subject(0, 3, (1.0, 1)), subject(1, 1, (1.0, 2)))
        assert estimate(sample).dim == 3
        with pytest.raises(EstimationError, match="subject 0 visits state 3"):
            nelson_aalen(sample, dim=2)


class TestOccupationEstimate:
    def test_initial_distribution_renormalized(self):
        sample = sample_of(subject(0, 1), subject(1, 0))
        hazard = nelson_aalen(sample, dim=2)
        p0, occupation = occupation_estimate(sample, hazard.times, aalen_johansen(hazard))
        np.testing.assert_allclose(p0, [1.0, 0.0])
        assert occupation.shape == (0, 2)

    def test_requires_someone_observed_at_zero(self):
        sample = sample_of(subject(0, 0, (1.0, 1), (2.0, 2)))
        hazard = nelson_aalen(sample, dim=2)
        with pytest.raises(EstimationError, match="no subject observed at time 0"):
            occupation_estimate(sample, hazard.times, aalen_johansen(hazard))

    def test_uncensored_matches_proportions_exactly(self):
        sample = simulate_sample(illness_death_scenario(), CensoringConfig("none"), 200, 3)
        grid = estimate(sample, dim=3)
        for t in (0.0, 1.0, 1.5, 2.0, 3.0):
            observed = [empirical_occupancy(sample, j, t) for j in (1, 2, 3)]
            np.testing.assert_allclose(grid.occupation_at(t), observed, atol=1e-12)

    def test_filtered_estimate_approaches_oracle(self):
        sample = simulate_sample(
            illness_death_scenario(),
            CensoringConfig("state_filtering_conforming", q=0.7),
            10_000,
            seed=7,
        )
        grid = estimate(sample, dim=3)
        np.testing.assert_allclose(grid.occupation_at(3.0), [0.25, 0.30, 0.45], atol=0.02)

    def test_grid_compares_and_hashes_by_identity(self):
        # it holds arrays, so a value comparison would raise for d >= 2
        sample = sample_of(subject(0, 1, (1.0, 2)), subject(1, 2))
        grid, again = estimate(sample, dim=2), estimate(sample, dim=2)
        assert grid == grid and grid != again and hash(grid) == hash(grid)
        assert len({grid, again}) == 2

    def test_step_evaluation_extends_constantly(self):
        sample = sample_of(subject(0, 1, (1.0, 2)))
        grid = estimate(sample, dim=2)
        np.testing.assert_array_equal(grid.occupation_at(0.5), grid.p0)
        np.testing.assert_array_equal(grid.occupation_at(1.0), grid.occupation_at(99.0))

    def test_appending_subjects_moves_counts_by_one_over_n(self):
        base = [subject(i, 1, (1.0, 2)) for i in range(4)]
        extra = subject(4, 1)
        before = empirical_counts(event_sample(base), 1, 2, 2.0)
        after = empirical_counts(event_sample(base + [extra]), 1, 2, 2.0)
        assert abs(after - before) <= max(before, 1.0) / (len(base) + 1)
        grid = estimate(event_sample(base + [extra]), dim=2)
        np.testing.assert_allclose(transition_at(grid.times, grid.transition, 1.0).sum(axis=1), 1.0, atol=1e-12)


dyadic_time = st.integers(1, 8).map(lambda k: k / 2.0)


@st.composite
def uncensored_samples(draw):
    n = draw(st.integers(1, 12))
    sample = []
    for i in range(n):
        init = draw(st.integers(1, 3))
        times = sorted(draw(st.frozensets(dyadic_time, max_size=3)))
        jumps = []
        state = init
        for t in times:
            to = draw(st.sampled_from([s for s in (1, 2, 3) if s != state]))
            jumps.append((t, to))
            state = to
        sample.append(EventHistory(i, init, tuple(jumps)))
    return event_sample(sample)


@settings(max_examples=200, deadline=None)
@given(uncensored_samples())
def test_uncensored_identity_property(sample):
    grid = estimate(sample, dim=3)
    for t in (0.0,) + grid.times:
        observed = [empirical_occupancy(sample, j, t) for j in (1, 2, 3)]
        assert np.abs(grid.occupation_at(t) - np.array(observed)).max() <= 1e-12


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path):
        sample = sample_of(
            subject(0, 1, (0.5, 0), (1.5, 2)),
            subject(1, 2),
            subject(2, 1, (1.0, 2), (3.0, 3)),
        )
        path = tmp_path / "sample.csv"
        rows = write_event_histories(path, sample)
        assert rows == 3 + sum(len(s.jumps) for s in sample)
        assert read_event_histories(path) == sample

    def test_header_enforced(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n0,0.0,1\n")
        with pytest.raises(FormatError, match="line 1"):
            read_event_histories(path)

    def test_bad_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("subject,time,state\n0,0.0,1\n0,oops,2\n")
        with pytest.raises(FormatError, match="line 3"):
            read_event_histories(path)

    def test_state_above_dimension_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("subject,time,state\n0,0.0,1\n0,1.0,99\n")
        with pytest.raises(FormatError, match="line 3"):
            read_event_histories(path, max_state=3)

    def test_missing_baseline_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("subject,time,state\n0,1.0,1\n")
        with pytest.raises(FormatError, match="time-0"):
            read_event_histories(path)

    def test_non_increasing_times_name_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("subject,time,state\n0,0.0,1\n0,2.0,2\n0,1.0,1\n")
        with pytest.raises(FormatError, match="line 4: jump times must be strictly increasing"):
            read_event_histories(path)

    def test_repeated_state_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("subject,time,state\n0,0.0,1\n1,0.0,2\n0,1.0,2\n0,2.0,2\n")
        with pytest.raises(FormatError, match="line 5: consecutive states must differ"):
            read_event_histories(path)

    def test_nan_time_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("subject,time,state\n0,0.0,1\n0,nan,2\n")
        with pytest.raises(FormatError, match="line 3: jump times must be strictly increasing"):
            read_event_histories(path)

    @pytest.mark.parametrize("text", ["1e999", "inf"])  # the bulk parse reads the first, the row reader both
    def test_infinite_time_names_line(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(f"subject,time,state\n0,0.0,1\n0,{text},2\n")
        with pytest.raises(FormatError, match="^line 3: jump times must be finite$"):
            read_event_histories(path)

    def test_undecodable_byte_names_line(self, tmp_path):
        # once a byte offset into the decoder's chunk: "can't decode byte 0xff in position 33"
        path = tmp_path / "bad.csv"
        for newline in (b"\n", b"\r\n", b"\r"):
            path.write_bytes(newline.join([b"subject,time,state", b"0,0.0,1", b"0,1.0,\xff", b""]))
            with pytest.raises(FormatError, match="^line 3: byte 0xff is not UTF-8"):
                read_event_histories(path)

    def test_valid_file_takes_the_bulk_path(self, tmp_path, monkeypatch):
        sample = simulate_sample(
            illness_death_scenario(), CensoringConfig("state_filtering_conforming", q=0.7), 200, seed=5
        )
        path = tmp_path / "sample.csv"
        write_event_histories(path, sample)
        calls = []

        def row_reader(*args):
            calls.append(args)
            return original(*args)

        original = estimators._read_rows
        monkeypatch.setattr(estimators, "_read_rows", row_reader)
        assert read_event_histories(path) == sample
        assert calls == []
        # a field the bulk parse leaves to the csv module: the row reader reads it
        path.write_text(path.read_text().replace("\n1,0.0,", '\n"1",0.0,'))
        assert read_event_histories(path) == sample
        assert len(calls) == 1

    def test_occupation_csv(self, tmp_path):
        sample = sample_of(subject(0, 1, (1.0, 2)), subject(1, 1))
        grid = estimate(sample, dim=2)
        out = tmp_path / "occ.csv"
        write_occupation_csv(out, grid)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,p_1,p_2"
        assert lines[1].startswith("0.0,1.0,")
        assert len(lines) == 2 + len(grid.times)
