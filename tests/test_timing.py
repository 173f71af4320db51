import math

import numpy as np
import pytest
from scipy.stats import binomtest

from polalign.errors import ConfigError, InsufficientCountsError
from polalign.timing import (
    POLARIZATION_BOUND,
    TIMING_FREQUENCY,
    AlignmentStatus,
    classify,
    wilson_interval,
)
from polalign.tomography import COUNT_SHAPE, CountMatrix, Direction

from conftest import haar_channel, linear_count_matrix
from oracles import aligned_max_probability, timing_counts, worst_case_unitary


class TestBound:
    def test_worst_case_unitary_is_exactly_three_eighths(self):
        assert aligned_max_probability(worst_case_unitary()) == pytest.approx(
            POLARIZATION_BOUND, abs=1e-15
        )

    def test_bound_holds_over_haar_draws(self, rng):
        lowest = min(aligned_max_probability(haar_channel(rng))
                     for _ in range(10_000))
        assert lowest >= POLARIZATION_BOUND - 1e-12
        # the bound is approached, not just respected
        assert lowest < POLARIZATION_BOUND + 0.02

    def test_identity_channel_is_one_half(self):
        assert aligned_max_probability(np.eye(2)) == pytest.approx(0.5)

    def test_misaligned_model(self):
        assert TIMING_FREQUENCY == 0.25


class TestWilsonInterval:
    @pytest.mark.parametrize("trials", [1, 7, 66, 267, 4000])
    @pytest.mark.parametrize("confidence", [0.5, 0.95, 0.99, 1.0 - 0.01 / 16])
    def test_matches_scipy(self, trials, confidence):
        for k in sorted({0, 1, trials // 4, trials // 2, trials - 1, trials}):
            ref = binomtest(k, trials).proportion_ci(confidence_level=confidence, method="wilson")
            lo, hi = wilson_interval(k, trials, confidence)
            assert lo == pytest.approx(ref.low, abs=1e-14)
            assert hi == pytest.approx(ref.high, abs=1e-14)

    def test_edges_are_exact(self):
        assert wilson_interval(0, 50, 0.99)[0] == 0.0
        assert wilson_interval(50, 50, 0.99)[1] == 1.0


class TestClassify:
    def test_timing_misaligned(self):
        verdict = classify(linear_count_matrix(np.full((4, 4), 1000.0)))
        assert verdict.status is AlignmentStatus.TIMING_MISALIGNED
        assert verdict.max_conditional_frequency == pytest.approx(0.25)

    def test_polarization_frame_misaligned(self):
        # identity channel: H -> H with probability 1/2 (basis choice)
        counts = timing_counts(np.eye(2), 4000, np.random.default_rng(1))
        verdict = classify(linear_count_matrix(counts))
        assert verdict.status is AlignmentStatus.POLARIZATION_FRAME_MISALIGNED
        assert verdict.input_label == verdict.outcome_label

    def test_inconclusive_on_few_counts(self):
        verdict = classify(linear_count_matrix(np.ones((4, 4))))
        assert verdict.status is AlignmentStatus.INCONCLUSIVE
        assert verdict.total_counts == 16

    def test_interval_is_family_wise(self):
        counts = np.array([[30, 20, 10, 7], [15, 15, 15, 15], [9, 9, 9, 9], [5, 6, 7, 8]], float)
        verdict = classify(linear_count_matrix(counts), confidence=0.95)
        ref = binomtest(30, 67).proportion_ci(confidence_level=1 - 0.05 / 16, method="wilson")
        assert (verdict.ci_low, verdict.ci_high) == pytest.approx((ref.low, ref.high), abs=1e-14)
        # whole-number counts, passed as floats, give the integer interval's bits
        assert (verdict.ci_low, verdict.ci_high) == wilson_interval(30, 67, 1 - 0.05 / 16)
        assert verdict.confidence == 0.95
        assert (verdict.input_label, verdict.outcome_label) == ("H", "H")

    @pytest.mark.parametrize("direction", list(Direction))
    @pytest.mark.parametrize("row_d", [[0.3, 0.0, 0.0, 0.0], [2.5, 0.4, 0.0, 0.0]],
                             ids=["0.3 of 0.3", "2.5 of 2.9"])
    def test_fractional_counts_tested_as_given(self, row_d, direction):
        # a fractional count is no rounded trial count: rounded, 0.3 of 0.3
        # is 0 of 0, and 2.5 of 2.9 gets the interval of 2 of 3
        counts = np.full(COUNT_SHAPE[direction], 10.0)
        counts[2, :4] = row_d
        verdict = classify(CountMatrix(direction, counts))
        assert (verdict.input_label, verdict.outcome_label) == ("D", "H")
        assert verdict.max_conditional_frequency == row_d[0] / sum(row_d)
        expected = wilson_interval(row_d[0], sum(row_d), 1 - 0.01 / 16)
        assert (verdict.ci_low, verdict.ci_high) == expected
        assert verdict.ci_low < verdict.max_conditional_frequency <= verdict.ci_high

    def test_empty_row_rejected(self):
        counts = np.ones((4, 4))
        counts[2] = 0.0
        with pytest.raises(InsufficientCountsError, match="D"):
            classify(linear_count_matrix(counts))

    @pytest.mark.parametrize("confidence, message", [
        (0.0, "confidence must be in"), (1.0, "confidence must be in"),
        (math.nan, "confidence must be in"),
        # below 1, but 1 - (1 - c)/16 leaves the Wilson quantile's argument at 1.0
        (0.999999999999999, "confidence is too close to 1"),
    ], ids=["0.0", "1.0", "nan", "0.999999999999999"])
    def test_invalid_input_rejected(self, confidence, message):
        with pytest.raises(ConfigError, match=message) as caught:
            classify(linear_count_matrix(np.ones((4, 4))), confidence=confidence)
        assert caught.value.field == "confidence"

    def test_refusal_is_exactly_where_the_quantile_ends(self):
        # the largest confidence with a finite per-cell quantile is accepted,
        # and the next float up is refused
        edge = 0.9999999999999973
        counts = linear_count_matrix(np.full((4, 4), 10.0))
        assert classify(counts, confidence=edge).confidence == edge
        with pytest.raises(ConfigError, match="too close to 1"):
            classify(counts, confidence=math.nextafter(edge, 1.0))

    @pytest.mark.parametrize("direction", list(Direction))
    def test_reads_the_linear_block(self, direction):
        # H, V, D, A lead both label orders, so the linear block is the
        # top-left 4x4 in either direction
        rng = np.random.default_rng(5)
        linear = timing_counts(haar_channel(rng), 267, rng)
        counts = np.zeros(COUNT_SHAPE[direction])
        counts[:4, :4] = linear
        counts[4:, :] = counts[:, 4:] = 50.0
        assert classify(CountMatrix(direction, counts)) == classify(linear_count_matrix(linear))

    def test_broken_timing_rarely_named_polarization(self):
        # 267 linear-basis events is what a forward count file at N=400
        # keeps; testing the largest of 16 cells at the per-cell level
        # instead of the family-wise one names polarization misalignment
        # on ~11 % of such files
        rng = np.random.default_rng(2024)
        wrong = intact_wrong = 0
        trials = 1000
        for _ in range(trials):
            u = haar_channel(rng)
            broken = classify(linear_count_matrix(timing_counts(u, 267, rng,
                                                                timing_aligned=False)))
            intact = classify(linear_count_matrix(timing_counts(u, 267, rng)))
            wrong += broken.status is AlignmentStatus.POLARIZATION_FRAME_MISALIGNED
            intact_wrong += intact.status is AlignmentStatus.TIMING_MISALIGNED
        assert wrong <= 0.02 * trials
        assert intact_wrong == 0
