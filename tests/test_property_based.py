"""Property-based tests (hypothesis) for core invariants."""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles.metrics import (
    reference_detection_swapped_pairs,
    reference_ranking_swapped_pairs,
    reference_swapped_pair_counts,
)

from repro.core.gaussian import misranking_probability_gaussian
from repro.core.metrics import SwappedPairCounts, swapped_pair_counts
from repro.core.misranking import misranking_probability_exact
from repro.core.optimal_rate import optimal_rate_gaussian
from repro.distributions import DiscreteFlowSizes, ParetoFlowSizes
from repro.flows.keys import int_to_ip, ip_to_int, prefix_of

sizes = st.integers(min_value=1, max_value=300)
rates = st.floats(min_value=0.01, max_value=1.0)
small_rates = st.floats(min_value=0.001, max_value=0.999)


class TestMisrankingProperties:
    @given(size_a=sizes, size_b=sizes, rate=rates)
    @settings(max_examples=60, deadline=None)
    def test_exact_probability_in_unit_interval(self, size_a, size_b, rate):
        value = misranking_probability_exact(size_a, size_b, rate)
        assert 0.0 <= value <= 1.0

    @given(size_a=sizes, size_b=sizes, rate=rates)
    @settings(max_examples=60, deadline=None)
    def test_exact_probability_symmetric(self, size_a, size_b, rate):
        forward = misranking_probability_exact(size_a, size_b, rate)
        backward = misranking_probability_exact(size_b, size_a, rate)
        assert forward == backward

    @given(size_a=sizes, size_b=sizes, rate_low=small_rates, rate_high=small_rates)
    @settings(max_examples=40, deadline=None)
    def test_exact_probability_monotone_in_rate(self, size_a, size_b, rate_low, rate_high):
        # Monotonicity in the sampling rate holds for flows of distinct
        # sizes; the equal-size tie probability is not monotone.
        assume(size_a != size_b)
        low, high = sorted((rate_low, rate_high))
        assert misranking_probability_exact(size_a, size_b, high) <= (
            misranking_probability_exact(size_a, size_b, low) + 1e-9
        )

    @given(size_a=sizes, size_b=sizes, rate=small_rates)
    @settings(max_examples=60, deadline=None)
    def test_gaussian_bounded_by_half(self, size_a, size_b, rate):
        value = float(misranking_probability_gaussian(size_a, size_b, rate))
        assert 0.0 <= value <= 0.5 + 1e-12

    @given(size_a=sizes, size_b=sizes, target=st.floats(min_value=1e-4, max_value=0.4))
    @settings(max_examples=60, deadline=None)
    def test_gaussian_optimal_rate_achieves_target(self, size_a, size_b, target):
        rate = optimal_rate_gaussian(size_a, size_b, target)
        assert 0.0 <= rate <= 1.0
        if 0.0 < rate < 1.0:
            achieved = float(misranking_probability_gaussian(size_a, size_b, rate))
            assert achieved <= target * (1.0 + 1e-6)


class TestMetricProperties:
    @given(
        original=st.lists(st.integers(min_value=1, max_value=200), min_size=2, max_size=25),
        rate=st.floats(min_value=0.05, max_value=1.0),
        top_t=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_fast_and_reference_metrics_agree(self, original, rate, top_t, seed):
        rng = np.random.default_rng(seed)
        original_arr = np.array(original)
        sampled = rng.binomial(original_arr, rate)
        t = min(top_t, len(original))
        counts = swapped_pair_counts(original_arr, sampled, t)
        assert counts.ranking == reference_ranking_swapped_pairs(original_arr, sampled, t)
        assert counts.detection == reference_detection_swapped_pairs(original_arr, sampled, t)

    @given(
        original=st.lists(st.integers(min_value=1, max_value=200), min_size=2, max_size=25),
        top_t=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_metrics_within_pair_budgets(self, original, top_t, seed):
        rng = np.random.default_rng(seed)
        original_arr = np.array(original)
        sampled = rng.binomial(original_arr, 0.2)
        t = min(top_t, len(original))
        counts = swapped_pair_counts(original_arr, sampled, t)
        n = len(original)
        assert 0 <= counts.ranking <= (2 * n - t - 1) * t / 2
        assert 0 <= counts.detection <= t * (n - t)
        assert counts.detection <= counts.ranking

    @given(
        original=st.lists(st.integers(min_value=1, max_value=200), min_size=2, max_size=25),
        top_t=st.integers(min_value=1, max_value=10),
    )
    @settings(max_examples=40, deadline=None)
    def test_perfect_sampling_has_no_swaps(self, original, top_t):
        original_arr = np.array(original)
        t = min(top_t, len(original))
        counts = swapped_pair_counts(original_arr, original_arr, t)
        assert counts.ranking == 0
        assert counts.detection == 0


@st.composite
def tied_bins(draw, sizes):
    """A bin of 2-30 flows whose original and sampled sizes take at most 5 values each."""
    n = draw(st.integers(min_value=2, max_value=30))
    palette = draw(st.lists(sizes, min_size=1, max_size=5, unique=True))
    sampled_palette = [0] + draw(st.lists(sizes, min_size=0, max_size=4, unique=True))
    original = draw(st.lists(st.sampled_from(palette), min_size=n, max_size=n))
    sampled = draw(st.lists(st.sampled_from(sampled_palette), min_size=n, max_size=n))
    top_t = draw(st.integers(min_value=1, max_value=n))
    return original, sampled, top_t


integer_sizes = st.integers(min_value=1, max_value=40)
fractional_sizes = st.integers(min_value=1, max_value=160).map(lambda k: k / 4 + 0.125)


class TestScorerMatchesOracle:
    """The one scorer equals the double-loop oracle, ties and non-integer sizes included."""

    @given(bin_=tied_bins(integer_sizes))
    @settings(max_examples=150, deadline=None)
    def test_integer_sizes(self, bin_):
        original, sampled, top_t = bin_
        counts = swapped_pair_counts(np.array(original), np.array(sampled), top_t)
        assert counts.ranking == reference_ranking_swapped_pairs(original, sampled, top_t)
        assert counts.detection == reference_detection_swapped_pairs(original, sampled, top_t)

    @given(bin_=tied_bins(fractional_sizes))
    @settings(max_examples=150, deadline=None)
    def test_non_integer_float_sizes(self, bin_):
        original, sampled, top_t = bin_
        counts = swapped_pair_counts(
            np.array(original, dtype=float), np.array(sampled, dtype=float), top_t
        )
        assert counts.ranking == reference_ranking_swapped_pairs(original, sampled, top_t)
        assert counts.detection == reference_detection_swapped_pairs(original, sampled, top_t)


@st.composite
def stream_bins(draw, sizes):
    """A bin of 0-30 flows scored by 0-40 streams; sizes take at most 5 values each."""
    n = draw(st.integers(min_value=0, max_value=30))
    streams = draw(st.sampled_from((0, 1, 2, 7, 40)))
    palette = draw(st.lists(sizes, min_size=1, max_size=5, unique=True))
    sampled_palette = [0] + draw(st.lists(sizes, min_size=0, max_size=4, unique=True))
    original = draw(st.lists(st.sampled_from(palette), min_size=n, max_size=n))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    sampled = np.random.default_rng(seed).choice(np.array(sampled_palette), size=(streams, n))
    top_t = draw(st.integers(min_value=1, max_value=n + 3))
    return np.array(original), sampled, top_t


class TestBatchedScorerMatchesOracles:
    """Every row of a (streams, flows) call equals the per-stream oracles.

    Each row is checked against the loop oracle; the first three rows of
    bins with N >= 2 and t <= N also against the double loops (which
    are too slow for all 40).
    """

    @given(bin_=stream_bins(integer_sizes))
    @settings(max_examples=150, deadline=None)
    def test_integer_sizes(self, bin_):
        self._check(*bin_)

    @given(bin_=stream_bins(fractional_sizes))
    @settings(max_examples=150, deadline=None)
    def test_non_integer_float_sizes(self, bin_):
        self._check(*bin_)

    @staticmethod
    def _check(original, sampled, top_t):
        counts = swapped_pair_counts(original, sampled, top_t)
        assert counts.ranking.shape == counts.detection.shape == (sampled.shape[0],)
        assert counts.ranking.dtype == counts.detection.dtype == np.int64
        for index, row in enumerate(sampled):
            expected = reference_swapped_pair_counts(original, row, top_t)
            assert counts.ranking[index] == expected.ranking
            assert counts.detection[index] == expected.detection
            assert (counts.top_t, counts.num_flows) == (expected.top_t, expected.num_flows)
            if index < 3 and 2 <= original.size and top_t <= original.size:
                assert counts.ranking[index] == reference_ranking_swapped_pairs(
                    original, row, top_t
                )
                assert counts.detection[index] == reference_detection_swapped_pairs(
                    original, row, top_t
                )
        if sampled.shape[0]:
            single = swapped_pair_counts(original, sampled[0], top_t)
            one_row = swapped_pair_counts(original, sampled[:1], top_t)
            assert single == SwappedPairCounts(
                int(one_row.ranking[0]), int(one_row.detection[0]), one_row.top_t, one_row.num_flows
            )
            assert single == reference_swapped_pair_counts(original, sampled[0], top_t)


class TestDistributionProperties:
    @given(
        shape=st.floats(min_value=1.05, max_value=4.0),
        mean=st.floats(min_value=2.0, max_value=100.0),
        level=st.floats(min_value=0.0, max_value=0.999999),
    )
    @settings(max_examples=60, deadline=None)
    def test_pareto_quantile_inverts_cdf(self, shape, mean, level):
        dist = ParetoFlowSizes.from_mean(mean=mean, shape=shape)
        x = dist.quantile(level)
        assert np.isclose(dist.cdf(x), level, atol=1e-9)

    @given(
        shape=st.floats(min_value=1.05, max_value=4.0),
        mean=st.floats(min_value=2.0, max_value=100.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_pareto_discretisation_normalised(self, shape, mean):
        dist = ParetoFlowSizes.from_mean(mean=mean, shape=shape)
        grid = dist.discretize(num_points=100)
        assert np.isclose(grid.probabilities.sum(), 1.0, atol=1e-9)
        assert np.all(np.diff(grid.sizes) > 0)

    @given(
        entries=st.dictionaries(
            st.integers(min_value=1, max_value=1000),
            st.floats(min_value=0.01, max_value=1.0),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_discrete_distribution_pmf_normalised(self, entries):
        dist = DiscreteFlowSizes.from_mapping(entries)
        assert np.isclose(dist.pmf_values.sum(), 1.0)
        assert np.isclose(dist.cdf(1000.0), 1.0)


class TestAddressProperties:
    @given(value=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_ip_roundtrip(self, value):
        assert ip_to_int(int_to_ip(value)) == value

    @given(
        value=st.integers(min_value=0, max_value=2**32 - 1),
        length=st.integers(min_value=0, max_value=32),
    )
    @settings(max_examples=100, deadline=None)
    def test_prefix_is_idempotent_and_contained(self, value, length):
        prefix = prefix_of(value, length)
        assert prefix_of(prefix, length) == prefix
        assert prefix <= value
