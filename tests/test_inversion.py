"""Tests for the aggregate and per-flow inversion estimators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.inversion import (
    estimate_flow_size,
    expected_sampled_flows,
    invert_aggregates,
    missed_flow_probability,
    rate_for_relative_error,
    relative_error_bound,
)


class TestFlowSizeEstimate:
    def test_point_estimate_is_unbiased_scaling(self):
        estimate = estimate_flow_size(sampled_packets=50, sampling_rate=0.1)
        assert estimate.estimate == pytest.approx(500.0)

    def test_confidence_interval_contains_estimate(self):
        estimate = estimate_flow_size(sampled_packets=50, sampling_rate=0.1)
        assert estimate.confidence_low <= estimate.estimate <= estimate.confidence_high

    def test_interval_width_shrinks_with_rate(self):
        low_rate = estimate_flow_size(sampled_packets=50, sampling_rate=0.01)
        high_rate = estimate_flow_size(sampled_packets=50, sampling_rate=0.5)
        width_low = low_rate.confidence_high - low_rate.confidence_low
        width_high = high_rate.confidence_high - high_rate.confidence_low
        assert width_high < width_low

    def test_interval_is_the_two_sided_normal_interval(self):
        # A two-sided 95% interval spans z = 1.95996... (the 97.5% Normal
        # quantile) standard errors on each side of the estimate.
        z = 1.959963984540054
        estimate = estimate_flow_size(sampled_packets=50, sampling_rate=0.1)
        half_width = estimate.confidence_high - estimate.estimate
        assert half_width == pytest.approx(z * estimate.std_error, rel=1e-12)
        assert relative_error_bound(500, 0.1) == pytest.approx(z * np.sqrt(0.9 / 50), rel=1e-12)

    def test_full_capture_has_no_uncertainty(self):
        estimate = estimate_flow_size(sampled_packets=42, sampling_rate=1.0)
        assert estimate.std_error == 0.0
        assert estimate.confidence_low == estimate.confidence_high == 42.0

    def test_estimator_is_statistically_consistent(self, rng):
        original, rate = 2_000, 0.05
        estimates = [
            estimate_flow_size(int(rng.binomial(original, rate)), rate).estimate
            for _ in range(500)
        ]
        assert np.mean(estimates) == pytest.approx(original, rel=0.05)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            estimate_flow_size(-1, 0.1)
        with pytest.raises(ValueError):
            estimate_flow_size(5, 0.0)
        with pytest.raises(ValueError):
            estimate_flow_size(5, 0.1, confidence_level=1.5)


class TestRelativeErrorPlanning:
    def test_bound_decreases_with_size(self):
        assert relative_error_bound(10_000, 0.01) < relative_error_bound(100, 0.01)

    def test_rate_for_relative_error_achieves_bound(self):
        size, target = 5_000, 0.2
        rate = rate_for_relative_error(size, target)
        assert relative_error_bound(size, rate) <= target * 1.01

    def test_volume_accuracy_needs_much_lower_rate_than_ranking(self):
        """The contrast the paper draws: 10% volume error on a 10k-packet flow
        is achievable well below the >10% rate that ranking requires."""
        rate = rate_for_relative_error(10_000, 0.10)
        assert rate < 0.05

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            relative_error_bound(0, 0.1)
        with pytest.raises(ValueError):
            rate_for_relative_error(100, 0.0)


class TestAggregateInversion:
    def test_counts_single_packet_flows(self):
        estimates = invert_aggregates([1, 1, 2, 5], sampling_rate=0.5)
        assert estimates.sampled_flows == 4
        assert estimates.sampled_single_packet_flows == 2
        assert estimates.sampled_packets == 9

    def test_total_packet_estimate(self):
        estimates = invert_aggregates([2, 3], sampling_rate=0.1)
        assert estimates.estimated_total_packets == pytest.approx(50.0)

    def test_recovers_flow_count_on_bimodal_population(self, rng):
        """The flow-count heuristic is accurate for mice-and-elephants traffic.

        The estimator counts each single-sampled-packet flow as ``1/p``
        original flows, which is exact for single-packet flows and
        harmless for flows large enough to be sampled several times.
        """
        rate = 0.1
        mice = np.ones(18_000, dtype=np.int64)
        elephants = np.full(2_000, 500, dtype=np.int64)
        original_sizes = np.concatenate([mice, elephants])
        sampled_sizes = rng.binomial(original_sizes, rate)
        observed = sampled_sizes[sampled_sizes > 0]
        estimates = invert_aggregates(observed, sampling_rate=rate)
        assert estimates.estimated_total_flows == pytest.approx(20_000, rel=0.15)

    def test_flow_count_estimate_never_below_observed(self, rng):
        rate = 0.05
        original_sizes = rng.geometric(0.08, size=5_000)
        sampled_sizes = rng.binomial(original_sizes, rate)
        observed = sampled_sizes[sampled_sizes > 0]
        estimates = invert_aggregates(observed, sampling_rate=rate)
        assert estimates.estimated_total_flows >= estimates.sampled_flows

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            invert_aggregates([0, 1], sampling_rate=0.1)
        with pytest.raises(ValueError):
            invert_aggregates([1], sampling_rate=0.0)


class TestMissedFlows:
    def test_missed_flow_probability(self):
        assert missed_flow_probability(1, 0.1) == pytest.approx(0.9)
        assert missed_flow_probability(10, 0.1) == pytest.approx(0.9**10)

    def test_expected_sampled_flows(self):
        value = expected_sampled_flows([1, 10], 0.1)
        assert value == pytest.approx((1 - 0.9) + (1 - 0.9**10))

    def test_large_flows_rarely_missed(self):
        assert missed_flow_probability(1_000, 0.01) < 1e-4

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            missed_flow_probability(0, 0.1)
        with pytest.raises(ValueError):
            expected_sampled_flows([1], 0.0)
