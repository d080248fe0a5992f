"""Tests for the swapped-pair scorer, metric series and trace-driven simulation results."""

from __future__ import annotations

import numpy as np
import pytest
from oracles.metrics import reference_detection_swapped_pairs, reference_ranking_swapped_pairs

from repro.core.metrics import swapped_pair_counts
from repro.flows.keys import DestinationPrefixKeyPolicy, FiveTupleKeyPolicy
from repro.pipeline import MetricSeries, Pipeline
from repro.pipeline.executor import StreamOutcome, metric_series_for_stream
from repro.traces import SyntheticTraceGenerator, sprint_like_config


def _simulate(trace, rates, runs, seed, top_t, bin_duration=60.0, key_policy=None):
    """The paper's Section-8 simulation: one Bernoulli sampler per rate."""
    pipeline = (
        Pipeline()
        .with_trace(trace)
        .with_sampling_rates(rates)
        .with_bin_duration(bin_duration)
        .with_top(top_t)
        .with_runs(runs)
        .with_seed(seed)
    )
    if key_policy is not None:
        pipeline.with_key_policy(key_policy)
    return pipeline.run()


class TestVectorisedMetrics:
    def test_matches_reference_implementation(self, rng):
        """The scorer must agree with the double-loop oracle on random inputs."""
        for _ in range(25):
            n = int(rng.integers(5, 40))
            original = rng.integers(1, 500, size=n)
            sampled = rng.binomial(original, rng.uniform(0.05, 0.8))
            t = int(rng.integers(1, min(10, n) + 1))
            counts = swapped_pair_counts(original, sampled, t)
            assert counts.ranking == reference_ranking_swapped_pairs(original, sampled, t)
            assert counts.detection == reference_detection_swapped_pairs(original, sampled, t)

    def test_handles_fewer_flows_than_top_t(self):
        counts = swapped_pair_counts(np.array([5, 3]), np.array([0, 1]), top_t=10)
        assert counts.top_t == 2

    def test_empty_input(self):
        counts = swapped_pair_counts(np.array([], dtype=int), np.array([], dtype=int), 5)
        assert counts.ranking == 0 and counts.detection == 0

    def test_rejects_invalid_original_counts(self):
        with pytest.raises(ValueError):
            swapped_pair_counts(np.array([0, 2]), np.array([0, 1]), 1)

    def test_perfect_sampling_counts_zero(self):
        original = np.array([50, 40, 30, 20, 10])
        counts = swapped_pair_counts(original, original, top_t=3)
        assert counts.ranking == 0
        assert counts.detection == 0


class TestMetricSeries:
    def test_mean_and_std(self):
        values = np.array([[1.0, 2.0], [3.0, 4.0]])
        series = MetricSeries("ranking", 0.1, np.array([0.0, 60.0]), values)
        np.testing.assert_allclose(series.mean, [2.0, 3.0])
        assert series.num_runs == 2
        assert series.overall_mean == pytest.approx(2.5)

    def test_acceptable_fraction(self):
        values = np.array([[0.0, 10.0], [0.0, 10.0]])
        series = MetricSeries("ranking", 0.1, np.array([0.0, 60.0]), values)
        assert series.fraction_of_bins_acceptable() == pytest.approx(0.5)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            MetricSeries("ranking", 0.1, np.array([0.0]), np.array([1.0, 2.0]))

    def test_rejects_unknown_problem(self):
        with pytest.raises(ValueError, match="problem"):
            MetricSeries("bogus", 0.1, np.array([0.0]), np.array([[1.0]]))

    def test_executor_packaging_rejects_misspelt_problem(self):
        """A misspelt "ranking" used to return the detection values under that label."""
        outcome = StreamOutcome(
            bin_start_times=np.array([0.0]),
            flows_per_bin=3.0,
            total_packets=9,
            ranking_values=np.array([[1.0]]),
            detection_values=np.array([[0.0]]),
            evictions=np.zeros(1, dtype=np.int64),
        )
        with pytest.raises(ValueError, match="problem"):
            metric_series_for_stream(outcome, "rankng", 0.1, slice(0, 1))
        series = metric_series_for_stream(outcome, "ranking", 0.1, slice(0, 1))
        assert series.values.tolist() == [[1.0]]


class TestSimulationRunner:
    @pytest.fixture(scope="class")
    def simulation_result(self):
        config = sprint_like_config(scale=0.003, duration=300.0)
        trace = SyntheticTraceGenerator(config).generate(rng=11)
        return _simulate(trace, rates=(0.01, 0.5), runs=4, seed=11, top_t=5)

    def test_config_validation(self, small_trace):
        with pytest.raises(ValueError):
            _simulate(small_trace, rates=(0.5,), runs=1, seed=0, top_t=5, bin_duration=0.0)
        with pytest.raises(ValueError):
            _simulate(small_trace, rates=(1.5,), runs=1, seed=0, top_t=5)
        with pytest.raises(ValueError):
            _simulate(small_trace, rates=(0.5,), runs=0, seed=0, top_t=5)

    def test_result_structure(self, simulation_result):
        assert simulation_result.sampling_rates == [0.01, 0.5]
        assert len(simulation_result.ranking) == len(simulation_result.detection) == 2
        series = simulation_result.series("ranking", 0.5)
        assert series.num_runs == 4
        assert series.num_bins >= 4
        assert simulation_result.flows_per_bin > 0

    def test_higher_rate_gives_lower_metric(self, simulation_result):
        low = simulation_result.series("ranking", 0.01).overall_mean
        high = simulation_result.series("ranking", 0.5).overall_mean
        assert high < low

    def test_detection_no_harder_than_ranking(self, simulation_result):
        for rate in (0.01, 0.5):
            ranking = simulation_result.series("ranking", rate).overall_mean
            detection = simulation_result.series("detection", rate).overall_mean
            assert detection <= ranking + 1e-9

    def test_summary_rows(self, simulation_result):
        rows = simulation_result.summary_rows()
        assert len(rows) == 4  # 2 problems x 2 rates
        assert {row["problem"] for row in rows} == {"ranking", "detection"}

    def test_unknown_series_raises(self, simulation_result):
        with pytest.raises(KeyError):
            simulation_result.series("ranking", 0.123)

    def test_prefix_policy_runs(self):
        config = sprint_like_config(scale=0.002, duration=180.0)
        trace = SyntheticTraceGenerator(config).generate(rng=21)
        result = _simulate(
            trace, rates=(0.2,), runs=2, seed=21, top_t=3,
            key_policy=DestinationPrefixKeyPolicy(24),
        )
        assert result.flow_definition == "/24 destination prefix"
        assert result.flows_per_bin > 0

    def test_reproducible_with_seed(self):
        config = sprint_like_config(scale=0.002, duration=120.0)
        trace = SyntheticTraceGenerator(config).generate(rng=31)
        a = _simulate(trace, rates=(0.1,), runs=2, seed=31, top_t=3)
        b = _simulate(trace, rates=(0.1,), runs=2, seed=31, top_t=3)
        np.testing.assert_allclose(
            a.series("ranking", 0.1).values, b.series("ranking", 0.1).values
        )

    def test_five_tuple_policy_name(self):
        assert FiveTupleKeyPolicy().name == "5-tuple"
