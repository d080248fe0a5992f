"""Tests for the per-figure experiment drivers and the report rendering."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    ANALYTICAL_FIGURES,
    FIVE_TUPLE,
    PREFIX_24,
    acceptable_rate_threshold,
    render_figure_result,
    render_pipeline_result,
)
from repro.experiments.figures import (
    figure_01_optimal_rate_log,
    figure_03_gaussian_error,
    figure_04_ranking_top_t_five_tuple,
    figure_06_ranking_beta_five_tuple,
    figure_08_ranking_total_flows_five_tuple,
    figure_10_detection_top_t_five_tuple,
    figure_12_trace_ranking_five_tuple,
)

FAST_RATES = (0.001, 0.01, 0.1, 0.5)


class TestConfig:
    def test_paper_parameters(self):
        assert FIVE_TUPLE.mean_packets == pytest.approx(9.6)
        assert PREFIX_24.mean_packets == pytest.approx(33.2)
        assert FIVE_TUPLE.total_flows == 700_000
        assert PREFIX_24.total_flows == 100_000

    def test_scaled_total_flows(self):
        assert FIVE_TUPLE.scaled_total_flows(0.2) == 140_000
        with pytest.raises(ValueError):
            FIVE_TUPLE.scaled_total_flows(0.0)

    def test_pareto_factory(self):
        dist = FIVE_TUPLE.pareto(1.5)
        assert dist.mean == pytest.approx(9.6)


class TestAnalyticalFigures:
    def test_registry_contains_all_analytical_figures(self):
        assert set(ANALYTICAL_FIGURES) == {f"fig{n:02d}" for n in range(1, 12)}

    def test_figure_01_diagonal_requires_full_capture(self):
        result = figure_01_optimal_rate_log(num_points=10)
        np.testing.assert_allclose(result.series["diagonal (S1 = S2)"], 100.0)

    def test_figure_03_error_vanishes_for_large_flows(self):
        result = figure_03_gaussian_error(num_points=12)
        errors = result.series["max error"]
        assert errors[-1] < errors.max()

    def test_figure_04_series_ordered_by_t(self):
        result = figure_04_ranking_top_t_five_tuple(rates=FAST_RATES, top_t_values=(1, 5, 25))
        at_one_percent = {label: values[1] for label, values in result.series.items()}
        assert at_one_percent["t = 1"] < at_one_percent["t = 5"] < at_one_percent["t = 25"]

    def test_figure_06_heavier_tail_is_better(self):
        result = figure_06_ranking_beta_five_tuple(rates=FAST_RATES, betas=(1.2, 3.0))
        assert result.series["beta = 1.2"][-1] < result.series["beta = 3.0"][-1]

    def test_figure_08_more_flows_is_better(self):
        result = figure_08_ranking_total_flows_five_tuple(rates=FAST_RATES, factors=(0.2, 5.0))
        labels = sorted(result.series, key=lambda label: int(label.split("= ")[1].replace(",", "")))
        small_n, large_n = labels[0], labels[-1]
        assert result.series[large_n][1] < result.series[small_n][1]

    def test_figure_10_detection_below_ranking(self):
        ranking = figure_04_ranking_top_t_five_tuple(rates=FAST_RATES, top_t_values=(10,))
        detection = figure_10_detection_top_t_five_tuple(rates=FAST_RATES, top_t_values=(10,))
        assert np.all(detection.series["t = 10"] <= ranking.series["t = 10"] + 1e-9)

    def test_figure_result_rows(self):
        result = figure_04_ranking_top_t_five_tuple(rates=(0.01,), top_t_values=(1,))
        rows = result.as_rows()
        assert rows[0]["figure"] == "fig04"
        assert rows[0]["series"] == "t = 1"


class TestTraceFigures:
    def test_figure_12_runs_at_small_scale(self):
        result = figure_12_trace_ranking_five_tuple(
            bin_duration=60.0, scale=0.002, num_runs=2, trace_duration=180.0
        )
        assert result.top_t == 10
        assert len(result.sampling_rates) == 4
        high = result.series("ranking", 0.5).overall_mean
        low = result.series("ranking", 0.001).overall_mean
        assert high < low


class TestReportRendering:
    def test_render_figure_result_mentions_series(self):
        result = figure_04_ranking_top_t_five_tuple(rates=FAST_RATES, top_t_values=(1, 5))
        text = render_figure_result(result)
        assert "fig04" in text
        assert "t = 1" in text and "t = 5" in text

    def test_render_trace_figure_mentions_rates(self):
        result = figure_12_trace_ranking_five_tuple(
            bin_duration=60.0, scale=0.002, num_runs=2, trace_duration=120.0
        )
        text = render_pipeline_result(result)
        assert "ranking" in text and "50%" in text

    def test_acceptable_rate_threshold(self):
        result = figure_04_ranking_top_t_five_tuple(rates=FAST_RATES, top_t_values=(1, 25))
        threshold_small = acceptable_rate_threshold(result, "t = 1")
        assert threshold_small is not None and threshold_small <= 1.0
        assert acceptable_rate_threshold(result, "t = 25") is None

    def test_acceptable_rate_threshold_unknown_series(self):
        result = figure_04_ranking_top_t_five_tuple(rates=(0.01,), top_t_values=(1,))
        with pytest.raises(KeyError):
            acceptable_rate_threshold(result, "t = 99")
