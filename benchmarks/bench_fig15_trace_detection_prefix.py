"""Fig. 15 — trace-driven detection of the top 10 flows vs time (/24 prefix flows)."""

from __future__ import annotations

from repro.experiments.figures import figure_15_trace_detection_prefix
from repro.experiments.report import render_pipeline_result


def test_fig15_trace_detection_prefix(run_once, trace_settings):
    result = run_once(
        figure_15_trace_detection_prefix,
        bin_duration=60.0,
        **trace_settings,
    )
    print()
    print(render_pipeline_result(result))

    means = {rate: result.series("detection", rate).overall_mean for rate in result.sampling_rates}
    assert means[0.5] < means[0.1] < means[0.01] < means[0.001]
    for rate in result.sampling_rates:
        assert (
            result.series("detection", rate).overall_mean
            <= result.series("ranking", rate).overall_mean + 1e-9
        )
