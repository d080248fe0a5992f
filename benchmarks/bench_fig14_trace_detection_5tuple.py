"""Fig. 14 — trace-driven detection of the top 10 flows vs time (5-tuple flows).

Paper reading: detection is noticeably easier than ranking at the same
sampling rate (roughly an order of magnitude in the metric).
"""

from __future__ import annotations

from repro.experiments.figures import figure_14_trace_detection_five_tuple
from repro.experiments.report import render_pipeline_result


def test_fig14_trace_detection_five_tuple(run_once, trace_settings):
    result = run_once(
        figure_14_trace_detection_five_tuple,
        bin_duration=60.0,
        **trace_settings,
    )
    print()
    print(render_pipeline_result(result))

    for rate in result.sampling_rates:
        ranking = result.series("ranking", rate).overall_mean
        detection = result.series("detection", rate).overall_mean
        assert detection <= ranking + 1e-9

    # At 50% the detection metric is several times below the ranking metric.
    assert (
        result.series("detection", 0.5).overall_mean
        < result.series("ranking", 0.5).overall_mean / 1.5
    )
