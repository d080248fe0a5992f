"""Fig. 13 — trace-driven ranking of the top 10 flows vs time (/24 prefix flows).

Paper reading: aggregating flows into /24 destination prefixes does not
significantly improve the ranking accuracy, despite the larger flows.
"""

from __future__ import annotations

from repro.experiments.figures import (
    figure_12_trace_ranking_five_tuple,
    figure_13_trace_ranking_prefix,
)
from repro.experiments.report import render_pipeline_result


def test_fig13_trace_ranking_prefix(run_once, trace_settings):
    result = run_once(
        figure_13_trace_ranking_prefix,
        bin_duration=60.0,
        **trace_settings,
    )
    print()
    print(render_pipeline_result(result))

    means = {rate: result.series("ranking", rate).overall_mean for rate in result.sampling_rates}
    assert means[0.5] < means[0.1] < means[0.01] < means[0.001]

    # Same qualitative story as the 5-tuple definition: low rates never work.
    five_tuple = figure_12_trace_ranking_five_tuple(bin_duration=60.0, **trace_settings)
    assert means[0.001] > 100.0
    assert five_tuple.series("ranking", 0.001).overall_mean > 100.0
