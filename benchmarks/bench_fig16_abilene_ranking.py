"""Fig. 16 — trace-driven ranking on an Abilene-like short-tailed trace.

Paper reading: the Abilene link carries more flows but its flow size
distribution is short tailed, which makes ranking *harder* than on the
Sprint trace — a sampling rate above 50% is required and the error grows
very fast below 1%.
"""

from __future__ import annotations

from repro.experiments.figures import (
    figure_12_trace_ranking_five_tuple,
    figure_16_trace_ranking_abilene,
)
from repro.experiments.report import render_pipeline_result


def test_fig16_trace_ranking_abilene(run_once, trace_settings):
    result = run_once(
        figure_16_trace_ranking_abilene,
        bin_duration=60.0,
        **trace_settings,
    )
    print()
    print(render_pipeline_result(result))

    means = {rate: result.series("ranking", rate).overall_mean for rate in result.sampling_rates}
    # Ordering of sampling rates still holds (0.8 replaces 0.5 as in the paper).
    assert means[0.8] < means[0.1] < means[0.01] < means[0.001]

    # Short tail makes ranking harder than on the Sprint-like trace at
    # comparable rates.
    sprint = figure_12_trace_ranking_five_tuple(bin_duration=60.0, **trace_settings)
    assert means[0.1] > sprint.series("ranking", 0.1).overall_mean
