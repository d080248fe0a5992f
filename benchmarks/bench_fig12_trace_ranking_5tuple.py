"""Fig. 12 — trace-driven ranking of the top 10 flows vs time (5-tuple flows).

Paper reading: per-bin swapped-pair counts averaged over sampling runs;
50% sampling is required for a reliable ranking, 10% sometimes works,
1% and 0.1% never do.  The benchmark uses a scaled-down synthetic
Sprint-like trace (see EXPERIMENTS.md), which preserves the ordering of
the sampling rates even though the absolute metric values are larger
than at backbone scale.
"""

from __future__ import annotations

from repro.experiments.figures import figure_12_trace_ranking_five_tuple
from repro.experiments.report import render_pipeline_result


def test_fig12_trace_ranking_five_tuple(run_once, trace_settings):
    result = run_once(
        figure_12_trace_ranking_five_tuple,
        bin_duration=60.0,
        **trace_settings,
    )
    print()
    print(render_pipeline_result(result))

    means = {rate: result.series("ranking", rate).overall_mean for rate in result.sampling_rates}
    # Strict ordering of the sampling rates, exactly as in the paper's figure.
    assert means[0.5] < means[0.1] < means[0.01] < means[0.001]
    # Low rates are hopeless: orders of magnitude above the acceptance line.
    assert means[0.001] > 100.0
    assert means[0.01] > 10.0
