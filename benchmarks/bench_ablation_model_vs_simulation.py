"""Ablation — analytical model vs trace-driven simulation on the same population.

The paper validates its model with trace-driven simulations (Section 8).
This ablation closes the same loop inside the library: the analytical
ranking metric computed from the *empirical* per-bin flow size
distribution must agree with the simulated swapped-pair count within a
small factor, and must agree on which sampling rates are acceptable.
"""

from __future__ import annotations

from repro.core.flow_size_model import FlowPopulation
from repro.core.ranking import RankingModel
from repro.distributions import EmpiricalFlowSizes
from repro.flows.accounting import FlowAccountingEngine
from repro.flows.keys import FiveTupleKeyPolicy
from repro.pipeline import Pipeline
from repro.traces import SyntheticTraceGenerator, expand_to_packets, sprint_like_config

TOP_T = 5
RATES = (0.01, 0.1, 0.5)


def test_ablation_model_vs_simulation(run_once):
    config = sprint_like_config(scale=0.01, duration=600.0)
    trace = SyntheticTraceGenerator(config).generate(rng=121)

    def evaluate():
        batch = expand_to_packets(trace, rng=122, clip_to_duration=trace.duration)
        engine = FlowAccountingEngine(300.0)
        engine.observe_chunk(
            batch.timestamps, trace.group_ids(FiveTupleKeyPolicy())[batch.flow_ids]
        )
        first_bin = engine.flush()[0].packets

        # Analytical prediction from the empirical distribution of the first bin.
        population = FlowPopulation.from_grid(
            EmpiricalFlowSizes(first_bin).discretize(),
            total_flows=first_bin.size,
        )
        model = RankingModel(population, top_t=TOP_T)
        predicted = {rate: model.swapped_pairs(rate) for rate in RATES}

        simulated_result = (
            Pipeline()
            .with_trace(trace)
            .with_sampling_rates(RATES)
            .with_bin_duration(300.0)
            .with_top(TOP_T)
            .with_runs(8)
            .with_seed(123)
            .streaming()
            .run()
        )
        simulated = {
            rate: float(simulated_result.series("ranking", rate).mean[0]) for rate in RATES
        }
        return predicted, simulated

    predicted, simulated = run_once(evaluate)
    print()
    print("rate      model prediction    simulation (first bin)")
    for rate in RATES:
        print(f"{rate:>5.0%}  {predicted[rate]:>17.2f}  {simulated[rate]:>21.2f}")

    for rate in RATES:
        ratio = (predicted[rate] + 1.0) / (simulated[rate] + 1.0)
        assert 0.1 < ratio < 10.0
    # Both views agree that the metric drops by orders of magnitude from 1% to 50%.
    assert predicted[0.01] / max(predicted[0.5], 1e-6) > 10.0
    assert simulated[0.01] / max(simulated[0.5], 1e-6) > 10.0
