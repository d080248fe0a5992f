"""Ablation — random vs periodic vs flow sampling at the same packet budget.

The paper assumes independent random (Bernoulli) packet sampling and
argues (citing prior work) that periodic sampling behaves the same on
high-speed links, while flow sampling — which keeps entire flows — would
trivially preserve the ranking but is too expensive to deploy.  This
ablation verifies both statements on a synthetic Sprint-like trace.
"""

from __future__ import annotations

import numpy as np

from repro.flows.keys import FiveTupleKeyPolicy
from repro.pipeline import run_stream
from repro.sampling import BernoulliSampler, HashFlowSampler, PeriodicSampler
from repro.traces import SyntheticTraceGenerator, expand_to_packets, sprint_like_config

RATE = 0.1
TOP_T = 10
RUNS = 5


def _mean_ranking_metric(batch, groups, sampler_factory) -> float:
    samplers = [sampler_factory(run) for run in range(RUNS)]
    outcome = run_stream([batch], groups, samplers, bin_duration=60.0, top_t=TOP_T)
    return float(np.mean(outcome.ranking_values))


def test_ablation_sampler_designs(run_once):
    config = sprint_like_config(scale=0.01, duration=600.0)
    trace = SyntheticTraceGenerator(config).generate(rng=101)
    batch = expand_to_packets(trace, rng=102)
    groups = trace.group_ids(FiveTupleKeyPolicy())

    def evaluate_all() -> dict[str, float]:
        return {
            "bernoulli": _mean_ranking_metric(
                batch, groups, lambda run: BernoulliSampler(RATE, rng=200 + run)
            ),
            "periodic": _mean_ranking_metric(
                batch, groups, lambda run: PeriodicSampler.from_rate(RATE, phase=run)
            ),
            "flow-sampling": _mean_ranking_metric(
                batch, groups, lambda run: HashFlowSampler(RATE, seed=300 + run)
            ),
        }

    metrics = run_once(evaluate_all)
    print()
    print("ablation: mean ranking swapped pairs at a 10% packet budget, top 10 flows")
    for name, value in metrics.items():
        print(f"  {name:>14}: {value:10.2f}")

    # Periodic sampling behaves like Bernoulli sampling (within a factor of 2).
    assert metrics["periodic"] < metrics["bernoulli"] * 2.0 + 1.0
    assert metrics["bernoulli"] < metrics["periodic"] * 2.0 + 1.0
    # Flow sampling preserves sizes of kept flows, but missing 90% of the
    # flows destroys the top-t list: it must NOT be read as "better".
    assert metrics["flow-sampling"] > 0.0
