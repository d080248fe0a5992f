"""Integration tests across modules: model vs simulation, object vs vector paths."""

from __future__ import annotations

import runpy
from pathlib import Path

import numpy as np
import pytest
from oracles.keys import five_tuple_of
from oracles.objectpath import FlowClassifier, ObjectFlowTable, Packet

from repro.core.flow_size_model import FlowPopulation
from repro.core.metrics import ranking_swapped_pairs
from repro.core.ranking import RankingModel
from repro.distributions import EmpiricalFlowSizes, ParetoFlowSizes
from repro.flows.accounting import FlowAccountingEngine
from repro.flows.keys import FiveTupleKeyPolicy
from repro.pipeline import Pipeline
from repro.sampling import BernoulliSampler
from repro.traces import SyntheticTraceGenerator, expand_to_packets, sprint_like_config


class TestModelAgainstMonteCarlo:
    def test_ranking_model_predicts_monte_carlo_average(self, rng):
        """The analytical metric must match a direct Monte-Carlo estimate.

        We build a small synthetic population of known sizes, sample it
        many times, count swapped pairs empirically and compare with the
        analytical expectation computed from the empirical flow size
        distribution.  This closes the loop between Sections 5 and 8 of
        the paper.
        """
        num_flows, top_t, rate = 300, 3, 0.15
        dist = ParetoFlowSizes.from_mean(mean=12.0, shape=1.5)
        original = dist.sample_packets(num_flows, rng)

        population = FlowPopulation.from_grid(
            EmpiricalFlowSizes(original).discretize(), total_flows=num_flows
        )
        predicted = RankingModel(population, top_t=top_t).swapped_pairs(rate)

        runs = 300
        counts = []
        for _ in range(runs):
            sampled = rng.binomial(original, rate)
            counts.append(ranking_swapped_pairs(original, sampled, top_t))
        observed = float(np.mean(counts))

        # The analytical model averages over flow-size realisations while
        # the Monte-Carlo run uses a single fixed realisation, so we only
        # require agreement within a factor of ~3.
        assert predicted == pytest.approx(observed, rel=2.0)
        assert (predicted > 1.0) == (observed > 1.0) or min(predicted, observed) > 0.3


class TestObjectAndVectorPathsAgree:
    def test_classifier_matches_binned_counts(self, rng):
        """The object-level classifier and the vectorised path count the same flows."""
        config = sprint_like_config(scale=0.001, duration=120.0)
        trace = SyntheticTraceGenerator(config).generate(rng=17)
        batch = expand_to_packets(trace, rng=18)

        table = ObjectFlowTable(bin_duration=60.0, key_policy=FiveTupleKeyPolicy())
        for timestamp, flow_id in zip(batch.timestamps, batch.flow_ids):
            table.observe(Packet(float(timestamp), five_tuple_of(trace, int(flow_id))))
        bins = table.flush()

        engine = FlowAccountingEngine(60.0)
        groups = trace.group_ids(FiveTupleKeyPolicy())
        codes = groups.take(batch.flow_ids)
        engine.observe_sorted_chunk(batch.timestamps, codes)
        accounts = engine.flush()
        assert len(bins) == len(accounts)
        for flow_bin, account in zip(bins, accounts):
            assert flow_bin.total_packets == account.total_packets
            assert flow_bin.num_flows == account.num_flows
            object_sizes = sorted(flow.packets for flow in flow_bin.flows)
            vector_sizes = sorted(account.packets.tolist())
            assert object_sizes == vector_sizes

    def test_sampled_classification_matches_model_inputs(self, rng):
        """Sampling then classifying equals classifying then thinning counts."""
        config = sprint_like_config(scale=0.001, duration=60.0)
        trace = SyntheticTraceGenerator(config).generate(rng=19)
        batch = expand_to_packets(trace, rng=20)
        sampler = BernoulliSampler(0.3, rng=21)
        mask = sampler.sample_mask(batch)

        classifier = FlowClassifier()
        for keep, timestamp, flow_id in zip(mask, batch.timestamps, batch.flow_ids):
            if keep:
                classifier.observe(Packet(float(timestamp), five_tuple_of(trace, int(flow_id))))
        object_total = sum(flow.packets for flow in classifier.export())
        assert object_total == int(mask.sum())


def _simulate(trace, rates, bin_duration, top_t, seed):
    return (
        Pipeline()
        .with_trace(trace)
        .with_sampling_rates(rates)
        .with_bin_duration(bin_duration)
        .with_top(top_t)
        .with_runs(5)
        .with_seed(seed)
        .run()
    )


class TestEndToEndPipeline:
    def test_simulation_confirms_model_ordering(self):
        """Trace simulation and analytical model agree on which rates are viable."""
        config = sprint_like_config(scale=0.004, duration=600.0)
        trace = SyntheticTraceGenerator(config).generate(rng=23)
        result = _simulate(trace, (0.001, 0.1, 0.5), bin_duration=300.0, top_t=5, seed=23)

        means = [result.series("ranking", rate).overall_mean for rate in (0.001, 0.1, 0.5)]
        assert means[0] > means[1] > means[2]
        # 0.1% sampling must be hopeless, exactly as the paper observes.
        assert means[0] > 100.0

    def test_detection_beats_ranking_in_simulation(self):
        config = sprint_like_config(scale=0.004, duration=300.0)
        trace = SyntheticTraceGenerator(config).generate(rng=29)
        result = _simulate(trace, (0.1,), bin_duration=150.0, top_t=10, seed=29)
        assert (
            result.series("detection", 0.1).overall_mean
            <= result.series("ranking", 0.1).overall_mean
        )


EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


class TestExamplesRunEndToEnd:
    """The Pipeline-based examples must execute without errors."""

    def test_quickstart_example(self, capsys):
        module = runpy.run_path(str(EXAMPLES_DIR / "quickstart.py"))
        module["main"](scale=0.001, duration=120.0)
        output = capsys.readouterr().out
        assert "misrank" in output
        assert "pipeline run (streamed)" in output

    def test_trace_driven_simulation_example(self, capsys):
        module = runpy.run_path(str(EXAMPLES_DIR / "trace_driven_simulation.py"))
        module["main"](scale=0.002, duration=180.0, runs=2, rates=(0.1, 0.5))
        output = capsys.readouterr().out
        assert "pipeline run (streamed)" in output
        assert "Analytical model" in output
