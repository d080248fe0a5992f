"""Tests for the named workload scenarios (repro.scenarios).

Acceptance criteria of the scenario subsystem: at least four named
scenarios are registered, every one of them runs end to end through the
pipeline with per-bin metrics, and every one is chunk-size invariant.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.pipeline import Pipeline
from repro.scenarios import SCENARIOS
from repro.traces.source import PacketSource

#: Small-but-nontrivial arguments shared by every scenario smoke test.
SMALL = {"scale": 0.002, "duration": 120.0}


def _materialise(source: PacketSource, rng_seed: int, chunk_packets=None):
    chunks = list(source.iter_chunks(np.random.default_rng(rng_seed), chunk_packets))
    return (
        np.concatenate([c.timestamps for c in chunks]),
        np.concatenate([c.flow_ids for c in chunks]),
    )


class TestScenarioRegistry:
    def test_at_least_four_scenarios_registered(self):
        assert len(SCENARIOS.names()) >= 4

    def test_expected_builtins_present(self):
        assert {"steady", "diurnal", "burst", "churn", "multilink"} <= set(SCENARIOS.names())

    def test_every_factory_accepts_rng(self):
        for name in SCENARIOS.names():
            assert SCENARIOS.accepts_rng(name)

    def test_unknown_scenario_lists_available(self):
        with pytest.raises(KeyError, match="steady"):
            SCENARIOS.create("no-such-scenario")

    @pytest.mark.parametrize("name", sorted(SCENARIOS.names()))
    def test_factories_build_sources(self, name):
        source = SCENARIOS.create(name, **SMALL, rng=np.random.default_rng(0))
        assert isinstance(source, PacketSource)
        assert source.num_flows > 0
        assert source.duration > 0
        assert source.expected_packets and source.expected_packets > 0


class TestScenarioStreams:
    @pytest.mark.parametrize("name", sorted(SCENARIOS.names()))
    def test_chunk_size_invariant(self, name):
        source = SCENARIOS.create(name, **SMALL, rng=np.random.default_rng(7))
        ref_ts, ref_ids = _materialise(source, rng_seed=5)
        assert np.all(np.diff(ref_ts) >= 0)
        for chunk_packets in (311, 4096):
            ts, ids = _materialise(source, rng_seed=5, chunk_packets=chunk_packets)
            np.testing.assert_array_equal(ts, ref_ts)
            np.testing.assert_array_equal(ids, ref_ids)

    @pytest.mark.parametrize("name", sorted(SCENARIOS.names()))
    def test_runs_end_to_end_with_per_bin_metrics(self, name):
        result = (
            Pipeline()
            .with_scenario(name, **SMALL)
            .with_sampler("bernoulli", rate=0.5)
            .with_runs(2)
            .with_seed(1)
            .run()
        )
        assert result.scenario == name
        assert result.source
        series = result.series("ranking", result.labels[0])
        assert series.num_bins >= 1
        assert series.values.shape == (2, series.num_bins)
        assert result.series("detection", result.labels[0]).num_bins == series.num_bins

    def test_scenario_runs_are_reproducible(self):
        def run():
            return (
                Pipeline()
                .with_scenario("multilink", links=2, **SMALL)
                .with_sampler("bernoulli", rate=0.5)
                .with_runs(2)
                .with_seed(9)
                .run()
                .to_dict()
            )

        assert run() == run()

    def test_scenario_spec_string_via_with_source(self):
        result = (
            Pipeline()
            .with_source("burst:scale=0.002,duration=120,factor=4")
            .with_sampler("bernoulli", rate=0.5)
            .with_runs(1)
            .with_seed(0)
            .run()
        )
        assert result.scenario == "burst"

    def test_from_spec_scenario(self):
        result = Pipeline.from_spec(
            scenario="steady:scale=0.002,duration=120",
            sampler="bernoulli:rate=0.5",
            num_runs=1,
            seed=3,
        ).run()
        assert result.scenario == "steady"

    def test_burst_spike_raises_load_in_window(self):
        source = SCENARIOS.create(
            "burst", **SMALL, start=40.0, width=20.0, factor=10.0,
            rng=np.random.default_rng(2),
        )
        ts, _ = _materialise(source, rng_seed=4)
        in_window = np.mean((ts >= 40.0) & (ts < 70.0))
        # The 30s window holds far more than its 25% share of a 120s trace.
        assert in_window > 0.35

    def test_churn_population_drifts(self):
        from repro.flows.keys import DestinationPrefixKeyPolicy

        source = SCENARIOS.create(
            "churn", **SMALL, phases=2, rng=np.random.default_rng(1)
        )
        groups = source.group_ids(DestinationPrefixKeyPolicy(24))
        # MergeSource offsets the phases into disjoint group ranges.
        first = groups[: source.sources[0].num_flows]
        second = groups[source.sources[0].num_flows :]
        assert first.max() < second.min()

    def test_churn_duration_covers_the_whole_stream(self):
        """Regression: merged time-shifted phases must report the true end.

        Each phase's own span is ~duration/phases; the merged stream
        still runs to the configured duration (plus flow tails).
        """
        source = SCENARIOS.create("churn", **SMALL, phases=3, rng=np.random.default_rng(0))
        ts, _ = _materialise(source, rng_seed=1)
        assert source.duration >= SMALL["duration"]
        assert source.duration >= float(ts[-1]) - 1e-9

    def test_monitor_mode_composes_with_scenarios(self):
        result = (
            Pipeline()
            .with_scenario("steady", **SMALL)
            .with_sampler("bernoulli", rate=0.5)
            .with_runs(1)
            .with_seed(5)
            .with_monitor(max_flows=8)
            .run()
        )
        assert result.monitor and result.max_flows == 8
        (runs,) = result.evictions.values()
        assert sum(runs) > 0

    def test_parallel_backend_matches_serial_for_scenarios(self):
        def build():
            return (
                Pipeline()
                .with_scenario("burst", **SMALL)
                .with_sampler("bernoulli", rate=0.5)
                .with_sampler("periodic", rate=0.5)
                .with_runs(2)
                .with_seed(13)
            )

        serial = build().run(parallel="serial").to_dict()
        process = build().run(parallel="process", jobs=2).to_dict()
        assert serial == process


def _assert_outcomes_equal(first, second) -> None:
    np.testing.assert_array_equal(first.bin_start_times, second.bin_start_times)
    np.testing.assert_array_equal(first.ranking_values, second.ranking_values)
    np.testing.assert_array_equal(first.detection_values, second.detection_values)
    assert first.total_packets == second.total_packets
    assert first.flows_per_bin == second.flows_per_bin


class TestPlanReplay:
    """One ExecutionPlan replays the same stream however often it runs."""

    @staticmethod
    def _plan(name: str):
        return (
            Pipeline()
            .with_scenario(name, **SMALL)
            .with_sampler("bernoulli", rate=0.5)
            .with_runs(2)
            .with_seed(3)
            .plan()
        )

    @pytest.mark.parametrize("name", sorted(SCENARIOS.names()))
    def test_executing_a_plan_twice_is_identical(self, name):
        plan = self._plan(name)
        first = plan.execute(backend="serial")
        second = plan.execute(backend="serial")
        _assert_outcomes_equal(first, second)

    @pytest.mark.parametrize("name", sorted(SCENARIOS.names()))
    def test_serial_then_process_is_identical(self, name):
        """Re-executing a plan on the process backend ships the same stream over shm."""
        plan = self._plan(name)
        serial = plan.execute(backend="serial")
        replayed = plan.execute(backend="process", jobs=2)
        assert plan.transport_used == "shm"
        _assert_outcomes_equal(serial, replayed)
