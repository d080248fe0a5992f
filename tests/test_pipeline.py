"""Tests for the repro.pipeline subsystem.

Covers the builder API, the streaming-vs-materialised equivalence that
the executor guarantees, sampler state isolation between runs, result
export, and monitor mode.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.flows.keys import DestinationPrefixKeyPolicy
from repro.flows.packets import PacketBatch
from repro.pipeline import Pipeline, PipelineResult
from repro.sampling import BernoulliSampler, PeriodicSampler
from repro.sampling.base import PacketSampler
from repro.traces import SyntheticTraceGenerator, sprint_like_config
from repro.traces.source import iter_expanded_chunks


def _base_pipeline(trace, rates=(0.01, 0.5), runs=3, seed=7) -> Pipeline:
    return (
        Pipeline()
        .with_trace(trace)
        .with_sampling_rates(rates)
        .with_bin_duration(60.0)
        .with_top(5)
        .with_runs(runs)
        .with_seed(seed)
    )


class TestBuilder:
    def test_fluent_builder_returns_self(self):
        pipeline = Pipeline()
        assert pipeline.with_bin_duration(30.0) is pipeline
        assert pipeline.with_top(3) is pipeline
        assert pipeline.with_runs(2) is pipeline
        assert pipeline.with_seed(1) is pipeline
        assert pipeline.streaming(1000) is pipeline
        assert pipeline.materialised() is pipeline

    def test_validation_errors(self, small_trace):
        with pytest.raises(ValueError, match="trace"):
            Pipeline().with_sampler("bernoulli", rate=0.1).run()
        with pytest.raises(ValueError, match="sampler"):
            Pipeline().with_trace(small_trace).run()
        with pytest.raises(ValueError):
            Pipeline().with_bin_duration(0.0).with_trace(small_trace).with_sampler(
                "bernoulli", rate=0.1
            ).run()
        with pytest.raises(ValueError):
            Pipeline().streaming(0)

    def test_from_spec_strings(self, small_trace):
        pipeline = Pipeline.from_spec(
            trace="sprint:scale=0.002,duration=120",
            sampler=["bernoulli:rate=0.5", "periodic:rate=0.5"],
            key="prefix:prefix_length=24",
            bin_duration=60.0,
            top_t=3,
            num_runs=2,
            seed=1,
        )
        result = pipeline.run()
        assert result.flow_definition == "/24 destination prefix"
        assert len(result.labels) == 2
        assert result.num_runs == 2

    def test_key_policy_object(self, small_trace):
        result = (
            _base_pipeline(small_trace, rates=(0.5,), runs=1)
            .with_key_policy(DestinationPrefixKeyPolicy(24))
            .run()
        )
        assert result.flow_definition == "/24 destination prefix"

    def test_unknown_component_names_surface(self, small_trace):
        with pytest.raises(KeyError, match="bernoulli"):
            _base_pipeline(small_trace).with_sampler("no-such-sampler").run()


class TestStreamingEquivalence:
    def test_streaming_matches_materialised_exactly(self, small_trace):
        """Same seed => identical MetricSeries for any chunk size."""
        streamed = _base_pipeline(small_trace).streaming(2048).run()
        materialised = _base_pipeline(small_trace).materialised().run()
        assert streamed.streamed and not materialised.streamed
        assert streamed.labels == materialised.labels
        for label in streamed.labels:
            for problem in ("ranking", "detection"):
                a = streamed.series(problem, label)
                b = materialised.series(problem, label)
                np.testing.assert_array_equal(a.values, b.values)
                np.testing.assert_array_equal(a.bin_start_times, b.bin_start_times)

    def test_equivalence_holds_for_stateful_samplers(self, small_trace):
        """Periodic (counter) and flow-hash samplers are chunk-invariant too."""
        def build(pipeline):
            return (
                pipeline.with_trace(small_trace)
                .with_sampler("periodic", rate=0.1)
                .with_sampler("flow-hash", rate=0.1)
                .with_runs(2)
                .with_seed(3)
            )

        streamed = build(Pipeline()).streaming(1500).run()
        materialised = build(Pipeline()).materialised().run()
        for label in streamed.labels:
            np.testing.assert_array_equal(
                streamed.series("ranking", label).values,
                materialised.series("ranking", label).values,
            )

    def test_repeated_runs_are_reproducible(self, small_trace):
        pipeline = _base_pipeline(small_trace).streaming(4096)
        first = pipeline.run()
        second = pipeline.run()
        for label in first.labels:
            np.testing.assert_array_equal(
                first.series("ranking", label).values,
                second.series("ranking", label).values,
            )

    def test_chunk_iteration_covers_all_packets_in_time_order(self, small_trace):
        rng_a = np.random.default_rng(11)
        chunks = list(iter_expanded_chunks(small_trace, rng_a, chunk_packets=1000))
        assert len(chunks) > 1
        assert sum(len(chunk) for chunk in chunks) == small_trace.total_packets
        # The concatenation of the chunks is the globally time-sorted
        # stream — what a monitor on the link would see.
        timestamps = np.concatenate([chunk.timestamps for chunk in chunks])
        assert np.all(np.diff(timestamps) >= 0)

    def test_chunked_expansion_matches_unchunked(self, small_trace):
        chunked = list(iter_expanded_chunks(small_trace, np.random.default_rng(5), 777))
        whole = list(iter_expanded_chunks(small_trace, np.random.default_rng(5), None))
        assert len(whole) == 1
        np.testing.assert_allclose(
            np.concatenate([chunk.timestamps for chunk in chunked]),
            whole[0].timestamps,
        )

    def test_samplers_see_the_time_ordered_stream(self, small_trace):
        """Order-dependent samplers (periodic 1-in-N) need the physical order."""

        class _TimestampRecorder(PacketSampler):
            seen: list[np.ndarray] = []  # class-level: shared with spawned clones
            name = "recorder"

            def sample_mask(self, batch) -> np.ndarray:
                type(self).seen.append(batch.timestamps.copy())
                return np.ones(len(batch), dtype=bool)

            @property
            def effective_rate(self) -> float:
                return 1.0

        _TimestampRecorder.seen = []
        (
            Pipeline()
            .with_trace(small_trace)
            .with_sampler(_TimestampRecorder())
            .with_runs(1)
            .with_seed(0)
            .streaming(700)
            .run()
        )
        timestamps = np.concatenate(_TimestampRecorder.seen)
        assert timestamps.size == small_trace.total_packets
        assert np.all(np.diff(timestamps) >= 0)

    def test_run_stream_rejects_out_of_order_chunks(self):
        from repro.pipeline.executor import run_stream

        late = PacketBatch(np.array([100.0, 101.0]), np.array([0, 0]))
        early = PacketBatch(np.array([0.0, 1.0]), np.array([0, 0]))
        with pytest.raises(ValueError, match="time order"):
            run_stream([late, early], np.arange(1), [BernoulliSampler(0.5, rng=0)], 60.0, 1)

    @pytest.mark.parametrize("monitor", [False, True], ids=["plain", "monitor"])
    def test_bin_index_overflow_names_bin_duration(self, monitor):
        # Bin indices up to 3e20 do not fit int64: the run must refuse
        # before any cast wraps them into negative bin start times.
        from repro.traces.source import PacketTableSource

        source = PacketTableSource(np.array([0.0, 1e7, 2e7, 3e7]), np.array([0, 1, 0, 1]))
        pipeline = (
            Pipeline()
            .with_source(source)
            .with_sampler("bernoulli", rate=0.5)
            .with_bin_duration(1e-13)
            .with_seed(0)
        )
        if monitor:
            pipeline.with_monitor()
        with pytest.raises(OverflowError, match="bin_duration"):
            pipeline.run(parallel="serial")

    def test_run_stream_rejects_a_mask_of_the_wrong_length(self):
        from repro.pipeline.executor import run_stream

        class _Short(BernoulliSampler):
            def sample_mask(self, batch):
                return super().sample_mask(batch)[:-1]

        chunk = PacketBatch(np.array([0.0, 1.0, 2.0]), np.array([0, 0, 0]))
        with pytest.raises(ValueError, match="one flag per packet"):
            run_stream([chunk], np.arange(1), [_Short(0.5, rng=0)], 60.0, 1)

    @pytest.mark.parametrize("top_t", [0, -5])
    def test_run_stream_rejects_top_t_below_one_before_reading(self, top_t):
        from repro.pipeline.executor import run_stream

        def chunks():
            raise AssertionError("run_stream read a chunk before validating top_t")
            yield  # pragma: no cover - makes this a generator

        with pytest.raises(ValueError, match="top_t"):
            run_stream(chunks(), np.arange(1), [BernoulliSampler(0.5, rng=0)], 60.0, top_t)


class _CountingSampler(PacketSampler):
    """Stateful sampler that keeps the first packets of the stream only.

    Without a reset between runs, later runs would keep nothing —
    exactly the state-leak failure mode the pipeline must prevent.
    """

    name = "counting"

    def __init__(self, budget: int) -> None:
        self.budget = budget
        self.consumed = 0
        self.resets = 0

    def sample_mask(self, batch) -> np.ndarray:
        indices = self.consumed + np.arange(len(batch))
        self.consumed += len(batch)
        return indices < self.budget

    @property
    def effective_rate(self) -> float:
        return 1.0

    def reset(self) -> None:
        self.consumed = 0
        self.resets += 1


class TestSamplerStateIsolation:
    def test_stateful_sampler_reset_between_runs(self, small_trace):
        """Regression: every run must see a freshly reset sampler.

        A sampler keeping only the first 500 packets of the stream gives
        identical (deterministic) results for every run if and only if
        its state does not leak across runs or rates.
        """
        sampler = _CountingSampler(budget=500)
        result = (
            Pipeline()
            .with_trace(small_trace)
            .with_sampler(sampler)
            .with_runs(3)
            .with_seed(1)
            .streaming(900)
            .run()
        )
        values = result.series("ranking", result.labels[0]).values
        np.testing.assert_array_equal(values[0], values[1])
        np.testing.assert_array_equal(values[1], values[2])
        # The prototype instance itself is never consumed.
        assert sampler.consumed == 0

    def test_periodic_instance_runs_identical(self, small_trace):
        result = (
            Pipeline()
            .with_trace(small_trace)
            .with_sampler(PeriodicSampler(period=10))
            .with_runs(2)
            .with_seed(2)
            .run()
        )
        values = result.series("ranking", result.labels[0]).values
        np.testing.assert_array_equal(values[0], values[1])

    def test_spawn_resets_state_and_preserves_original(self):
        sampler = PeriodicSampler(period=4, phase=1)
        batch = PacketBatch(np.linspace(0, 1, 10), np.zeros(10, dtype=np.int64))
        sampler.sample_mask(batch)
        assert sampler._counter == 10
        clone = sampler.spawn()
        assert clone._counter == 0
        assert sampler._counter == 10

    def test_spawn_reseeds_random_samplers(self):
        sampler = BernoulliSampler(0.5, rng=0)
        batch = PacketBatch(np.linspace(0, 1, 1000), np.zeros(1000, dtype=np.int64))
        clone_a = sampler.spawn(np.random.default_rng(1))
        clone_b = sampler.spawn(np.random.default_rng(2))
        mask_a = clone_a.sample_mask(batch)
        mask_b = clone_b.sample_mask(batch)
        assert not np.array_equal(mask_a, mask_b)


class TestPipelineResult:
    @pytest.fixture(scope="class")
    def result(self) -> PipelineResult:
        config = sprint_like_config(scale=0.003, duration=240.0)
        trace = SyntheticTraceGenerator(config).generate(rng=9)
        return _base_pipeline(trace, rates=(0.01, 0.5), runs=2, seed=9).run()

    def test_series_lookup_by_label_and_rate(self, result):
        label = result.labels[0]
        by_label = result.series("ranking", label)
        by_rate = result.series("ranking", result.samplers[0].effective_rate)
        assert by_label is by_rate

    def test_unknown_series_raises(self, result):
        with pytest.raises(KeyError):
            result.series("ranking", "nope")
        with pytest.raises(KeyError):
            result.series("ranking", 0.123)
        with pytest.raises(KeyError):
            result.series("precision", result.labels[0])

    def test_summary_rows(self, result):
        rows = result.summary_rows()
        assert len(rows) == 4  # 2 problems x 2 samplers
        assert {row["problem"] for row in rows} == {"ranking", "detection"}
        assert all("sampler" in row for row in rows)

    def test_to_dict_round_trips_key_fields(self, result):
        data = result.to_dict()
        assert data["top_t"] == 5
        assert set(data["ranking"]) == set(result.labels)
        series = data["ranking"][result.labels[0]]
        assert len(series["mean"]) == len(series["bin_start_times"])

    def test_to_csv(self, result, tmp_path):
        path = tmp_path / "out.csv"
        text = result.to_csv(path)
        assert path.read_text() == text
        lines = text.strip().splitlines()
        header = lines[0].split(",")
        assert header[:3] == ["problem", "sampler", "sampling_rate"]
        num_bins = result.series("ranking", result.labels[0]).num_bins
        assert len(lines) == 1 + 4 * num_bins

    def test_higher_rate_gives_lower_metric(self, result):
        assert (
            result.series("ranking", 0.5).overall_mean
            < result.series("ranking", 0.01).overall_mean
        )

    def test_detection_no_harder_than_ranking(self, result):
        for label in result.labels:
            assert (
                result.series("detection", label).overall_mean
                <= result.series("ranking", label).overall_mean + 1e-9
            )


class TestMonitorMode:
    """Monitor-in-the-loop: sampler -> accounting engine -> metrics."""

    def test_unbounded_monitor_matches_plain_run(self, small_trace):
        plain = _base_pipeline(small_trace).run(parallel="serial").to_dict()
        monitored = _base_pipeline(small_trace).with_monitor().run().to_dict()
        for field in ("ranking", "detection", "flows_per_bin", "total_packets"):
            assert monitored[field] == plain[field]
        assert monitored["monitor"] and not plain["monitor"]
        assert all(sum(runs) == 0 for runs in monitored["evictions"].values())

    def test_bounded_monitor_records_evictions(self, small_trace):
        result = (
            _base_pipeline(small_trace, rates=(0.5,), runs=2)
            .with_monitor(max_flows=3)
            .run()
        )
        assert result.monitor and result.max_flows == 3
        (runs,) = result.evictions.values()
        assert len(runs) == 2 and sum(runs) > 0
        round_trip = result.to_dict()
        assert round_trip["max_flows"] == 3
        assert round_trip["evictions"] == result.evictions

    def test_monitor_process_backend_matches_serial(self, small_trace):
        def build(sampler, max_flows):
            return (
                _base_pipeline(small_trace, rates=(), runs=2)
                .with_sampler(sampler)
                .with_monitor(max_flows)
            )

        evictions = []
        for sampler, max_flows in [
            ("bernoulli:rate=0.5", 3),
            ("bernoulli:rate=0.5", None),
            ("sample-and-hold:rate=0.05", 5),
        ]:
            serial = build(sampler, max_flows).run(parallel="serial")
            process = build(sampler, max_flows).run(parallel="process", jobs=2)
            assert process.to_dict() == serial.to_dict(), (sampler, max_flows)
            evictions.append(sum(sum(runs) for runs in serial.evictions.values()))
        assert evictions[0] > 0 and evictions[1] == 0

    def test_plan_execute_keeps_the_bound(self, small_trace):
        pipeline = _base_pipeline(small_trace, rates=(0.5,), runs=2).with_monitor(max_flows=3)
        result = pipeline.run(parallel="serial")
        outcome = pipeline.plan().execute(backend="serial")
        (label,) = result.labels
        np.testing.assert_array_equal(outcome.ranking_values, result.ranking[label].values)
        np.testing.assert_array_equal(outcome.detection_values, result.detection[label].values)
        assert outcome.evictions.tolist() == result.evictions[label]
        assert sum(result.evictions[label]) > 0

    def test_bounded_run_spec_process_matches_serial(self):
        from repro import telemetry
        from repro.store import RunSpec

        spec = RunSpec(
            samplers=("bernoulli:rate=0.5", "sample-and-hold:rate=0.05"),
            trace="sprint:scale=0.002,duration=120",
            num_runs=2,
            seed=4,
            monitor=True,
            max_flows=20,
        )
        serial = spec.execute(parallel="serial")
        assert sum(sum(runs) for runs in serial.evictions.values()) > 0
        with telemetry.use_telemetry():
            process = spec.execute(parallel="process", jobs=2)
            gauges = telemetry.snapshot()["gauges"]
        assert gauges["parallel.backend"] == "process"
        assert process.to_dict() == serial.to_dict()

    def test_monitor_is_chunk_size_invariant(self, small_trace):
        coarse = (
            _base_pipeline(small_trace, rates=(0.5,), runs=2)
            .with_monitor(max_flows=4)
            .materialised()
            .run()
        )
        fine = (
            _base_pipeline(small_trace, rates=(0.5,), runs=2)
            .with_monitor(max_flows=4)
            .streaming(256)
            .run()
        )
        coarse_dict, fine_dict = coarse.to_dict(), fine.to_dict()
        coarse_dict.pop("streamed"), fine_dict.pop("streamed")
        assert coarse_dict == fine_dict

    def test_from_spec_monitor(self, small_trace):
        result = Pipeline.from_spec(
            trace=small_trace, sampler="bernoulli:rate=0.5", num_runs=1, seed=1,
            max_flows=5,
        ).run()
        assert result.monitor and result.max_flows == 5

    def test_with_monitor_validates_bound(self):
        with pytest.raises(ValueError):
            Pipeline().with_monitor(max_flows=0)

    def test_bounded_monitor_is_no_better_than_unbounded(self, small_trace):
        def build():
            return _base_pipeline(small_trace, rates=(0.5,), runs=2, seed=3).with_top(3)

        bounded = build().with_monitor(max_flows=3).run()
        unbounded = build().run()
        # The bound must bite: a 3-record monitor cannot match the
        # idealised evaluation on this trace.
        assert bounded.series("ranking", 0.5).overall_mean >= (
            unbounded.series("ranking", 0.5).overall_mean
        )


@pytest.mark.parametrize("max_flows", [None, 8], ids=["unbounded", "monitor-8"])
def test_results_do_not_depend_on_packet_sizes(max_flows):
    """Flows are ranked and detected by packets: one packet table run with
    sizes drawn from 40-1500 bytes and with every size 500 gives equal
    results, unbounded and under an evicting 8-flow monitor."""
    from repro.traces.source import PacketTableSource

    rng = np.random.default_rng(41)
    timestamps = np.sort(rng.uniform(0.0, 300.0, 6000))
    # Zipf-like flow popularity, so the top flows are well defined.
    flow_ids = np.minimum(rng.zipf(1.6, timestamps.size), 120) - 1
    results = []
    for sizes in (rng.integers(40, 1501, timestamps.size), np.full(timestamps.size, 500)):
        pipeline = (
            Pipeline()
            .with_source(PacketTableSource(timestamps, flow_ids, sizes))
            .with_sampler("bernoulli", rate=0.3)
            .with_sampler("periodic", period=4)
            .with_bin_duration(60.0)
            .with_top(5)
            .with_runs(3)
            .with_seed(5)
        )
        if max_flows is not None:
            pipeline.with_monitor(max_flows)
        results.append(pipeline.run(parallel="serial").to_dict())
    assert results[0] == results[1]
    if max_flows is not None:
        assert sum(sum(runs) for runs in results[0]["evictions"].values()) > 0


class TestFusedMonitorPass:
    """The stream fold with bounded per-stream monitors, driven directly."""

    def _workload(self, trace, chunk_packets=2048, seed=3):
        from repro.flows.keys import FiveTupleKeyPolicy

        chunks = list(
            iter_expanded_chunks(
                trace,
                np.random.default_rng(seed),
                chunk_packets=chunk_packets,
                clip_to_duration=trace.duration,
            )
        )
        return chunks, FiveTupleKeyPolicy().group_ids(trace)

    def _run(self, chunks, groups, max_flows, seed=11):
        from repro.pipeline.executor import run_monitor_stream
        from repro.sampling import SampleAndHoldSampler

        samplers = [
            BernoulliSampler(0.2, rng=np.random.default_rng(seed)),
            SampleAndHoldSampler(0.05, rng=np.random.default_rng(seed + 1)),
        ]
        return run_monitor_stream(iter(chunks), groups, samplers, 60.0, 5, max_flows=max_flows)

    def test_fused_is_chunk_size_invariant(self, small_trace):
        coarse_chunks, groups = self._workload(small_trace, chunk_packets=8192)
        fine_chunks, _ = self._workload(small_trace, chunk_packets=512)
        coarse = self._run(coarse_chunks, groups, 3)
        fine = self._run(fine_chunks, groups, 3)
        np.testing.assert_array_equal(coarse.ranking_values, fine.ranking_values)
        np.testing.assert_array_equal(coarse.evictions, fine.evictions)
