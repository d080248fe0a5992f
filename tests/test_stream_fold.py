"""The stream fold against its reference oracle.

:func:`repro.pipeline.executor.run_stream` counts every stream's sampled
packets in the truth engine's per-stream columns.  These tests check it
equals :func:`oracles.stream.reference_run_stream` — the per-chunk
``np.unique`` fold with sorted-union bin merges it replaced, scoring each
stream with the loop oracle, so the two share no scoring code — bit for
bit across chunk sizes, key spaces (dense, prefix, and a probing table
that rebuilds), the engine's generic segment path, every sampler kind,
0, 1 and 40 streams, and the serial and process backends.  They also
check that ranking sparse group ids in ``Pipeline.plan()`` changes no
outcome, and what the ``stream.addressing`` gauge reports.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from oracles.stream import reference_run_stream

from repro import telemetry
from repro.flows.accounting import FlowAccountingEngine
from repro.flows.groupby import DENSE_SPAN_LIMIT, HashAccumulator
from repro.flows.keys import DestinationPrefixKeyPolicy
from repro.pipeline import Pipeline
from repro.pipeline import pipeline as pipeline_module
from repro.pipeline.executor import StreamOutcome, run_stream
from repro.pipeline.pipeline import _dense_groups
from repro.pipeline.parallel import ExecutionPlan, _build_samplers, probe_shared_memory
from repro.sampling.base import PacketSampler
from repro.traces.source import DEFAULT_CHUNK_PACKETS, PacketTableSource


class _KeepNothing(PacketSampler):
    """A sampler that misses every packet."""

    name = "keep-nothing"

    def sample_mask(self, batch) -> np.ndarray:
        return np.zeros(len(batch), dtype=bool)

    @property
    def effective_rate(self) -> float:
        return 0.0


#: One of each sampler kind: random, counter-stateful, table-stateful,
#: one that keeps nothing and one that keeps everything.
SAMPLERS = {
    "bernoulli": "bernoulli:rate=0.2",
    "periodic": "periodic:period=7",
    "sample-and-hold": "sample-and-hold:rate=0.05",
    "nothing": _KeepNothing(),
    "everything": "periodic:period=1",
}
CHUNKS = {"materialised": None, "256": 256, "default": DEFAULT_CHUNK_PACKETS}
KEYS = ("five-tuple", "prefix", "spread")


def _plan(source, key: str, samplers: list, runs: int, chunk, bin_duration: float):
    pipeline = Pipeline().with_bin_duration(bin_duration).with_top(5).with_runs(runs).with_seed(3)
    if isinstance(source, PacketTableSource):
        pipeline.with_source(source)
    else:
        pipeline.with_trace(source)
        pipeline.with_key_policy("five-tuple" if key == "spread" else key)
    for sampler in samplers:
        pipeline.with_sampler(sampler)
    if chunk is None:
        pipeline.materialised()
    else:
        pipeline.streaming(chunk)
    plan = pipeline.plan()
    if key == "spread":
        # Group ids spread over 2^40: far beyond the dense table's span,
        # so the accumulator probes and grows.
        spread = np.random.default_rng(5).integers(0, 2**40, int(plan.groups.max()) + 1)
        plan.groups = spread[plan.groups]
    return plan


def _oracle(plan: ExecutionPlan) -> StreamOutcome:
    samplers = _build_samplers(plan.sampler_specs, plan.cells)
    return reference_run_stream(
        plan._chunks(), plan.groups, samplers, plan.bin_duration, plan.top_t
    )


def _assert_identical(outcome: StreamOutcome, expected: StreamOutcome) -> None:
    np.testing.assert_array_equal(outcome.ranking_values, expected.ranking_values)
    np.testing.assert_array_equal(outcome.detection_values, expected.detection_values)
    np.testing.assert_array_equal(outcome.bin_start_times, expected.bin_start_times)
    assert outcome.flows_per_bin == expected.flows_per_bin
    assert outcome.total_packets == expected.total_packets
    assert outcome.evictions.tolist() == [0] * expected.ranking_values.shape[0]


def _forty_streams() -> list:
    return list(SAMPLERS.values())  # x 8 runs = 40 streams


@pytest.fixture
def rebuilds(monkeypatch) -> list[bool]:
    """The ``dense`` flag of every accumulator table rebuild."""
    seen: list[bool] = []
    original = HashAccumulator._rebuild

    def spy(self, dense, base, slots):
        seen.append(bool(dense))
        return original(self, dense, base, slots)

    monkeypatch.setattr(HashAccumulator, "_rebuild", spy)
    return seen


@pytest.fixture
def fast_path(monkeypatch) -> list[bool]:
    """Whether each unbounded chunk observation took the engine's fast path."""
    taken: list[bool] = []
    original = FlowAccountingEngine._observe_fast

    def spy(self, *args, **kwargs):
        result = original(self, *args, **kwargs)
        taken.append(result)
        return result

    monkeypatch.setattr(FlowAccountingEngine, "_observe_fast", spy)
    return taken


class TestFoldMatchesOracle:
    @pytest.mark.parametrize("key", KEYS)
    @pytest.mark.parametrize("chunk", list(CHUNKS), ids=list(CHUNKS))
    def test_forty_streams(self, small_trace, key, chunk, rebuilds):
        plan = _plan(small_trace, key, _forty_streams(), 8, CHUNKS[chunk], 150.0)
        assert plan.num_cells == 40
        _assert_identical(plan.execute(backend="serial"), _oracle(plan))
        if key == "spread":
            assert int(plan.groups.max()) - int(plan.groups.min()) >= DENSE_SPAN_LIMIT
            if chunk == "256":
                # Small segments start a small probing table that must grow.
                assert False in rebuilds

    @pytest.mark.parametrize("sampler", list(SAMPLERS))
    def test_one_stream(self, small_trace, sampler):
        plan = _plan(small_trace, "five-tuple", [SAMPLERS[sampler]], 1, 256, 60.0)
        assert plan.num_cells == 1
        _assert_identical(plan.execute(backend="serial"), _oracle(plan))

    @pytest.mark.parametrize("streams", [1, 40])
    def test_generic_segment_path(self, streams, fast_path):
        # A sparse packet table: each 256-packet chunk spans ~1000 bins of
        # 0.25 s, more bins than packets, so the engine segments it with
        # per-packet bin indices instead of the bin-edge search.
        rng = np.random.default_rng(2)
        timestamps = np.sort(rng.uniform(0.0, 1000.0, 1000))
        source = PacketTableSource(timestamps, rng.integers(0, 60, 1000))
        samplers = _forty_streams() if streams == 40 else [SAMPLERS["bernoulli"]]
        plan = _plan(source, "five-tuple", samplers, streams // len(samplers), 256, 0.25)
        outcome = plan.execute(backend="serial")
        assert False in fast_path
        _assert_identical(outcome, _oracle(plan))

    @pytest.mark.skipif(probe_shared_memory() is not None, reason="shared memory unusable")
    @pytest.mark.parametrize("key", KEYS)
    def test_process_backend(self, small_trace, key):
        plan = _plan(small_trace, key, _forty_streams(), 8, 256, 150.0)
        outcome = plan.execute(backend="process", jobs=2)
        assert plan.transport_used == "shm"
        _assert_identical(outcome, _oracle(plan))

    def test_direct_call_equals_oracle(self, small_trace):
        plan = _plan(small_trace, "prefix", _forty_streams(), 8, 4096, 60.0)
        samplers = _build_samplers(plan.sampler_specs, plan.cells)
        outcome = run_stream(plan._chunks(), plan.groups, samplers, 60.0, plan.top_t)
        _assert_identical(outcome, _oracle(plan))

    def test_zero_streams(self, small_trace):
        """No streams still yields every bin, with (0, bins) metric arrays."""
        plan = _plan(small_trace, "five-tuple", [SAMPLERS["bernoulli"]], 1, 4096, 60.0)
        outcome = run_stream(plan._chunks(), plan.groups, [], 60.0, 2)
        expected = reference_run_stream(plan._chunks(), plan.groups, [], 60.0, 2)
        assert outcome.ranking_values.shape == (0, expected.bin_start_times.size)
        assert expected.bin_start_times.size > 1
        _assert_identical(outcome, expected)


def _multilink_prefix() -> Pipeline:
    """A tiny prefix-keyed multilink run: /24 ids spread over ~1.3M values."""
    return (
        Pipeline()
        .with_scenario("multilink", scale=0.002, duration=120.0)
        .with_key_policy("prefix", prefix_length=24)
        .with_sampler("bernoulli", rate=0.5)
        .with_bin_duration(30.0)
        .with_top(5)
        .with_runs(2)
        .with_seed(3)
    )


class TestGroupCompaction:
    """``plan()`` ranks sparse group ids; nothing a run reports moves."""

    def test_plan_groups_are_dense_and_in_order(self):
        pipeline = _multilink_prefix()
        plan = pipeline.plan()
        raw = plan.source.group_ids(pipeline._resolve_key_policy())
        assert int(raw.max()) - int(raw.min()) >= DENSE_SPAN_LIMIT
        distinct = np.unique(raw)
        assert plan.groups.dtype == np.int64
        assert int(plan.groups.min()) == 0
        assert int(plan.groups.max()) == distinct.size - 1
        np.testing.assert_array_equal(distinct[plan.groups], raw)

    def test_only_sparse_ids_are_ranked(self):
        """Sparse means a span of at least the number of flows."""
        sparse = np.array([900, 7, 7, 40], dtype=np.int64)
        assert _dense_groups(sparse).tolist() == [2, 0, 0, 1]
        for dense in ([5, 7, 6, 5], [3], []):
            ids = np.array(dense, dtype=np.int64)
            assert _dense_groups(ids) is ids

    def test_a_fixed_source_is_ranked_once(self, monkeypatch):
        pipeline = _multilink_prefix()
        pipeline.with_source(pipeline.plan().source)
        ranked = []
        monkeypatch.setattr(
            pipeline_module,
            "_dense_groups",
            lambda ids: ranked.append(ids) or _dense_groups(ids),
        )
        first = pipeline.run(parallel="serial")
        second = pipeline.run(parallel="serial")
        assert len(ranked) == 1
        assert second.to_dict() == first.to_dict()
        assert pipeline.plan().groups is pipeline.plan().groups

    def test_a_new_source_or_key_policy_re_ranks(self):
        pipeline = _multilink_prefix()
        source = pipeline.plan().source
        pipeline.with_source(source)
        ranked = pipeline.plan().groups
        # An equal source in a new object: ranked again, to the same ids.
        pipeline.with_source(pickle.loads(pickle.dumps(source)))
        again = pipeline.plan().groups
        assert again is not ranked
        np.testing.assert_array_equal(again, ranked)
        # Another source: its own groups, not the first source's.
        other = _multilink_prefix().with_seed(4).plan().source
        pipeline.with_source(other)
        np.testing.assert_array_equal(
            pipeline.plan().groups,
            _dense_groups(other.group_ids(pipeline._resolve_key_policy())),
        )
        # Another key policy over the same source.
        pipeline.with_source(source)
        pipeline.plan()
        pipeline.with_key_policy("five-tuple")
        np.testing.assert_array_equal(pipeline.plan().groups, np.arange(source.num_flows))
        pipeline.with_key_policy(DestinationPrefixKeyPolicy(24))
        assert pipeline.plan().groups is not ranked
        np.testing.assert_array_equal(pipeline.plan().groups, ranked)

    def test_a_source_resolved_per_plan_is_ranked_per_plan(self):
        pipeline = _multilink_prefix()
        assert pipeline.plan().groups is not pipeline.plan().groups

    @pytest.mark.parametrize("max_flows", [None, 3], ids=["unbounded", "bounded"])
    def test_raw_sparse_ids_give_the_same_outcome(self, max_flows):
        pipeline = _multilink_prefix()
        if max_flows is not None:
            pipeline.with_monitor(max_flows)
        plan = pipeline.plan()
        raw = plan.source.group_ids(pipeline._resolve_key_policy())
        samplers = _build_samplers(plan.sampler_specs, plan.cells)
        expected = run_stream(
            plan._chunks(), raw, samplers, plan.bin_duration, plan.top_t, max_flows=max_flows
        )
        result = pipeline.run()
        ((label, ranking),) = result.ranking.items()
        np.testing.assert_array_equal(ranking.values, expected.ranking_values)
        np.testing.assert_array_equal(result.detection[label].values, expected.detection_values)
        np.testing.assert_array_equal(ranking.bin_start_times, expected.bin_start_times)
        assert result.flows_per_bin == expected.flows_per_bin
        assert result.total_packets == expected.total_packets
        if max_flows is None:
            assert result.evictions == {}
        else:
            assert expected.evictions.min() > 0
            assert result.evictions[label] == expected.evictions.tolist()


class TestAddressingGauge:
    """``stream.addressing`` says how the truth engine addressed its table."""

    def test_prefix_pipeline_run_is_dense(self):
        with telemetry.use_telemetry():
            _multilink_prefix().run(parallel="serial")
            gauges = telemetry.snapshot()["gauges"]
        assert gauges["stream.addressing"] == "dense"

    def test_spread_ids_probe(self, small_trace):
        plan = _plan(small_trace, "spread", [SAMPLERS["bernoulli"]], 1, 4096, 60.0)
        samplers = _build_samplers(plan.sampler_specs, plan.cells)
        with telemetry.use_telemetry():
            run_stream(plan._chunks(), plan.groups, samplers, 60.0, plan.top_t)
            gauges = telemetry.snapshot()["gauges"]
        assert gauges["stream.addressing"] == "probing"
