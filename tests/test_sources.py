"""Tests for the streaming PacketSource abstraction (repro.traces.source).

Covers the adapters (flow trace, packet tables, CSV/NPZ files), the
composition sources (merge, load scale, time warp), the packet-level IO
round trips, and — property-based, via hypothesis — the chunk-size
invariance contract every source must honour.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.assembly import (
    reference_chunks,
    reference_expand_to_packets,
    reference_expanded_chunks,
)

from repro.flows.keys import DestinationPrefixKeyPolicy, FiveTupleKeyPolicy
from repro.flows.packets import PacketBatch
from repro.pipeline import Pipeline
from repro.traces.flow_trace import FlowLevelTrace
from repro.traces.io import (
    read_packet_batch_csv,
    read_packet_batch_npz,
    write_packet_batch_csv,
    write_packet_batch_npz,
)
from repro.traces.source import (
    CSVPacketSource,
    FlowTraceSource,
    LoadScaleSource,
    MergeSource,
    NPZPacketSource,
    PacketTableSource,
    PiecewiseLinearWarp,
    TimeWarpSource,
    diurnal_warp,
    iter_expanded_chunks,
)


def _concat(source, rng_seed=5, chunk_packets=None) -> PacketBatch:
    """Materialise a source's stream with a fresh generator."""
    chunks = list(source.iter_chunks(np.random.default_rng(rng_seed), chunk_packets))
    if not chunks:
        return PacketBatch(np.empty(0), np.empty(0, dtype=np.int64))
    return PacketBatch(
        np.concatenate([c.timestamps for c in chunks]),
        np.concatenate([c.flow_ids for c in chunks]),
        np.concatenate([c.sizes_bytes for c in chunks]),
    )


def _table(timestamps, flow_ids) -> PacketTableSource:
    order = np.argsort(np.asarray(timestamps, dtype=float), kind="stable")
    ts = np.asarray(timestamps, dtype=float)[order]
    ids = np.asarray(flow_ids, dtype=np.int64)[order]
    return PacketTableSource(ts, ids)


class TestFlowTraceSource:
    def test_matches_iter_expanded_chunks_exactly(self, small_trace):
        source = FlowTraceSource(small_trace)
        via_source = _concat(source, rng_seed=3, chunk_packets=1000)
        reference = list(
            iter_expanded_chunks(
                small_trace,
                np.random.default_rng(3),
                chunk_packets=1000,
                clip_to_duration=small_trace.duration,
            )
        )
        np.testing.assert_array_equal(
            via_source.timestamps, np.concatenate([c.timestamps for c in reference])
        )
        np.testing.assert_array_equal(
            via_source.flow_ids, np.concatenate([c.flow_ids for c in reference])
        )

    def test_metadata(self, small_trace):
        source = FlowTraceSource(small_trace)
        assert source.num_flows == small_trace.num_flows
        assert source.duration == small_trace.duration
        assert source.expected_packets == small_trace.total_packets
        assert "flow-trace" in source.describe()

    def test_group_ids_delegate_to_trace(self, small_trace):
        source = FlowTraceSource(small_trace)
        np.testing.assert_array_equal(
            source.group_ids(FiveTupleKeyPolicy()), np.arange(small_trace.num_flows)
        )
        np.testing.assert_array_equal(
            source.group_ids(DestinationPrefixKeyPolicy(24)),
            small_trace.group_ids(DestinationPrefixKeyPolicy(24)),
        )

    def test_with_source_runs_bit_identical_to_with_trace(self, small_trace):
        """The tentpole invariant: with_trace is a thin FlowTraceSource adapter."""

        def build(pipeline):
            return (
                pipeline.with_sampler("bernoulli", rate=0.1)
                .with_sampler("periodic", rate=0.1)
                .with_runs(3)
                .with_seed(21)
            )

        via_trace = build(Pipeline().with_trace(small_trace)).run(parallel="serial")
        via_source = build(Pipeline().with_source(FlowTraceSource(small_trace))).run(
            parallel="serial"
        )
        trace_dict, source_dict = via_trace.to_dict(), via_source.to_dict()
        assert trace_dict == source_dict


class TestPacketTableSource:
    def test_round_trips_the_batch(self):
        source = _table([0.0, 0.5, 0.5, 2.0], [3, 0, 1, 3])
        batch = _concat(source)
        np.testing.assert_array_equal(batch.timestamps, [0.0, 0.5, 0.5, 2.0])
        # Input ids {3, 0, 1} are compacted to the dense range 0..2.
        np.testing.assert_array_equal(batch.flow_ids, [2, 0, 1, 2])
        assert source.num_flows == 3
        assert source.expected_packets == 4
        assert source.duration == 2.0

    def test_sparse_flow_ids_are_compacted(self):
        """Hash-like 64-bit flow ids must not inflate the group arrays."""
        source = _table([0.0, 1.0, 2.0], [10**12, 7, 10**12])
        assert source.num_flows == 2
        np.testing.assert_array_equal(_concat(source).flow_ids, [1, 0, 1])
        assert source.group_ids(FiveTupleKeyPolicy()).size == 2

    def test_identity_groups_for_any_policy(self):
        source = _table([0.0, 1.0], [0, 4])
        for policy in (FiveTupleKeyPolicy(), DestinationPrefixKeyPolicy(24)):
            np.testing.assert_array_equal(source.group_ids(policy), np.arange(2))

    def test_chunking_partitions_the_stream(self):
        source = _table(np.linspace(0, 9, 10), np.zeros(10))
        chunks = list(source.iter_chunks(np.random.default_rng(0), chunk_packets=3))
        assert [len(c) for c in chunks] == [3, 3, 3, 1]

    def test_empty_table(self):
        source = PacketTableSource(np.empty(0), np.empty(0, dtype=np.int64))
        assert source.num_flows == 0
        assert source.duration == 0.0
        assert list(source.iter_chunks(np.random.default_rng(0), 4)) == []

    def test_runs_through_the_pipeline(self):
        rng = np.random.default_rng(8)
        ts = np.sort(rng.uniform(0, 180.0, size=4000))
        ids = rng.integers(0, 40, size=4000)
        result = (
            Pipeline()
            .with_source(PacketTableSource(ts, ids))
            .with_sampler("bernoulli", rate=0.5)
            .with_runs(2)
            .with_seed(0)
            .run()
        )
        assert result.total_packets == 4000
        assert result.series("ranking", result.labels[0]).num_bins == 3


class TestPacketIO:
    def _batch(self) -> PacketBatch:
        return PacketBatch(
            np.array([0.125, 1.0, 1.0, 7.5]),
            np.array([2, 0, 1, 2]),
            np.array([100, 500, 500, 1500]),
        )

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "packets.csv"
        write_packet_batch_csv(self._batch(), path)
        loaded = read_packet_batch_csv(path)
        np.testing.assert_array_equal(loaded.timestamps, self._batch().timestamps)
        np.testing.assert_array_equal(loaded.flow_ids, self._batch().flow_ids)
        np.testing.assert_array_equal(loaded.sizes_bytes, self._batch().sizes_bytes)

    def test_npz_round_trip(self, tmp_path):
        path = tmp_path / "packets.npz"
        write_packet_batch_npz(self._batch(), path)
        loaded = read_packet_batch_npz(path)
        np.testing.assert_array_equal(loaded.timestamps, self._batch().timestamps)
        np.testing.assert_array_equal(loaded.flow_ids, self._batch().flow_ids)
        np.testing.assert_array_equal(loaded.sizes_bytes, self._batch().sizes_bytes)

    @pytest.mark.parametrize("fmt", ["csv", "npz"])
    def test_empty_batch_round_trip(self, tmp_path, fmt):
        empty = PacketBatch(np.empty(0), np.empty(0, dtype=np.int64))
        path = tmp_path / f"empty.{fmt}"
        if fmt == "csv":
            write_packet_batch_csv(empty, path)
            loaded = read_packet_batch_csv(path)
        else:
            write_packet_batch_npz(empty, path)
            loaded = read_packet_batch_npz(path)
        assert len(loaded) == 0

    def test_csv_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_packet_batch_csv(path)

    def test_file_sources_stream_the_file(self, tmp_path):
        batch = self._batch()
        csv_path, npz_path = tmp_path / "p.csv", tmp_path / "p.npz"
        write_packet_batch_csv(batch, csv_path)
        write_packet_batch_npz(batch, npz_path)
        for source in (CSVPacketSource(csv_path), NPZPacketSource(npz_path)):
            streamed = _concat(source, chunk_packets=2)
            np.testing.assert_array_equal(streamed.timestamps, batch.timestamps)
            np.testing.assert_array_equal(streamed.flow_ids, batch.flow_ids)
            np.testing.assert_array_equal(streamed.sizes_bytes, batch.sizes_bytes)


class TestMergeSource:
    def test_merges_in_global_time_order_with_offsets(self):
        left = _table([0.0, 2.0, 4.0], [0, 1, 0])
        right = _table([1.0, 3.0], [0, 0])
        merged = MergeSource(left, right)
        assert merged.num_flows == 3
        batch = _concat(merged, chunk_packets=2)
        np.testing.assert_array_equal(batch.timestamps, [0.0, 1.0, 2.0, 3.0, 4.0])
        # right's flow 0 is offset past left's two flows.
        np.testing.assert_array_equal(batch.flow_ids, [0, 2, 1, 2, 0])

    def test_ties_break_by_source_position(self):
        left = _table([1.0, 1.0], [0, 0])
        right = _table([1.0], [0])
        batch = _concat(MergeSource(left, right), chunk_packets=1)
        np.testing.assert_array_equal(batch.flow_ids, [0, 0, 1])

    def test_group_offsets_keep_links_distinct(self, small_trace):
        merged = MergeSource(FlowTraceSource(small_trace), FlowTraceSource(small_trace))
        groups = merged.group_ids(DestinationPrefixKeyPolicy(24))
        assert groups.size == 2 * small_trace.num_flows
        left, right = groups[: small_trace.num_flows], groups[small_trace.num_flows :]
        assert left.max() < right.min()  # same prefixes, different links

    def test_metadata_aggregates(self, small_trace):
        merged = MergeSource(FlowTraceSource(small_trace), _table([1.0], [0]))
        assert merged.expected_packets == small_trace.total_packets + 1
        assert merged.duration == max(small_trace.duration, 1.0)
        assert merged.num_flows == small_trace.num_flows + 1

    def test_rejects_no_sources(self):
        with pytest.raises(ValueError):
            MergeSource()

    def test_accepts_a_sequence(self):
        merged = MergeSource([_table([0.0], [0]), _table([1.0], [0])])
        assert merged.num_flows == 2

    def test_materialised_mode_yields_a_single_chunk(self):
        merged = MergeSource(_table([0.0, 2.0, 4.0], [0, 1, 0]), _table([1.0, 3.0], [0, 0]))
        chunks = list(merged.iter_chunks(np.random.default_rng(0), None))
        assert len(chunks) == 1
        reference = _concat(merged, rng_seed=0, chunk_packets=2)
        np.testing.assert_array_equal(chunks[0].timestamps, reference.timestamps)
        np.testing.assert_array_equal(chunks[0].flow_ids, reference.flow_ids)

    def test_multilink_pipeline_run(self, small_trace):
        result = (
            Pipeline()
            .with_source(MergeSource(FlowTraceSource(small_trace), FlowTraceSource(small_trace)))
            .with_sampler("bernoulli", rate=0.5)
            .with_runs(2)
            .with_seed(4)
            .run()
        )
        assert result.series("ranking", result.labels[0]).num_bins >= 1


class TestTransformSources:
    def test_load_scale_thins_deterministically(self):
        source = _table(np.linspace(0, 99, 1000), np.zeros(1000))
        scaled = LoadScaleSource(source, 0.25)
        first = _concat(scaled, rng_seed=7)
        second = _concat(scaled, rng_seed=7)
        np.testing.assert_array_equal(first.timestamps, second.timestamps)
        assert 100 < len(first) < 400  # ~250 expected
        assert scaled.expected_packets == 250

    def test_load_scale_amplifies(self):
        source = _table([0.0, 1.0], [0, 1])
        amplified = _concat(LoadScaleSource(source, 3.0))
        assert len(amplified) == 6
        np.testing.assert_array_equal(amplified.timestamps, [0.0, 0.0, 0.0, 1.0, 1.0, 1.0])

    def test_load_scale_rejects_negative_factor(self):
        with pytest.raises(ValueError):
            LoadScaleSource(_table([0.0], [0]), -1.0)

    def test_time_warp_preserves_packets_and_order(self):
        source = _table(np.linspace(0, 10, 50), np.arange(50) % 3)
        warp = PiecewiseLinearWarp(inputs=np.array([0.0, 10.0]), outputs=np.array([0.0, 20.0]))
        warped = _concat(TimeWarpSource(source, warp), chunk_packets=7)
        np.testing.assert_allclose(warped.timestamps, 2.0 * np.linspace(0, 10, 50))
        np.testing.assert_array_equal(warped.flow_ids, np.arange(50) % 3)
        assert TimeWarpSource(source, warp).duration == 20.0

    def test_warp_validates_monotonicity(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            PiecewiseLinearWarp(inputs=np.array([0.0, 1.0]), outputs=np.array([1.0, 0.0]))

    def test_diurnal_warp_is_monotone_and_spans_the_interval(self):
        warp = diurnal_warp(600.0, amplitude=0.8)
        grid = np.linspace(0, 600.0, 500)
        warped = warp(grid)
        assert np.all(np.diff(warped) >= 0)
        assert warped[0] == pytest.approx(0.0)
        assert warped[-1] == pytest.approx(600.0)

    def test_diurnal_warp_concentrates_load_at_the_peak(self):
        # Rate ∝ 1 + a sin(2πt/period): with period = span the first
        # half is the peak, so it must hold more than half the packets.
        span, amplitude = 100.0, 0.9
        warp = diurnal_warp(span, amplitude=amplitude, period=span)
        uniform = np.linspace(0, span, 10_000)
        warped = warp(uniform)
        peak_fraction = float(np.mean(warped < span / 2))
        assert peak_fraction > 0.6

    def test_diurnal_warp_validates(self):
        with pytest.raises(ValueError):
            diurnal_warp(0.0)
        with pytest.raises(ValueError):
            diurnal_warp(10.0, amplitude=1.5)
        with pytest.raises(ValueError):
            diurnal_warp(10.0, period=-1.0)


class TestSourcePickling:
    def test_composed_sources_pickle(self, small_trace):
        source = MergeSource(
            LoadScaleSource(FlowTraceSource(small_trace), 2.0),
            TimeWarpSource(FlowTraceSource(small_trace), diurnal_warp(300.0)),
        )
        clone = pickle.loads(pickle.dumps(source))
        np.testing.assert_array_equal(
            _concat(clone, chunk_packets=2048).timestamps,
            _concat(source, chunk_packets=2048).timestamps,
        )


# ----------------------------------------------------------------------
# Property-based chunk-size invariance (hypothesis)
# ----------------------------------------------------------------------
def _source_strategy():
    """A small random packet table with sorted, possibly tied timestamps."""
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=50),  # timestamp in 0.5s ticks
            st.integers(min_value=0, max_value=4),  # flow id
        ),
        min_size=0,
        max_size=30,
    ).map(
        lambda pairs: _table(
            [0.5 * t for t, _ in sorted(pairs)], [fid for _, fid in sorted(pairs)]
        )
    )


@st.composite
def _merged_and_transformed(draw):
    sources = draw(st.lists(_source_strategy(), min_size=1, max_size=3))
    factor = draw(st.sampled_from([0.5, 1.0, 2.5]))
    stretch = draw(st.sampled_from([1.0, 3.0]))
    warp = PiecewiseLinearWarp(
        inputs=np.array([0.0, 30.0]), outputs=np.array([0.0, 30.0 * stretch])
    )
    return TimeWarpSource(LoadScaleSource(MergeSource(*sources), factor), warp)


class TestChunkSizeInvariance:
    """Satellite: MergeSource and the transform wrappers are chunk-size
    invariant — the concatenated chunks equal the globally time-sorted
    merged stream for any ``chunk_packets``."""

    @settings(max_examples=60, deadline=None)
    @given(source=_merged_and_transformed(), chunk_packets=st.integers(1, 9))
    def test_concatenation_is_chunk_size_invariant(self, source, chunk_packets):
        reference = _concat(source, rng_seed=11, chunk_packets=None)
        chunked = _concat(source, rng_seed=11, chunk_packets=chunk_packets)
        np.testing.assert_array_equal(chunked.timestamps, reference.timestamps)
        np.testing.assert_array_equal(chunked.flow_ids, reference.flow_ids)
        np.testing.assert_array_equal(chunked.sizes_bytes, reference.sizes_bytes)
        assert np.all(np.diff(reference.timestamps) >= 0)

    @settings(max_examples=40, deadline=None)
    @given(
        tables=st.lists(_source_strategy(), min_size=1, max_size=3),
        chunk_packets=st.integers(1, 7),
    )
    def test_merge_equals_global_time_sort(self, tables, chunk_packets):
        merged = MergeSource(*tables)
        batch = _concat(merged, rng_seed=2, chunk_packets=chunk_packets)
        offsets = np.concatenate(([0], np.cumsum([t.num_flows for t in tables])))
        all_ts, all_ids = [], []
        for index, table in enumerate(tables):
            part = _concat(table)
            all_ts.append(part.timestamps)
            all_ids.append(part.flow_ids + offsets[index])
        expected_ts = np.concatenate(all_ts)
        expected_ids = np.concatenate(all_ids)
        order = np.argsort(expected_ts, kind="stable")
        np.testing.assert_array_equal(batch.timestamps, expected_ts[order])
        np.testing.assert_array_equal(batch.flow_ids, expected_ids[order])

    @settings(max_examples=20, deadline=None)
    @given(chunk_packets=st.integers(1, 2048))
    def test_flow_trace_source_invariance_under_any_chunking(self, chunk_packets):
        # hypothesis cannot inject pytest fixtures; build a tiny trace here.
        from repro.traces.synthetic import SyntheticTraceGenerator, sprint_like_config

        trace = SyntheticTraceGenerator(
            sprint_like_config(scale=0.0008, duration=60.0)
        ).generate(rng=0)
        source = FlowTraceSource(trace)
        reference = _concat(source, rng_seed=1, chunk_packets=None)
        chunked = _concat(source, rng_seed=1, chunk_packets=chunk_packets)
        np.testing.assert_array_equal(chunked.timestamps, reference.timestamps)
        np.testing.assert_array_equal(chunked.flow_ids, reference.flow_ids)


# ----------------------------------------------------------------------
# Library assembly vs the reference oracle (hypothesis, bit-identity)
# ----------------------------------------------------------------------
def _flow_trace_strategy():
    """Tiny flow traces with tie-heavy starts and zero durations."""
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=6),  # start in 0.5s ticks
            st.sampled_from([0.0, 0.0, 1.5]),  # durations, biased to ties
            st.integers(min_value=1, max_value=5),  # packets
        ),
        min_size=1,
        max_size=8,
    ).map(
        lambda rows: FlowLevelTrace(
            start_times=np.array([0.5 * s for s, _, _ in rows]),
            durations=np.array([d for _, d, _ in rows]),
            sizes_packets=np.array([p for _, _, p in rows], dtype=np.int64),
            src_ips=np.arange(len(rows), dtype=np.uint32),
            dst_ips=np.arange(len(rows), dtype=np.uint32),
            src_ports=np.zeros(len(rows), dtype=np.uint16),
            dst_ports=np.zeros(len(rows), dtype=np.uint16),
            protocols=np.full(len(rows), 6, dtype=np.uint8),
        )
    )


def _chunks(source, seed, chunk_packets):
    return list(source.iter_chunks(np.random.default_rng(seed), chunk_packets))


def _reference(source, seed, chunk_packets):
    return list(reference_chunks(source, np.random.default_rng(seed), chunk_packets))


def _assert_chunks_identical(fast, reference):
    assert len(fast) == len(reference)
    for a, b in zip(fast, reference):
        for column in ("timestamps", "flow_ids", "sizes_bytes"):
            x, y = getattr(a, column), getattr(b, column)
            assert x.dtype == y.dtype
            np.testing.assert_array_equal(x, y)


class TestAssemblyBackendEquivalence:
    """Every source's chunk assembly is bit-identical to the reference
    oracle (``tests/oracles/assembly.py``) — same chunk boundaries,
    values, and dtypes — for arbitrary chunk sizes, including empty
    chunks, single-flow traces, tied timestamps, and clips landing
    exactly on a pending packet."""

    @settings(max_examples=60, deadline=None)
    @given(
        trace=_flow_trace_strategy(),
        chunk_packets=st.one_of(st.none(), st.integers(1, 9)),
        seed=st.integers(0, 3),
    )
    def test_expanded_chunks_bit_identical(self, trace, chunk_packets, seed):
        fast = list(iter_expanded_chunks(trace, np.random.default_rng(seed), chunk_packets))
        reference = list(
            reference_expanded_chunks(trace, np.random.default_rng(seed), chunk_packets)
        )
        _assert_chunks_identical(fast, reference)

    @settings(max_examples=40, deadline=None)
    @given(
        trace=_flow_trace_strategy(),
        chunk_packets=st.one_of(st.none(), st.integers(1, 9)),
        seed=st.integers(0, 1),
    )
    def test_clip_on_pending_packet_bit_identical(self, trace, chunk_packets, seed):
        # Clip exactly on an emitted packet timestamp: the < comparison
        # must drop it identically in the library and the oracle.
        reference_all = _concat(FlowTraceSource(trace), rng_seed=seed)
        ts = reference_all.timestamps
        clip = float(ts[ts.size // 2]) if ts.size else 1.0
        if clip <= 0.0:
            clip = 1.0
        fast = list(
            iter_expanded_chunks(
                trace, np.random.default_rng(seed), chunk_packets, clip_to_duration=clip
            )
        )
        reference = list(
            reference_expanded_chunks(
                trace, np.random.default_rng(seed), chunk_packets, clip_to_duration=clip
            )
        )
        _assert_chunks_identical(fast, reference)

    @settings(max_examples=60, deadline=None)
    @given(
        source=_merged_and_transformed(),
        chunk_packets=st.one_of(st.none(), st.integers(1, 9)),
        seed=st.integers(0, 2),
    )
    def test_merge_and_transform_stack_bit_identical(self, source, chunk_packets, seed):
        fast = _chunks(source, seed, chunk_packets)
        reference = _reference(source, seed, chunk_packets)
        _assert_chunks_identical(fast, reference)

    @settings(max_examples=30, deadline=None)
    @given(
        trace=_flow_trace_strategy(),
        factor=st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.5, 8.0]),
        chunk_packets=st.one_of(st.none(), st.integers(1, 9)),
    )
    def test_load_scale_paths_bit_identical(self, trace, factor, chunk_packets):
        source = LoadScaleSource(FlowTraceSource(trace), factor)
        fast = _chunks(source, 9, chunk_packets)
        reference = _reference(source, 9, chunk_packets)
        _assert_chunks_identical(fast, reference)

    @settings(max_examples=30, deadline=None)
    @given(
        trace=_flow_trace_strategy(),
        stretch=st.sampled_from([0.5, 1.0, 3.0]),
        chunk_packets=st.one_of(st.none(), st.integers(1, 9)),
    )
    def test_time_warp_bit_identical(self, trace, stretch, chunk_packets):
        warp = PiecewiseLinearWarp(
            inputs=np.array([0.0, 10.0]), outputs=np.array([0.0, 10.0 * stretch])
        )
        source = TimeWarpSource(FlowTraceSource(trace), warp)
        fast = _chunks(source, 4, chunk_packets)
        reference = _reference(source, 4, chunk_packets)
        _assert_chunks_identical(fast, reference)

    @settings(max_examples=40, deadline=None)
    @given(trace=_flow_trace_strategy(), seed=st.integers(0, 3))
    def test_expand_to_packets_bit_identical(self, trace, seed):
        from repro.traces.expansion import expand_to_packets

        fast = expand_to_packets(trace, seed)
        reference = reference_expand_to_packets(trace, seed)
        _assert_chunks_identical([fast], [reference])

    def test_single_flow_trace_bit_identical(self):
        trace = FlowLevelTrace(
            start_times=np.array([0.25]),
            durations=np.array([2.0]),
            sizes_packets=np.array([23], dtype=np.int64),
            src_ips=np.array([1], dtype=np.uint32),
            dst_ips=np.array([2], dtype=np.uint32),
            src_ports=np.array([3], dtype=np.uint16),
            dst_ports=np.array([4], dtype=np.uint16),
            protocols=np.array([6], dtype=np.uint8),
        )
        for chunk_packets in (None, 1, 5, 64):
            source = FlowTraceSource(trace)
            _assert_chunks_identical(
                _chunks(source, 0, chunk_packets),
                _reference(source, 0, chunk_packets),
            )
