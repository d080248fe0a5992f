"""Columnar flow-accounting engine: equivalence with the object path.

The load-bearing guarantee of :mod:`repro.flows.accounting` is that the
columnar engine is *bit-identical* to the per-packet object-level
monitor (the oracle in ``tests/oracles/objectpath.py``) — same bins,
same rankings, same eviction counts — for any packet stream, any
chunking, with and without a ``max_flows`` bound.  The engine is fed
what users run, the group ids of ``policy.group_ids``; the oracle
classifies each packet by its 5-tuple or destination prefix, over flows
sorted by 5-tuple so that group ids order like the oracle's keys.  The
property-based tests here generate adversarial streams (tiny key
spaces, colliding counts, binding memory bounds) and assert exactly
that.  The file also checks the bounded table's one-entry-per-flow
eviction heap, that negative codes are rejected, and that
``max_flows``, ``bin_duration``, ``num_runs`` and ``chunk_packets`` are
checked at every entry point.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.keys import FiveTuple, flow_key_order, keys_by_code, trace_of
from oracles.objectpath import FlowClassifier, ObjectFlowTable, Packet, flow_bins

from repro.cli import main
from repro.flows.accounting import (
    FlowAccountingEngine,
    _BoundedBin,
    aggregate_codes,
    bin_segments,
)
from repro.flows.keys import DestinationPrefixKeyPolicy, FiveTupleKeyPolicy
from repro.flows.packets import PacketBatch
from repro.pipeline import Pipeline
from repro.pipeline.executor import run_stream
from repro.store import RunSpec, store_key
from repro.sweep import SweepGrid


# ----------------------------------------------------------------------
# Stream generation helpers
# ----------------------------------------------------------------------
#: Prefix length of the destination-prefix policy under test.
PREFIX_LENGTH = 12


def _flow_universe(num_flows: int, seed: int) -> list[FiveTuple]:
    """``num_flows`` distinct 5-tuples in :func:`flow_key_order`.

    Flows ``2k`` and ``2k + 1`` (in draw order) share the destination
    prefix ``0x0A0 + k`` with random host bits, so prefixes hold two
    flows each and sit next to each other: a prefix shift off by one bit
    merges or splits groups.
    """
    rng = np.random.default_rng(seed)
    host_bits = 32 - PREFIX_LENGTH
    five_tuples = {
        FiveTuple(
            src_ip=int(rng.integers(0, 2**32)),
            dst_ip=((0x0A0 + index // 2) << host_bits) | int(rng.integers(0, 2**host_bits)),
            src_port=int(rng.integers(0, 2**16)),
            dst_port=int(rng.integers(0, 2**16)),
            protocol=int(rng.choice([6, 17])),
        )
        for index in range(num_flows)
    }
    return sorted(five_tuples, key=flow_key_order)


def _stream(num_packets: int, num_flows: int, time_span: float, seed: int):
    rng = np.random.default_rng(seed)
    timestamps = np.sort(rng.uniform(0.0, time_span, num_packets))
    flow_ids = rng.integers(0, num_flows, num_packets).astype(np.int64)
    return timestamps, flow_ids


def _run_object_table(timestamps, flow_ids, five_tuples, policy, max_flows):
    table = ObjectFlowTable(10.0, key_policy=policy, max_flows=max_flows)
    for ts, fid in zip(timestamps, flow_ids):
        table.observe(Packet(float(ts), five_tuples[int(fid)]))
    return table.flush(), table.evictions


# ----------------------------------------------------------------------
# Property: object path == columnar engine, any chunking, any bound
# ----------------------------------------------------------------------
class TestObjectColumnarEquivalence:
    @given(
        seed=st.integers(0, 10_000),
        num_packets=st.integers(1, 400),
        num_flows=st.integers(1, 25),
        max_flows=st.one_of(st.none(), st.integers(1, 8)),
        chunk=st.integers(1, 123),
        prefix=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_engine_over_chunks_matches_object_table(
        self, seed, num_packets, num_flows, max_flows, chunk, prefix
    ):
        """The object table over a packet stream == engine over the same
        stream's chunks: identical bins and eviction counts for any
        chunk size, with and without ``max_flows``."""
        policy = DestinationPrefixKeyPolicy(PREFIX_LENGTH) if prefix else FiveTupleKeyPolicy()
        five_tuples = _flow_universe(num_flows, seed)
        timestamps, flow_ids = _stream(num_packets, len(five_tuples), 45.0, seed + 1)

        reference_bins, reference_evictions = _run_object_table(
            timestamps, flow_ids, five_tuples, policy, max_flows
        )

        trace = trace_of(five_tuples)
        keys = keys_by_code(policy, trace)
        groups = policy.group_ids(trace)
        engine = FlowAccountingEngine(10.0, max_flows=max_flows)
        for lo in range(0, num_packets, chunk):
            batch = PacketBatch(timestamps[lo : lo + chunk], flow_ids[lo : lo + chunk])
            # As run_stream accounts a chunk: the group-id universe
            # reserved for dense addressing, trusted columns.
            in_bounds = engine.reserve_codes(int(groups.min()), int(groups.max()))
            codes = groups.take(batch.flow_ids)
            engine.observe_sorted_chunk(batch.timestamps, codes, in_bounds=in_bounds)
        accounts = engine.flush()

        assert flow_bins(accounts, keys) == reference_bins
        assert engine.evictions == reference_evictions

    @given(
        seed=st.integers(0, 10_000),
        num_packets=st.integers(1_500, 2_500),
        # At least 17 flows: 9 prefixes, more than the largest table.
        num_flows=st.integers(17, 60),
        max_flows=st.integers(1, 8),
        chunk=st.integers(1, 800),
        prefix=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_heavy_eviction_with_unsorted_bins_matches_object_table(
        self, seed, num_packets, num_flows, max_flows, chunk, prefix
    ):
        """Tables far too small for their flows, counts that tie all the
        time, and timestamps shuffled within each bin, fed through
        ``observe_chunk``: identical bins and eviction counts."""
        policy = DestinationPrefixKeyPolicy(PREFIX_LENGTH) if prefix else FiveTupleKeyPolicy()
        five_tuples = _flow_universe(num_flows, seed)
        timestamps, flow_ids = _stream(num_packets, len(five_tuples), 45.0, seed + 1)
        rng = np.random.default_rng(seed + 2)
        # Bin indices stay non-decreasing; the order inside a bin is random.
        timestamps = timestamps[np.lexsort((rng.random(num_packets), timestamps // 10.0))]

        reference_bins, reference_evictions = _run_object_table(
            timestamps, flow_ids, five_tuples, policy, max_flows
        )

        trace = trace_of(five_tuples)
        keys = keys_by_code(policy, trace)
        codes = policy.group_ids(trace)[flow_ids]
        engine = FlowAccountingEngine(10.0, max_flows=max_flows)
        for lo in range(0, num_packets, chunk):
            engine.observe_chunk(timestamps[lo : lo + chunk], codes[lo : lo + chunk])
        accounts = engine.flush()

        assert reference_evictions > 0
        assert flow_bins(accounts, keys) == reference_bins
        assert engine.evictions == reference_evictions

    @given(
        seed=st.integers(0, 10_000),
        max_flows=st.integers(1, 8),
        segments=st.lists(st.integers(1, 60), min_size=1, max_size=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounded_heap_holds_one_entry_per_tracked_flow(self, seed, max_flows, segments):
        """After any ``apply`` (fold or replay) the eviction heap holds exactly
        one entry per tracked flow, never above its live count, and
        evicts the true smallest flow."""
        rng = np.random.default_rng(seed)
        table = _BoundedBin(max_flows)
        for size in segments:
            table.apply(rng.integers(0, 2 * max_flows, size))
            entries = {code: count for count, code in table.heap}
            assert len(table.heap) == len(table.table) == len(entries)
            assert entries.keys() == table.table.keys()
            assert all(count <= table.table[code] for code, count in entries.items())
            if table.table and rng.random() < 0.3:
                expected = min(table.table, key=lambda code: (table.table[code], code))
                assert table.evict_smallest() == expected

    def test_engine_is_chunk_size_invariant(self):
        timestamps, flow_ids = _stream(500, 12, 40.0, 7)
        outputs = []
        for chunk in (1, 7, 100, 500):
            engine = FlowAccountingEngine(10.0, max_flows=5)
            for lo in range(0, 500, chunk):
                engine.observe_chunk(timestamps[lo : lo + chunk], flow_ids[lo : lo + chunk])
            accounts = engine.flush()
            outputs.append(
                (
                    engine.evictions,
                    [(a.index, a.codes.tolist(), a.packets.tolist()) for a in accounts],
                )
            )
        assert all(output == outputs[0] for output in outputs[1:])


# ----------------------------------------------------------------------
# Engine unit behaviour
# ----------------------------------------------------------------------
class TestFlowAccountingEngine:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            FlowAccountingEngine(0.0)
        with pytest.raises(ValueError):
            FlowAccountingEngine(10.0, max_flows=0)

    def test_rejects_time_going_backwards_across_bins(self):
        engine = FlowAccountingEngine(10.0)
        engine.observe_chunk([15.0], [1])
        with pytest.raises(ValueError):
            engine.observe_chunk([5.0], [1])
        with pytest.raises(ValueError):
            engine.observe_chunk([25.0, 12.0], [1, 1])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_observe_chunk_rejects_non_finite_timestamps(self, bad):
        engine = FlowAccountingEngine(10.0)
        with pytest.raises(ValueError, match="timestamps must be finite"):
            engine.observe_chunk([0.0, bad], [1, 2])
        bounded = FlowAccountingEngine(10.0, max_flows=4)
        with pytest.raises(ValueError, match="timestamps must be finite"):
            bounded.observe_chunk([bad], [1])

    def test_keep_masks_count_each_stream_per_flow(self):
        engine = FlowAccountingEngine(10.0)
        timestamps = np.array([0.0, 1.0, 2.0, 12.0, 13.0])
        codes = np.array([9, 4, 9, 4, 4], dtype=np.int64)
        keep = np.array([[1, 1, 0, 1, 0], [0, 0, 0, 0, 0]], dtype=bool)
        engine.observe_sorted_chunk(timestamps, codes, keep_masks=keep)
        first, second = engine.flush()
        assert first.codes.tolist() == [4, 9]
        assert first.sampled.tolist() == [[1, 1], [0, 0]]
        assert second.codes.tolist() == [4]
        assert second.sampled.tolist() == [[1], [0]]

    def test_keep_masks_need_an_unbounded_engine(self):
        keep = np.ones((1, 2), dtype=bool)
        bounded = FlowAccountingEngine(10.0, max_flows=4)
        with pytest.raises(ValueError, match="unbounded"):
            bounded.observe_sorted_chunk(np.array([0.0, 1.0]), np.array([1, 2]), keep_masks=keep)
        engine = FlowAccountingEngine(10.0)
        with pytest.raises(ValueError, match="one flag per packet"):
            engine.observe_sorted_chunk(
                np.array([0.0, 1.0, 2.0]), np.array([1, 2, 3]), keep_masks=keep
            )

    def test_observe_chunk_reports_no_sampled_counts(self):
        engine = FlowAccountingEngine(10.0)
        engine.observe_chunk([0.0, 1.0], [1, 2])
        (account,) = engine.flush()
        assert account.sampled is None

    def test_empty_bins_are_skipped(self):
        engine = FlowAccountingEngine(1.0)
        engine.observe_chunk([0.5, 5.5], [1, 2])
        assert [account.index for account in engine.flush()] == [0, 5]

    def test_bounded_eviction_restarts_counts(self):
        engine = FlowAccountingEngine(100.0, max_flows=1)
        # Flow 1 accumulates 3 packets, then flow 2 evicts it; flow 1
        # returns and evicts flow 2, restarting from zero.
        engine.observe_chunk([0.0, 1.0, 2.0, 3.0, 4.0], [1, 1, 1, 2, 1])
        assert engine.evictions == 2
        (account,) = engine.flush()
        assert account.codes.tolist() == [1]
        assert account.packets.tolist() == [1]

    def test_close_until_closes_lagging_bin(self):
        engine = FlowAccountingEngine(10.0)
        engine.observe_chunk([0.0], [1])
        engine.close_until(3)
        assert [account.index for account in engine.drain_completed()] == [0]
        assert engine.current_bin_index == 3

    def test_evict_smallest_requires_bound(self):
        engine = FlowAccountingEngine(10.0)
        with pytest.raises(ValueError):
            engine.evict_smallest()

    @pytest.mark.parametrize("max_flows", [None, 4])
    def test_negative_codes_are_rejected(self, max_flows):
        """Codes are integer group ids: a negative one raises ``ValueError`` and
        a float one ``TypeError`` on every engine path, instead of being
        truncated into another flow's id; an empty chunk is still a no-op."""
        message = "key codes must be non-negative"
        engine = FlowAccountingEngine(10.0, max_flows=max_flows)
        with pytest.raises(ValueError, match=message):
            engine.observe_chunk([0.0, 1.0], [3, -1])
        with pytest.raises(ValueError, match=message):
            engine.observe_sorted_chunk(np.array([2.0]), np.array([-7]))
        with pytest.raises(TypeError, match="key codes must be integers"):
            engine.observe_chunk([0.0, 1.0], [1.7, 1.2])
        with pytest.raises(TypeError, match="key codes must be integers"):
            engine.observe_sorted_chunk(np.array([0.0, 1.0]), np.array([0.2, 0.7]))
        engine.observe_chunk([], [])
        engine.observe_sorted_chunk(np.empty(0), np.empty(0))
        assert engine.packets_seen == 0
        assert engine.flush() == []

    def test_negative_codes_cannot_be_reserved(self):
        """``in_bounds`` skips the scan, so the reservation it trusts refuses them."""
        with pytest.raises(ValueError, match="key codes must be non-negative"):
            FlowAccountingEngine(10.0).reserve_codes(-1, 5)

    def test_counts_for_alignment(self):
        engine = FlowAccountingEngine(10.0)
        engine.observe_chunk([0.0, 1.0, 2.0], [4, 9, 4])
        (account,) = engine.flush()
        assert account.counts_for(np.array([9, 4, 777])).tolist() == [1, 2, 0]


class TestHelpers:
    def test_bin_segments(self):
        bins, bounds = bin_segments(np.array([3, 3, 5, 5, 5, 8]))
        assert bins.tolist() == [3, 5, 8]
        assert bounds.tolist() == [0, 2, 5, 6]

    def test_bin_segments_empty(self):
        bins, bounds = bin_segments(np.array([], dtype=np.int64))
        assert bins.size == 0 and bounds.tolist() == [0]

    def test_aggregate_codes(self):
        codes, packets = aggregate_codes(np.array([7, 3, 7]))
        assert codes.tolist() == [3, 7]
        assert packets.tolist() == [1, 2]
        codes, packets = aggregate_codes(np.array([], dtype=np.int64))
        assert codes.size == packets.size == 0


# ----------------------------------------------------------------------
# Deterministic ranking & eviction API
# ----------------------------------------------------------------------
class TestDeterministicRanking:
    def test_ties_break_by_flow_key_everywhere(self):
        # Three equal flows (same packets): the oracle's bins,
        # which the engine's are compared with, rank by key order, not
        # insertion order.
        five_tuples = sorted(_flow_universe(3, 9), key=flow_key_order, reverse=True)
        table = ObjectFlowTable(100.0)
        for ft in five_tuples:  # insert in *descending* key order
            table.observe(Packet(1.0, ft, 500))
        (bin_,) = table.flush()
        keys = [flow.key for flow in bin_.flows]
        assert keys == sorted(keys, key=flow_key_order)
        assert [flow.key for flow in bin_.top(3)] == keys

    def test_classifier_export_sorted_is_deterministic(self):
        five_tuples = sorted(_flow_universe(4, 11), key=flow_key_order, reverse=True)
        classifier = FlowClassifier()
        for ft in five_tuples:
            classifier.observe(Packet(0.0, ft, 500))
        keys = [flow.key for flow in classifier.export_sorted()]
        assert keys == sorted(keys, key=flow_key_order)


class TestClassifierEviction:
    def test_evict_smallest_matches_naive_min(self):
        rng = np.random.default_rng(13)
        five_tuples = _flow_universe(12, 13)
        classifier = FlowClassifier()
        for _ in range(300):
            ft = five_tuples[int(rng.integers(0, 12))]
            classifier.observe(Packet(float(rng.uniform(0, 10)), ft, 500))
            if classifier.num_flows > 6:
                expected = min(
                    classifier.export(),
                    key=lambda flow: (flow.packets, flow_key_order(flow.key)),
                )
                evicted = classifier.evict_smallest()
                assert (evicted.key, evicted.packets) == (expected.key, expected.packets)

    def test_evict_from_empty_classifier_raises(self):
        with pytest.raises(ValueError):
            FlowClassifier().evict_smallest()


class TestClassifierObserveBatch:
    def test_batch_matches_per_packet(self):
        five_tuples = _flow_universe(6, 17)
        timestamps, flow_ids = _stream(200, 6, 30.0, 18)
        one_by_one = FlowClassifier()
        for ts, fid in zip(timestamps, flow_ids):
            one_by_one.observe(Packet(float(ts), five_tuples[int(fid)]))
        batched = FlowClassifier()
        batched.observe_batch(PacketBatch(timestamps, flow_ids), five_tuples)
        assert batched.export_sorted() == one_by_one.export_sorted()
        assert batched.packets_seen == one_by_one.packets_seen


# ----------------------------------------------------------------------
# max_flows is an integer of at least 1 at every entry point
# ----------------------------------------------------------------------
#: Every entry point that takes ``max_flows``, as a call of ``max_flows``
#: alone; ``repro run --monitor`` is checked through its exit status.
MAX_FLOWS_ENTRY_POINTS = {
    "FlowAccountingEngine": lambda bound: FlowAccountingEngine(10.0, max_flows=bound),
    "run_stream": lambda bound: run_stream(
        iter([]), np.zeros(1, dtype=np.int64), [], 60.0, 5, max_flows=bound
    ),
    "Pipeline.with_monitor": lambda bound: Pipeline().with_monitor(bound),
    "Pipeline.from_spec": lambda bound: Pipeline.from_spec(max_flows=bound),
    "RunSpec": lambda bound: RunSpec(samplers=("bernoulli:rate=0.1",), max_flows=bound),
    "SweepGrid": lambda bound: SweepGrid(max_flows=bound),
    "repro run --monitor": None,
}
FAST_RUN = ["run", "--trace", "sprint", "--duration", "5", "--scale", "0.001"]


@pytest.mark.parametrize("entry_point", list(MAX_FLOWS_ENTRY_POINTS))
@pytest.mark.parametrize(
    ("max_flows", "error"),
    [(0, ValueError), (-1, ValueError), (2.5, TypeError), (np.float64(3.0), TypeError)],
    ids=["zero", "negative", "fraction", "float-integral"],
)
def test_max_flows_must_be_a_positive_integer(entry_point, max_flows, error, capsys):
    """2.5 no longer runs a 2-flow table, and 0 or -1 never runs at all."""
    message = "max_flows must be " + ("at least 1" if error is ValueError else "an integer")
    if entry_point == "repro run --monitor":
        assert main(FAST_RUN + ["--monitor", f"max_flows={max_flows}"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: " + message)
        assert "Traceback" not in err
    else:
        with pytest.raises(error, match=message):
            MAX_FLOWS_ENTRY_POINTS[entry_point](max_flows)


def test_run_stream_validates_the_group_map():
    """The group map must cover every flow id of the stream, with ids of at least 0."""
    chunk = PacketBatch([0.0, 1.0], [0, 5])
    with pytest.raises(ValueError, match="too short"):
        run_stream(iter([chunk]), np.arange(3), [], 10.0, 5)
    with pytest.raises(ValueError, match="must be non-negative"):
        run_stream(iter([chunk]), np.array([0, 1, 2, 3, -4, 5]), [], 10.0, 5)


def test_run_stream_rejects_non_integer_group_ids():
    """Group ids 0.2, 0.7 and 1.5 no longer truncate three flows into two."""
    chunk = PacketBatch([0.0, 1.0, 2.0], [0, 1, 2])
    with pytest.raises(TypeError, match="flow group identifiers must be integers"):
        run_stream(iter([chunk]), np.array([0.2, 0.7, 1.5]), [], 10.0, 5)
    outcome = run_stream(iter([chunk]), np.array([0, 1, 2]), [], 10.0, 5)
    assert outcome.flows_per_bin == 3.0


#: Every entry point that takes ``bin_duration``, as a call of it alone;
#: the CLI rows are in tests/test_cli_errors.py.
BIN_DURATION_ENTRY_POINTS = {
    "FlowAccountingEngine": lambda seconds: FlowAccountingEngine(seconds),
    "run_stream": lambda seconds: run_stream(
        iter([]), np.zeros(1, dtype=np.int64), [], seconds, 5
    ),
    "Pipeline.with_bin_duration": lambda seconds: Pipeline().with_bin_duration(seconds),
    "Pipeline.from_spec": lambda seconds: Pipeline.from_spec(bin_duration=seconds),
    "RunSpec": lambda seconds: RunSpec(samplers=("bernoulli:rate=0.1",), bin_duration=seconds),
    "SweepGrid": lambda seconds: SweepGrid(bin_duration=seconds),
}


@pytest.mark.parametrize("entry_point", list(BIN_DURATION_ENTRY_POINTS))
@pytest.mark.parametrize("seconds", [0.0, -1.0, np.inf, np.nan])
def test_bin_duration_must_be_positive_and_finite(entry_point, seconds):
    """An infinite or NaN bin would start at 0 x inf = NaN; no run gets that far."""
    with pytest.raises(ValueError, match="bin_duration must be positive and finite"):
        BIN_DURATION_ENTRY_POINTS[entry_point](seconds)


@pytest.mark.parametrize(
    "configure",
    [lambda pipeline: pipeline.with_runs(2.7), lambda pipeline: pipeline.streaming(1000.9)],
    ids=["with_runs", "streaming"],
)
def test_runs_and_chunk_packets_must_be_integers(configure):
    """2.7 runs no longer runs 2, and 1000.9 packets no longer cut 1,000-packet chunks."""
    with pytest.raises(TypeError):
        configure(Pipeline())


def test_integer_max_flows_keep_their_store_key():
    """A NumPy integer bound is accepted and keys the run like a plain int;
    a checked bin duration keys it like the float it equals."""
    spec = RunSpec(samplers=("bernoulli:rate=0.1",), max_flows=np.int64(200))
    assert spec.canonical().max_flows == 200
    assert store_key(spec) == store_key(RunSpec(samplers=("bernoulli:rate=0.1",), max_flows=200))
    assert Pipeline().with_monitor(np.int64(7))._monitor_max_flows == 7
    for seconds in (60, np.float32(60), np.int64(60)):
        spec = RunSpec(samplers=("bernoulli:rate=0.1",), bin_duration=seconds)
        assert store_key(spec) == store_key(RunSpec(samplers=("bernoulli:rate=0.1",)))
