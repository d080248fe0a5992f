"""Columnar flow-accounting engine: equivalence with the object path.

The load-bearing guarantee of :mod:`repro.flows.accounting` is that the
columnar engine is *bit-identical* to the per-packet object-level
monitor (the oracle in ``tests/oracles/objectpath.py``) — same bins,
same rankings, same eviction counts — for any packet stream, any
chunking, with and without a ``max_flows`` bound.  The
property-based tests here generate adversarial streams (tiny key
spaces, colliding counts, binding memory bounds) and assert exactly
that.  The file also checks the bounded table's one-entry-per-flow
eviction heap, and that ``max_flows`` is an integer of at least 1 at
every entry point.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.objectpath import FlowClassifier, ObjectFlowTable

from repro.cli import main
from repro.flows.accounting import (
    BinAccount,
    FlowAccountingEngine,
    _BoundedBin,
    aggregate_codes,
    bin_segments,
)
from repro.flows.keys import (
    DestinationPrefixKeyPolicy,
    FiveTuple,
    FiveTupleKeyPolicy,
    flow_key_order,
)
from repro.flows.packets import Packet, PacketBatch
from repro.flows.records import FlowSummary, ranking_sort_key
from repro.flows.table import BinnedFlowTable
from repro.pipeline import Pipeline
from repro.pipeline.executor import run_stream
from repro.store import RunSpec, store_key
from repro.sweep import SweepGrid


# ----------------------------------------------------------------------
# Stream generation helpers
# ----------------------------------------------------------------------
def _flow_universe(num_flows: int, seed: int) -> list[FiveTuple]:
    rng = np.random.default_rng(seed)
    return [
        FiveTuple(
            src_ip=int(rng.integers(0, 2**32)),
            dst_ip=int(rng.integers(0, 2**32)),
            src_port=int(rng.integers(0, 2**16)),
            dst_port=int(rng.integers(0, 2**16)),
            protocol=int(rng.choice([6, 17])),
        )
        for _ in range(num_flows)
    ]


def _stream(num_packets: int, num_flows: int, time_span: float, seed: int):
    rng = np.random.default_rng(seed)
    timestamps = np.sort(rng.uniform(0.0, time_span, num_packets))
    flow_ids = rng.integers(0, num_flows, num_packets).astype(np.int64)
    sizes = rng.integers(40, 1500, num_packets).astype(np.int64)
    return timestamps, flow_ids, sizes


def _columns(five_tuples: list[FiveTuple]):
    return (
        np.array([ft.src_ip for ft in five_tuples], dtype=np.uint32),
        np.array([ft.dst_ip for ft in five_tuples], dtype=np.uint32),
        np.array([ft.src_port for ft in five_tuples], dtype=np.uint16),
        np.array([ft.dst_port for ft in five_tuples], dtype=np.uint16),
        np.array([ft.protocol for ft in five_tuples], dtype=np.uint8),
    )


def _run_object_table(timestamps, flow_ids, sizes, five_tuples, policy, max_flows):
    table = ObjectFlowTable(10.0, key_policy=policy, max_flows=max_flows)
    for ts, fid, size in zip(timestamps, flow_ids, sizes):
        table.observe(Packet(float(ts), five_tuples[int(fid)], int(size)))
    return table.flush(), table.evictions


def _accounts_to_bins(accounts: list[BinAccount], encoder) -> list:
    from repro.flows.table import FlowBin

    bins = []
    for account in accounts:
        flows = sorted(
            (
                FlowSummary(encoder.decode(int(c)), int(p), int(b), float(f), float(l))
                for c, p, b, f, l in zip(
                    account.codes,
                    account.packets,
                    account.bytes,
                    account.first_seen,
                    account.last_seen,
                )
            ),
            key=ranking_sort_key,
        )
        bins.append(
            FlowBin(account.index, account.start_time, account.end_time, tuple(flows))
        )
    return bins


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
        """BinnedFlowTable over a packet stream == engine over the same
        stream's chunks: identical bins and eviction counts for any
        chunk size, with and without ``max_flows``."""
        policy = DestinationPrefixKeyPolicy(12) if prefix else FiveTupleKeyPolicy()
        five_tuples = _flow_universe(num_flows, seed)
        timestamps, flow_ids, sizes = _stream(num_packets, num_flows, 45.0, seed + 1)

        reference_bins, reference_evictions = _run_object_table(
            timestamps, flow_ids, sizes, five_tuples, policy, max_flows
        )

        encoder = policy.make_encoder()
        code_of_flow = policy.keys_of_batch(*_columns(five_tuples), encoder=encoder)
        engine = FlowAccountingEngine(10.0, max_flows=max_flows, order_key=encoder.order_key)
        for lo in range(0, num_packets, chunk):
            batch = PacketBatch(
                timestamps[lo : lo + chunk],
                flow_ids[lo : lo + chunk],
                sizes[lo : lo + chunk],
            )
            engine.observe_batch(batch, code_of_flow)
        accounts = engine.flush()

        assert _accounts_to_bins(accounts, encoder) == reference_bins
        assert engine.evictions == reference_evictions

    @given(
        seed=st.integers(0, 10_000),
        max_flows=st.one_of(st.none(), st.integers(1, 6)),
    )
    @settings(max_examples=25, deadline=None)
    def test_columnar_wrapper_matches_object_backend(self, seed, max_flows):
        """BinnedFlowTable is bit-identical to the object-level table,
        including mid-stream accessors."""
        five_tuples = _flow_universe(10, seed)
        timestamps, flow_ids, sizes = _stream(300, 10, 35.0, seed + 1)
        tables = {
            "columnar": BinnedFlowTable(10.0, max_flows=max_flows),
            "object": ObjectFlowTable(10.0, max_flows=max_flows),
        }
        for position, (ts, fid, size) in enumerate(zip(timestamps, flow_ids, sizes)):
            packet = Packet(float(ts), five_tuples[int(fid)], int(size))
            for table in tables.values():
                table.observe(packet)
            if position == 150:
                # Mid-stream accessors must agree too (and must not
                # disturb the stream).
                assert (
                    tables["columnar"].completed_bins == tables["object"].completed_bins
                )
                assert tables["columnar"].evictions == tables["object"].evictions
        assert tables["columnar"].flush() == tables["object"].flush()
        assert tables["columnar"].evictions == tables["object"].evictions

    @given(
        seed=st.integers(0, 10_000),
        num_packets=st.integers(1_500, 2_500),
        num_flows=st.integers(9, 60),
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
        policy = DestinationPrefixKeyPolicy(12) if prefix else FiveTupleKeyPolicy()
        five_tuples = _flow_universe(num_flows, seed)
        timestamps, flow_ids, _ = _stream(num_packets, num_flows, 45.0, seed + 1)
        rng = np.random.default_rng(seed + 2)
        # Bin indices stay non-decreasing; the order inside a bin is random.
        timestamps = timestamps[np.lexsort((rng.random(num_packets), timestamps // 10.0))]
        sizes = rng.choice(np.array([40, 1500]), num_packets)

        reference_bins, reference_evictions = _run_object_table(
            timestamps, flow_ids, sizes, five_tuples, policy, max_flows
        )

        encoder = policy.make_encoder()
        codes = policy.keys_of_batch(*_columns(five_tuples), encoder=encoder)[flow_ids]
        engine = FlowAccountingEngine(10.0, max_flows=max_flows, order_key=encoder.order_key)
        for lo in range(0, num_packets, chunk):
            engine.observe_chunk(
                timestamps[lo : lo + chunk], codes[lo : lo + chunk], sizes[lo : lo + chunk]
            )
        accounts = engine.flush()

        assert reference_evictions > 0
        assert _accounts_to_bins(accounts, encoder) == reference_bins
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
        table = _BoundedBin(max_flows, lambda code: code)
        for size in segments:
            codes = rng.integers(0, 2 * max_flows, size)
            table.apply(rng.uniform(0.0, 10.0, size), codes, np.full(size, 500))
            entries = {code: count for count, _, code in table.heap}
            assert len(table.heap) == len(table.table) == len(entries)
            assert entries.keys() == table.table.keys()
            assert all(count <= table.table[code][0] for code, count in entries.items())
            if table.table and rng.random() < 0.3:
                expected = min(table.table, key=lambda code: (table.table[code][0], code))
                assert table.evict_smallest() == expected

    def test_engine_is_chunk_size_invariant(self):
        timestamps, flow_ids, sizes = _stream(500, 12, 40.0, 7)
        outputs = []
        for chunk in (1, 7, 100, 500):
            engine = FlowAccountingEngine(10.0, max_flows=5)
            for lo in range(0, 500, chunk):
                engine.observe_chunk(
                    timestamps[lo : lo + chunk],
                    flow_ids[lo : lo + chunk],
                    sizes[lo : lo + chunk],
                )
            accounts = engine.flush()
            outputs.append(
                (
                    engine.evictions,
                    [
                        (a.index, a.codes.tolist(), a.packets.tolist(), a.bytes.tolist())
                        for a in accounts
                    ],
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
        engine.observe_chunk([15.0], [1], [500])
        with pytest.raises(ValueError):
            engine.observe_chunk([5.0], [1], [500])
        with pytest.raises(ValueError):
            engine.observe_chunk([25.0, 12.0], [1, 1], [500, 500])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_observe_chunk_rejects_non_finite_timestamps(self, bad):
        engine = FlowAccountingEngine(10.0)
        with pytest.raises(ValueError, match="timestamps must be finite"):
            engine.observe_chunk([0.0, bad], [1, 2], [500, 500])
        bounded = FlowAccountingEngine(10.0, max_flows=4)
        with pytest.raises(ValueError, match="timestamps must be finite"):
            bounded.observe_chunk([bad], [1], [500])

    def test_keep_masks_count_each_stream_per_flow(self):
        engine = FlowAccountingEngine(10.0)
        timestamps = np.array([0.0, 1.0, 2.0, 12.0, 13.0])
        codes = np.array([9, 4, 9, 4, 4], dtype=np.int64)
        keep = np.array([[1, 1, 0, 1, 0], [0, 0, 0, 0, 0]], dtype=bool)
        engine.observe_sorted_chunk(timestamps, codes, np.full(5, 500), keep_masks=keep)
        first, second = engine.flush()
        assert first.codes.tolist() == [4, 9]
        assert first.sampled.tolist() == [[1, 1], [0, 0]]
        assert second.codes.tolist() == [4]
        assert second.sampled.tolist() == [[1], [0]]

    def test_keep_masks_need_an_unbounded_engine(self):
        keep = np.ones((1, 2), dtype=bool)
        bounded = FlowAccountingEngine(10.0, max_flows=4)
        with pytest.raises(ValueError, match="unbounded"):
            bounded.observe_sorted_chunk(
                np.array([0.0, 1.0]), np.array([1, 2]), np.full(2, 500), keep_masks=keep
            )
        engine = FlowAccountingEngine(10.0)
        with pytest.raises(ValueError, match="one flag per packet"):
            engine.observe_sorted_chunk(
                np.array([0.0, 1.0, 2.0]), np.array([1, 2, 3]), np.full(3, 500), keep_masks=keep
            )

    def test_observe_chunk_reports_no_sampled_counts(self):
        engine = FlowAccountingEngine(10.0)
        engine.observe_chunk([0.0, 1.0], [1, 2], [500, 500])
        (account,) = engine.flush()
        assert account.sampled is None

    def test_empty_bins_are_skipped(self):
        engine = FlowAccountingEngine(1.0)
        engine.observe_chunk([0.5, 5.5], [1, 2], [500, 500])
        assert [account.index for account in engine.flush()] == [0, 5]

    def test_bounded_eviction_restarts_counts(self):
        engine = FlowAccountingEngine(100.0, max_flows=1)
        # Flow 1 accumulates 3 packets, then flow 2 evicts it; flow 1
        # returns and evicts flow 2, restarting from zero.
        engine.observe_chunk([0.0, 1.0, 2.0, 3.0, 4.0], [1, 1, 1, 2, 1], [500] * 5)
        assert engine.evictions == 2
        (account,) = engine.flush()
        assert account.codes.tolist() == [1]
        assert account.packets.tolist() == [1]

    def test_close_until_closes_lagging_bin(self):
        engine = FlowAccountingEngine(10.0)
        engine.observe_chunk([0.0], [1], [500])
        engine.close_until(3)
        assert [account.index for account in engine.drain_completed()] == [0]
        assert engine.current_bin_index == 3

    def test_evict_smallest_requires_bound(self):
        engine = FlowAccountingEngine(10.0)
        with pytest.raises(ValueError):
            engine.evict_smallest()

    def test_observe_batch_validates_code_map(self):
        engine = FlowAccountingEngine(10.0)
        batch = PacketBatch([0.0, 1.0], [0, 5], [500, 500])
        with pytest.raises(ValueError):
            engine.observe_batch(batch, np.arange(3))

    def test_counts_for_alignment(self):
        engine = FlowAccountingEngine(10.0)
        engine.observe_chunk([0.0, 1.0, 2.0], [4, 9, 4], [500] * 3)
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
        codes, packets, byte_sums, first, last = aggregate_codes(
            np.array([7, 3, 7]), np.array([1.0, 2.0, 0.5]), np.array([100, 200, 300])
        )
        assert codes.tolist() == [3, 7]
        assert packets.tolist() == [1, 2]
        assert byte_sums.tolist() == [200, 400]
        assert first.tolist() == [2.0, 0.5]
        assert last.tolist() == [2.0, 1.0]


# ----------------------------------------------------------------------
# Key codes
# ----------------------------------------------------------------------
class TestKeyEncoders:
    def test_five_tuple_codes_merge_duplicates_and_decode(self):
        policy = FiveTupleKeyPolicy()
        encoder = policy.make_encoder()
        five_tuples = _flow_universe(5, 3)
        five_tuples.append(five_tuples[0])  # duplicate flow
        codes = policy.keys_of_batch(*_columns(five_tuples), encoder=encoder)
        assert codes[-1] == codes[0]
        assert len(set(codes.tolist())) == 5
        for ft, code in zip(five_tuples, codes):
            assert encoder.decode(int(code)) == ft

    def test_five_tuple_codes_stable_across_chunks(self):
        policy = FiveTupleKeyPolicy()
        encoder = policy.make_encoder()
        five_tuples = _flow_universe(8, 4)
        first = policy.keys_of_batch(*_columns(five_tuples), encoder=encoder)
        second = policy.keys_of_batch(*_columns(five_tuples), encoder=encoder)
        assert first.tolist() == second.tolist()

    def test_prefix_codes_mask_and_decode(self):
        policy = DestinationPrefixKeyPolicy(24)
        encoder = policy.make_encoder()
        five_tuples = [
            FiveTuple(1, int("0xC0A81101", 16), 1, 1, 6),  # 192.168.17.1
            FiveTuple(2, int("0xC0A811FE", 16), 2, 2, 6),  # 192.168.17.254
            FiveTuple(3, int("0xC0A81201", 16), 3, 3, 6),  # 192.168.18.1
        ]
        codes = policy.keys_of_batch(*_columns(five_tuples), encoder=encoder)
        assert codes[0] == codes[1] != codes[2]
        assert encoder.decode(int(codes[0])) == policy.key_of(five_tuples[0])

    def test_order_key_matches_flow_key_order(self):
        policy = FiveTupleKeyPolicy()
        encoder = policy.make_encoder()
        five_tuples = _flow_universe(20, 5)
        codes = [encoder.encode_key(ft) for ft in five_tuples]
        by_code_order = sorted(codes, key=encoder.order_key)
        by_key_order = sorted(codes, key=lambda c: flow_key_order(encoder.decode(c)))
        assert by_code_order == by_key_order


# ----------------------------------------------------------------------
# Deterministic ranking & eviction API
# ----------------------------------------------------------------------
class TestDeterministicRanking:
    def test_ties_break_by_flow_key_everywhere(self):
        # Three equal flows (same packets, same bytes): ranking must be
        # by key order, not insertion order.
        five_tuples = sorted(_flow_universe(3, 9), key=flow_key_order, reverse=True)
        table = BinnedFlowTable(100.0)
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
        timestamps, flow_ids, sizes = _stream(200, 6, 30.0, 18)
        one_by_one = FlowClassifier()
        for ts, fid, size in zip(timestamps, flow_ids, sizes):
            one_by_one.observe(Packet(float(ts), five_tuples[int(fid)], int(size)))
        batched = FlowClassifier()
        batched.observe_batch(PacketBatch(timestamps, flow_ids, sizes), five_tuples)
        assert batched.export_sorted() == one_by_one.export_sorted()
        assert batched.packets_seen == one_by_one.packets_seen


# ----------------------------------------------------------------------
# max_flows is an integer of at least 1 at every entry point
# ----------------------------------------------------------------------
#: Every entry point that takes ``max_flows``, as a call of ``max_flows``
#: alone; ``repro run --monitor`` is checked through its exit status.
MAX_FLOWS_ENTRY_POINTS = {
    "FlowAccountingEngine": lambda bound: FlowAccountingEngine(10.0, max_flows=bound),
    "BinnedFlowTable": lambda bound: BinnedFlowTable(10.0, max_flows=bound),
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


def test_integer_max_flows_keep_their_store_key():
    """A NumPy integer bound is accepted and keys the run like a plain int."""
    spec = RunSpec(samplers=("bernoulli:rate=0.1",), max_flows=np.int64(200))
    assert spec.canonical().max_flows == 200
    assert store_key(spec) == store_key(RunSpec(samplers=("bernoulli:rate=0.1",), max_flows=200))
    assert Pipeline().with_monitor(np.int64(7))._monitor_max_flows == 7
