"""Columnar flow-accounting engine: equivalence with the object path.

The load-bearing guarantee of :mod:`repro.flows.accounting` is that the
columnar engine is *bit-identical* to the per-packet object-level
monitor (the oracle in ``tests/oracles/objectpath.py``) — same bins,
same rankings, same eviction counts — for any packet stream, any
chunking, with and without a ``max_flows`` bound.  The
property-based tests here generate adversarial streams (tiny key
spaces, colliding counts, binding memory bounds) and assert exactly
that.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.objectpath import FlowClassifier, ObjectFlowTable

from repro.flows.accounting import (
    BinAccount,
    FlowAccountingEngine,
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
