"""Tests for packet records, flow records and the object-level flow classifier."""

from __future__ import annotations

import numpy as np
import pytest
from oracles.keys import FiveTuple
from oracles.objectpath import FlowClassifier, FlowRecord, Packet

from repro.flows.keys import DestinationPrefixKeyPolicy
from repro.flows.packets import DEFAULT_PACKET_SIZE_BYTES, PacketBatch


def make_packet(ts: float, dst: str = "10.0.0.1", sport: int = 1000) -> Packet:
    return Packet(ts, FiveTuple.from_strings("192.168.0.1", dst, sport, 80))


class TestPacket:
    def test_defaults_to_500_byte_packets(self):
        packet = make_packet(0.0)
        assert packet.size_bytes == DEFAULT_PACKET_SIZE_BYTES == 500

    def test_rejects_negative_timestamp(self):
        with pytest.raises(ValueError):
            make_packet(-1.0)

    def test_rejects_non_positive_size(self, sample_five_tuple):
        with pytest.raises(ValueError):
            Packet(0.0, sample_five_tuple, size_bytes=0)


class TestPacketBatch:
    def test_basic_properties(self):
        batch = PacketBatch(np.array([0.0, 1.0, 2.0]), np.array([0, 1, 0]))
        assert len(batch) == 3
        assert batch.num_flows == 2
        assert batch.duration == pytest.approx(2.0)

    def test_rejects_unsorted_timestamps(self):
        with pytest.raises(ValueError):
            PacketBatch(np.array([1.0, 0.5]), np.array([0, 1]))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            PacketBatch(np.array([0.0, 1.0]), np.array([0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_timestamps(self, bad):
        with pytest.raises(ValueError, match="timestamps must be finite"):
            PacketBatch(np.array([0.0, 1.0, bad]), np.array([0, 1, 0]))

    def test_select_and_time_slice(self):
        batch = PacketBatch(np.array([0.0, 1.0, 2.0, 3.0]), np.array([0, 1, 0, 1]))
        kept = batch.select(np.array([True, False, True, False]))
        assert len(kept) == 2
        window = batch.time_slice(1.0, 3.0)
        assert len(window) == 2
        np.testing.assert_allclose(window.timestamps, [1.0, 2.0])

    def test_flow_packet_counts(self):
        batch = PacketBatch(np.array([0.0, 1.0, 2.0]), np.array([7, 7, 3]))
        assert batch.flow_packet_counts() == {7: 2, 3: 1}

    def test_empty_batch(self):
        batch = PacketBatch(np.empty(0), np.empty(0, dtype=np.int64))
        assert len(batch) == 0
        assert batch.duration == 0.0
        assert batch.flow_packet_counts() == {}


class TestFlowRecord:
    def test_update_accumulates(self):
        record = FlowRecord(key="k")
        record.update()
        record.update()
        record.merge(3)
        assert record.packets == 5
        with pytest.raises(ValueError):
            record.merge(0)

    def test_freeze_requires_packets(self):
        with pytest.raises(ValueError):
            FlowRecord(key="k").freeze()

    def test_frozen_summary_properties(self):
        record = FlowRecord(key="k")
        record.update()
        record.update()
        summary = record.freeze()
        assert (summary.key, summary.packets) == ("k", 2)
        with pytest.raises(AttributeError):
            summary.packets = 3


class TestFlowClassifier:
    def test_classifies_by_five_tuple(self):
        classifier = FlowClassifier()
        classifier.observe_many([make_packet(0.0), make_packet(0.1), make_packet(0.2, sport=2000)])
        assert classifier.num_flows == 2
        assert classifier.packets_seen == 3

    def test_classifies_by_prefix(self):
        classifier = FlowClassifier(DestinationPrefixKeyPolicy(24))
        classifier.observe_many(
            [make_packet(0.0, dst="10.0.0.1"), make_packet(0.1, dst="10.0.0.200"), make_packet(0.2, dst="10.0.1.1")]
        )
        assert classifier.num_flows == 2

    def test_export_sorted_by_size(self):
        classifier = FlowClassifier()
        for _ in range(5):
            classifier.observe(make_packet(0.0, sport=1000))
        classifier.observe(make_packet(0.0, sport=2000))
        flows = classifier.export_sorted()
        assert flows[0].packets == 5
        assert flows[1].packets == 1

    def test_top_rejects_bad_count(self):
        with pytest.raises(ValueError):
            FlowClassifier().top(0)

    def test_reset_clears_state(self):
        classifier = FlowClassifier()
        classifier.observe(make_packet(0.0))
        classifier.reset()
        assert classifier.num_flows == 0
        assert classifier.packets_seen == 0
