"""Reference monitor: per-packet classification into Python flow records.

:class:`FlowClassifier` keeps one :class:`~repro.flows.records.FlowRecord`
per flow key and evicts through a lazy min-heap; :class:`ObjectFlowTable`
bins a :class:`~repro.flows.packets.Packet` stream with it, one packet
at a time.  This is the object-level monitor the columnar
:class:`~repro.flows.accounting.FlowAccountingEngine` and
:class:`~repro.flows.table.BinnedFlowTable` must match bit for bit:
same bins, rankings and eviction counts.

The oracle shares no eviction code with the library: its heap takes a
fresh entry on every record update and is rebuilt from the live records
when it outgrows them (:data:`HEAP_SLACK`, :data:`HEAP_GROWTH`), where
the library keeps exactly one entry per tracked flow.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Sequence
from itertools import count

from repro.flows.groupby import aggregate_codes
from repro.flows.keys import FiveTuple, FiveTupleKeyPolicy, FlowKeyPolicy, flow_key_order
from repro.flows.packets import Packet, PacketBatch
from repro.flows.records import FlowRecord, FlowSummary, ranking_sort_key
from repro.flows.table import FlowBin

#: Rebuild the lazy eviction heap when it holds more than
#: ``HEAP_SLACK + HEAP_GROWTH x`` live records (stale-entry cleanup).
HEAP_SLACK = 64
HEAP_GROWTH = 8


class FlowClassifier:
    """Classify packets into flows under a given flow definition.

    Parameters
    ----------
    key_policy:
        Flow definition (5-tuple by default).

    Examples
    --------
    >>> from repro.flows.keys import FiveTuple
    >>> classifier = FlowClassifier()
    >>> ft = FiveTuple.from_strings("10.0.0.1", "10.0.0.2", 1234, 80)
    >>> classifier.observe(Packet(0.0, ft))
    >>> classifier.observe(Packet(0.1, ft))
    >>> [flow.packets for flow in classifier.export()]
    [2]
    """

    def __init__(self, key_policy: FlowKeyPolicy | None = None) -> None:
        self.key_policy = key_policy if key_policy is not None else FiveTupleKeyPolicy()
        self._records: dict[object, FlowRecord] = {}
        self._packets_seen = 0
        # Lazy eviction heap: None until evict_smallest is first used,
        # then kept in sync by every record update (stale entries are
        # discarded on pop).
        self._heap: list | None = None
        self._heap_seq = count()

    @property
    def num_flows(self) -> int:
        """Number of distinct flows observed so far."""
        return len(self._records)

    @property
    def packets_seen(self) -> int:
        """Total number of packets classified so far."""
        return self._packets_seen

    def tracks(self, key: object) -> bool:
        """Whether a flow record currently exists for ``key``."""
        return key in self._records

    def _record_for(self, key: object) -> FlowRecord:
        record = self._records.get(key)
        if record is None:
            record = FlowRecord(key=key)
            self._records[key] = record
        return record

    def _heap_push(self, key: object, record: FlowRecord) -> None:
        heapq.heappush(
            self._heap, (record.packets, flow_key_order(key), next(self._heap_seq), key)
        )

    def observe(self, packet: Packet) -> None:
        """Account one packet."""
        key = self.key_policy.key_of(packet.five_tuple)
        record = self._record_for(key)
        record.update(packet.timestamp, packet.size_bytes)
        if self._heap is not None:
            self._heap_push(key, record)
        self._packets_seen += 1

    def observe_many(self, packets: Iterable[Packet]) -> None:
        """Account a stream of packets."""
        for packet in packets:
            self.observe(packet)

    def observe_batch(self, batch: PacketBatch, five_tuples: Sequence[FiveTuple]) -> None:
        """Account a columnar chunk: group by flow id, then update each record once."""
        if len(batch) == 0:
            return
        if int(batch.flow_ids.max()) >= len(five_tuples):
            raise ValueError("five_tuples is too short for the flow ids present in the batch")
        flow_ids, packets, byte_sums, first, last = aggregate_codes(
            batch.flow_ids, batch.timestamps, batch.sizes_bytes
        )
        for position in range(flow_ids.size):
            key = self.key_policy.key_of(five_tuples[int(flow_ids[position])])
            record = self._record_for(key)
            record.merge(
                int(packets[position]),
                int(byte_sums[position]),
                float(first[position]),
                float(last[position]),
            )
            if self._heap is not None:
                self._heap_push(key, record)
        self._packets_seen += len(batch)

    def evict_smallest(self) -> FlowSummary:
        """Remove the smallest tracked flow and return its final summary.

        The smallest flow has the fewest packets; ties break by
        :func:`~repro.flows.keys.flow_key_order` of the flow key.
        """
        if not self._records:
            raise ValueError("cannot evict from an empty classifier")
        if self._heap is None:
            self._heap = []
            for key, record in self._records.items():
                self._heap_push(key, record)
        while self._heap:
            packets, _, _, key = heapq.heappop(self._heap)
            record = self._records.get(key)
            if record is not None and record.packets == packets:
                summary = record.freeze()
                del self._records[key]
                if len(self._heap) > HEAP_SLACK + HEAP_GROWTH * len(self._records):
                    self._heap = []
                    for live_key, live_record in self._records.items():
                        self._heap_push(live_key, live_record)
                return summary
        raise AssertionError("eviction heap lost track of live records")

    def export(self) -> list[FlowSummary]:
        """Summaries of all flows observed so far (unsorted)."""
        return [record.freeze() for record in self._records.values()]

    def export_sorted(self) -> list[FlowSummary]:
        """Summaries in the monitor's ranking order (see ``ranking_sort_key``)."""
        return sorted(self.export(), key=ranking_sort_key)

    def top(self, count: int) -> list[FlowSummary]:
        """The ``count`` largest flows by packet count."""
        if count < 1:
            raise ValueError(f"count must be at least 1, got {count}")
        return self.export_sorted()[:count]

    def reset(self) -> None:
        """Clear all flow state (end of a measurement interval)."""
        self._records.clear()
        self._packets_seen = 0
        if self._heap is not None:
            self._heap = []


class ObjectFlowTable:
    """Binned flow table over :class:`FlowClassifier`, one packet at a time.

    Same surface as :class:`repro.flows.table.BinnedFlowTable`: a new
    flow arriving at a full table (``max_flows``) evicts the smallest
    tracked flow, and each non-empty bin is reported on close.
    """

    def __init__(
        self,
        bin_duration: float,
        key_policy: FlowKeyPolicy | None = None,
        max_flows: int | None = None,
    ) -> None:
        self.bin_duration = float(bin_duration)
        self.max_flows = max_flows
        self._classifier = FlowClassifier(key_policy)
        self._current_bin_index = 0
        self._completed: list[FlowBin] = []
        self.evictions = 0

    @property
    def completed_bins(self) -> list[FlowBin]:
        """Bins that have been closed so far."""
        return list(self._completed)

    def observe(self, packet: Packet) -> None:
        """Account one packet, closing bins as time advances."""
        bin_index = int(packet.timestamp // self.bin_duration)
        if bin_index < self._current_bin_index:
            raise ValueError("packets must be observed in non-decreasing time order")
        while bin_index > self._current_bin_index:
            self._close_bin(self._current_bin_index)
            self._current_bin_index += 1
        key = self._classifier.key_policy.key_of(packet.five_tuple)
        if (
            not self._classifier.tracks(key)
            and self.max_flows is not None
            and self._classifier.num_flows >= self.max_flows
        ):
            self._classifier.evict_smallest()
            self.evictions += 1
        self._classifier.observe(packet)

    def flush(self) -> list[FlowBin]:
        """Close the current bin (if non-empty) and return all completed bins."""
        if self._classifier.num_flows > 0:
            self._close_bin(self._current_bin_index)
            self._current_bin_index += 1
        return list(self._completed)

    def _close_bin(self, bin_index: int) -> None:
        flows = tuple(self._classifier.export_sorted())
        if not flows:
            # Empty measurement intervals produce no report.
            return
        self._completed.append(
            FlowBin(
                index=bin_index,
                start_time=bin_index * self.bin_duration,
                end_time=(bin_index + 1) * self.bin_duration,
                flows=flows,
            )
        )
        self._classifier.reset()
