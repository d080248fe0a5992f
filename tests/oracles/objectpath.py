"""Reference monitor: per-packet classification into Python flow records.

:class:`FlowClassifier` keeps one :class:`FlowRecord` per flow key and
evicts through a lazy min-heap; :class:`ObjectFlowTable` bins a
:class:`Packet` stream with it, one packet at a time, into
:class:`FlowBin` reports ranked by :func:`ranking_sort_key`.
This is the object-level monitor the columnar
:class:`~repro.flows.accounting.FlowAccountingEngine` must match bit
for bit: same bins, per-flow packet counts, rankings and eviction
counts.  Like the engine, it keeps one statistic per flow, the packet
count; a packet's size rides along unread.  Packets carry
:class:`~oracles.keys.FiveTuple` objects, classified by
:func:`~oracles.keys.key_of`; :func:`flow_bins` turns the engine's
closed bins into the same reports for the comparison, naming each group
id by its key (:func:`~oracles.keys.keys_by_code`).

The oracle shares no eviction code with the library: its heap takes a
fresh entry on every record update and is rebuilt from the live records
when it outgrows them (:data:`HEAP_SLACK`, :data:`HEAP_GROWTH`), where
the library keeps exactly one entry per tracked flow.
"""

from __future__ import annotations

import heapq
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import count

from oracles.keys import FiveTuple, flow_key_order, key_of

from repro.flows.accounting import BinAccount
from repro.flows.groupby import aggregate_codes
from repro.flows.keys import FiveTupleKeyPolicy, FlowKeyPolicy
from repro.flows.packets import DEFAULT_PACKET_SIZE_BYTES, PacketBatch

#: Rebuild the lazy eviction heap when it holds more than
#: ``HEAP_SLACK + HEAP_GROWTH x`` live records (stale-entry cleanup).
HEAP_SLACK = 64
HEAP_GROWTH = 8


@dataclass(frozen=True, slots=True)
class Packet:
    """A single observed packet: what the object-level monitor observes.

    Attributes
    ----------
    timestamp:
        Arrival time in seconds (relative to the start of the trace).
    five_tuple:
        The packet's 5-tuple.
    size_bytes:
        Layer-3 packet size in bytes.
    """

    timestamp: float
    five_tuple: FiveTuple
    size_bytes: int = DEFAULT_PACKET_SIZE_BYTES

    def __post_init__(self) -> None:
        if self.timestamp < 0:
            raise ValueError(f"timestamp must be non-negative, got {self.timestamp}")
        if self.size_bytes <= 0:
            raise ValueError(f"size_bytes must be positive, got {self.size_bytes}")


@dataclass
class FlowRecord:
    """Mutable per-flow packet counter maintained during classification."""

    key: object
    packets: int = 0

    def update(self) -> None:
        """Account one packet of this flow."""
        self.packets += 1

    def merge(self, packets: int) -> None:
        """Account ``packets`` packets of this flow at once."""
        if packets < 1:
            raise ValueError(f"packets must be at least 1, got {packets}")
        self.packets += int(packets)

    def freeze(self) -> "FlowSummary":
        """Export an immutable summary of the record."""
        if self.packets == 0:
            raise ValueError("cannot freeze a flow record with no packets")
        return FlowSummary(self.key, self.packets)


@dataclass(frozen=True, slots=True)
class FlowSummary:
    """Immutable per-flow packet count for one measurement interval."""

    key: object
    packets: int

    def __post_init__(self) -> None:
        if self.packets < 1:
            raise ValueError("a flow summary must contain at least one packet")


def ranking_sort_key(flow: FlowSummary) -> tuple[object, ...]:
    """The oracle's ranking order: decreasing packets, then
    :func:`~oracles.keys.flow_key_order` of the key, so a bin's order
    never depends on dict insertion order."""
    return (-flow.packets, flow_key_order(flow.key))


@dataclass(frozen=True)
class FlowBin:
    """All flows reported for one measurement interval, in ranking order."""

    index: int
    start_time: float
    end_time: float
    flows: tuple[FlowSummary, ...]

    @property
    def num_flows(self) -> int:
        """Number of flows reported in the bin."""
        return len(self.flows)

    @property
    def total_packets(self) -> int:
        """Total number of packets accounted in the bin."""
        return sum(flow.packets for flow in self.flows)

    def top(self, count: int) -> tuple[FlowSummary, ...]:
        """The ``count`` largest flows of the bin (see :func:`ranking_sort_key`)."""
        return tuple(sorted(self.flows, key=ranking_sort_key)[:count])


def flow_bins(accounts: Iterable[BinAccount], keys: Mapping[int, object]) -> list[FlowBin]:
    """The engine's closed bins as the oracle reports them: codes named by ``keys``, flows ranked.

    ``keys`` maps each group id to its flow key, as
    :func:`~oracles.keys.keys_by_code` returns it.
    """
    bins = []
    for account in accounts:
        flows = [
            FlowSummary(keys[int(code)], int(packets))
            for code, packets in zip(account.codes, account.packets)
        ]
        flows.sort(key=ranking_sort_key)
        bins.append(FlowBin(account.index, account.start_time, account.end_time, tuple(flows)))
    return bins


class FlowClassifier:
    """Classify packets into flows under a given flow definition.

    Parameters
    ----------
    key_policy:
        Flow definition (5-tuple by default).

    Examples
    --------
    >>> from oracles.keys import FiveTuple
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
        key = key_of(self.key_policy, packet.five_tuple)
        record = self._record_for(key)
        record.update()
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
        flow_ids, packets = aggregate_codes(batch.flow_ids)
        for flow_id, count in zip(flow_ids.tolist(), packets.tolist()):
            key = key_of(self.key_policy, five_tuples[flow_id])
            record = self._record_for(key)
            record.merge(count)
            if self._heap is not None:
                self._heap_push(key, record)
        self._packets_seen += len(batch)

    def evict_smallest(self) -> FlowSummary:
        """Remove the smallest tracked flow and return its final summary.

        The smallest flow has the fewest packets; ties break by
        :func:`~oracles.keys.flow_key_order` of the flow key.
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

    A new flow arriving at a full table (``max_flows``) evicts the
    smallest tracked flow, and each non-empty bin is reported on close.
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
        key = key_of(self._classifier.key_policy, packet.five_tuple)
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
