"""Flow records and flow statistics.

A :class:`FlowRecord` accumulates the per-flow counters a monitor keeps
while classifying packets (packet count, byte count, first/last packet
timestamps).  :class:`FlowSummary` is the immutable result exported at
the end of a measurement interval, the unit the ranking and detection
metrics operate on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .keys import flow_key_order


@dataclass
class FlowRecord:
    """Mutable per-flow counters maintained during classification."""

    key: object
    packets: int = 0
    bytes: int = 0
    first_seen: float = field(default=float("inf"))
    last_seen: float = field(default=float("-inf"))

    def update(self, timestamp: float, size_bytes: int) -> None:
        """Account one packet of this flow."""
        if size_bytes <= 0:
            raise ValueError(f"size_bytes must be positive, got {size_bytes}")
        if timestamp < 0:
            raise ValueError(f"timestamp must be non-negative, got {timestamp}")
        self.packets += 1
        self.bytes += int(size_bytes)
        if timestamp < self.first_seen:
            self.first_seen = timestamp
        if timestamp > self.last_seen:
            self.last_seen = timestamp

    def merge(self, packets: int, size_bytes: int, first_seen: float, last_seen: float) -> None:
        """Account a pre-aggregated group of packets of this flow at once.

        The bulk counterpart of :meth:`update`, used by the columnar
        ingestion paths: ``packets`` packets totalling ``size_bytes``
        bytes, observed between ``first_seen`` and ``last_seen``.
        """
        if packets < 1:
            raise ValueError(f"packets must be at least 1, got {packets}")
        if size_bytes < packets:
            raise ValueError("size_bytes must cover at least one byte per packet")
        if first_seen < 0 or last_seen < first_seen:
            raise ValueError("need 0 <= first_seen <= last_seen")
        self.packets += int(packets)
        self.bytes += int(size_bytes)
        if first_seen < self.first_seen:
            self.first_seen = first_seen
        if last_seen > self.last_seen:
            self.last_seen = last_seen

    @property
    def duration(self) -> float:
        """Time between the first and last accounted packet (0 for 1 packet)."""
        if self.packets == 0:
            return 0.0
        return max(0.0, self.last_seen - self.first_seen)

    def freeze(self) -> "FlowSummary":
        """Export an immutable summary of the record."""
        if self.packets == 0:
            raise ValueError("cannot freeze a flow record with no packets")
        return FlowSummary(
            key=self.key,
            packets=self.packets,
            bytes=self.bytes,
            first_seen=self.first_seen,
            last_seen=self.last_seen,
        )


@dataclass(frozen=True, slots=True)
class FlowSummary:
    """Immutable per-flow statistics for one measurement interval."""

    key: object
    packets: int
    bytes: int
    first_seen: float
    last_seen: float

    def __post_init__(self) -> None:
        if self.packets < 1:
            raise ValueError("a flow summary must contain at least one packet")
        if self.bytes < 1:
            raise ValueError("a flow summary must contain at least one byte")
        if self.last_seen < self.first_seen:
            raise ValueError("last_seen must not precede first_seen")

    @property
    def duration(self) -> float:
        """Flow duration within the interval, in seconds."""
        return self.last_seen - self.first_seen

    @property
    def mean_packet_size(self) -> float:
        """Average packet size of the flow in bytes."""
        return self.bytes / self.packets


def ranking_sort_key(flow: FlowSummary) -> tuple[object, ...]:
    """Deterministic monitor ranking order for flow summaries.

    Flows rank by decreasing packet count, then decreasing byte count,
    then by :func:`~repro.flows.keys.flow_key_order` of the flow key —
    so the full ranking is a pure function of the flow statistics,
    never of dict insertion order.  Every ranking the library produces
    (bin reports, the columnar engine's exports) uses this key.
    """
    return (-flow.packets, -flow.bytes, flow_key_order(flow.key))


__all__ = ["FlowRecord", "FlowSummary", "ranking_sort_key"]
