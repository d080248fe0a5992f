"""Flow table with measurement-interval binning.

Network operators typically run the monitor with a "binning" method
(Section 8 of the paper): packets are collected for a measurement
interval, classified into flows, ranked and reported; then the flow
memory is cleared and the next interval starts.  Flows that span a bin
boundary are truncated — exactly the artefact the paper's trace-driven
simulations exercise.

:class:`BinnedFlowTable` implements that behaviour, optionally with a
bounded number of flow records (evicting the smallest flows when full,
as the related-work heavy-hitter systems do).  It is a thin object-API
wrapper over the :class:`~repro.flows.accounting.FlowAccountingEngine`:
packets are buffered into small column chunks and folded in
vectorised.  Its bins, rankings and eviction counts are bit-identical
to a per-packet classifier over Python flow records (the oracle in
``tests/oracles/objectpath.py``; asserted by the property-based tests
in ``tests/test_accounting.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .accounting import BinAccount, FlowAccountingEngine
from .keys import FiveTupleKeyPolicy, FlowKeyPolicy
from .packets import Packet
from .records import FlowSummary, ranking_sort_key

#: Packets buffered before folding into the engine; large enough to
#: amortise the NumPy call overhead, small enough to be invisible next
#: to a bin.
_BUFFER_PACKETS = 4096


@dataclass(frozen=True)
class FlowBin:
    """All flows reported for one measurement interval."""

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
        """The ``count`` largest flows of the bin by packet count.

        Ordering is fully deterministic: decreasing packets, then
        decreasing bytes, then the flow key (see
        :func:`~repro.flows.records.ranking_sort_key`).
        """
        ordered = sorted(self.flows, key=ranking_sort_key)
        return tuple(ordered[:count])

    def packet_counts(self) -> dict[object, int]:
        """Mapping flow key -> packet count, as used by the ranking metrics."""
        return {flow.key: flow.packets for flow in self.flows}


class BinnedFlowTable:
    """Flow table cleared at the end of every measurement interval.

    Parameters
    ----------
    bin_duration:
        Measurement interval length in seconds (the paper uses 60 s and
        300 s).
    key_policy:
        Flow definition.
    max_flows:
        Optional bound on the number of simultaneously tracked flows.
        When the table is full and a new flow arrives, the currently
        smallest tracked flow is evicted (the strategy the paper's
        related work uses to bound memory).  ``None`` means unbounded.
    """

    def __init__(
        self,
        bin_duration: float,
        key_policy: FlowKeyPolicy | None = None,
        max_flows: int | None = None,
    ) -> None:
        if bin_duration <= 0:
            raise ValueError(f"bin_duration must be positive, got {bin_duration}")
        if max_flows is not None and max_flows < 1:
            raise ValueError("max_flows must be at least 1 when given")
        self.bin_duration = float(bin_duration)
        self.max_flows = max_flows
        self.key_policy = key_policy if key_policy is not None else FiveTupleKeyPolicy()
        self._current_bin_index = 0
        self._completed: list[FlowBin] = []
        self._encoder = self.key_policy.make_encoder()
        self._engine = FlowAccountingEngine(
            self.bin_duration, max_flows=max_flows, order_key=self._encoder.order_key
        )
        self._buffer_times: list[float] = []
        self._buffer_codes: list[int] = []
        self._buffer_sizes: list[int] = []

    # ------------------------------------------------------------------
    @property
    def completed_bins(self) -> list[FlowBin]:
        """Bins that have been closed so far."""
        self._drain()
        self._collect()
        return list(self._completed)

    @property
    def evictions(self) -> int:
        """Number of flow records evicted because of the memory bound."""
        self._drain()
        return self._engine.evictions

    def observe(self, packet: Packet) -> None:
        """Account one packet, closing bins as time advances."""
        bin_index = int(packet.timestamp // self.bin_duration)
        if bin_index < self._current_bin_index:
            raise ValueError("packets must be observed in non-decreasing time order")
        self._current_bin_index = bin_index
        code = self._encoder.encode_key(self.key_policy.key_of(packet.five_tuple))
        self._buffer_times.append(packet.timestamp)
        self._buffer_codes.append(code)
        self._buffer_sizes.append(packet.size_bytes)
        if len(self._buffer_times) >= _BUFFER_PACKETS:
            self._drain()

    def flush(self) -> list[FlowBin]:
        """Close the current bin (if non-empty) and return all completed bins."""
        self._drain()
        self._engine.close_current()
        self._collect()
        self._current_bin_index = max(self._current_bin_index, self._engine.current_bin_index)
        return list(self._completed)

    # ------------------------------------------------------------------
    def _drain(self) -> None:
        """Fold the buffered packets into the engine."""
        if not self._buffer_times:
            return
        self._engine.observe_chunk(
            np.asarray(self._buffer_times, dtype=np.float64),
            np.asarray(self._buffer_codes, dtype=np.int64),
            np.asarray(self._buffer_sizes, dtype=np.int64),
        )
        self._buffer_times.clear()
        self._buffer_codes.clear()
        self._buffer_sizes.clear()

    def _collect(self) -> None:
        """Convert newly closed engine bins into object-level FlowBins."""
        for account in self._engine.drain_completed():
            self._completed.append(self._to_flow_bin(account))

    def _to_flow_bin(self, account: BinAccount) -> FlowBin:
        flows = [
            FlowSummary(
                key=self._encoder.decode(int(code)),
                packets=int(packets),
                bytes=int(size_bytes),
                first_seen=float(first),
                last_seen=float(last),
            )
            for code, packets, size_bytes, first, last in zip(
                account.codes,
                account.packets,
                account.bytes,
                account.first_seen,
                account.last_seen,
            )
        ]
        flows.sort(key=ranking_sort_key)
        return FlowBin(
            index=account.index,
            start_time=account.start_time,
            end_time=account.end_time,
            flows=tuple(flows),
        )


__all__ = ["BinnedFlowTable", "FlowBin"]
