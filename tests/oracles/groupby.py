"""Reference group-by: stable argsort + ``reduceat`` per segment, sorted-union merges.

:class:`SortBin` is the original unbounded open-bin accumulator of the
flow-accounting engine.  Each chunk segment is grouped with
:func:`repro.flows.groupby.aggregate_codes` and folded into the bin's
sorted code array by a sorted-union merge.  :func:`sort_engine` builds a
:class:`~repro.flows.accounting.FlowAccountingEngine` that accumulates
through it, so the library's hash accumulator can be bit-checked at the
engine level: same bins, same per-flow statistics, same evictions.
"""

from __future__ import annotations

import numpy as np

from repro.flows.accounting import BinAccount, FlowAccountingEngine
from repro.flows.groupby import aggregate_codes


class SortBin:
    """Open-bin accumulator without a flow bound: pure sorted-array merges."""

    __slots__ = ("codes", "packets", "bytes", "first", "last")

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        self.codes = np.empty(0, dtype=np.int64)
        self.packets = np.empty(0, dtype=np.int64)
        self.bytes = np.empty(0, dtype=np.int64)
        self.first = np.empty(0, dtype=np.float64)
        self.last = np.empty(0, dtype=np.float64)

    @property
    def num_flows(self) -> int:
        return int(self.codes.size)

    def apply(self, timestamps: np.ndarray, codes: np.ndarray, sizes: np.ndarray) -> None:
        unique, packets, byte_sums, first, last = aggregate_codes(codes, timestamps, sizes)
        if unique.size == 0:
            return
        if self.codes.size == 0:
            self.codes, self.packets, self.bytes = unique, packets, byte_sums
            self.first, self.last = first, last
            return
        union = np.union1d(self.codes, unique)
        if union.size == self.codes.size:
            positions = np.searchsorted(self.codes, unique)
            self.packets[positions] += packets
            self.bytes[positions] += byte_sums
            self.first[positions] = np.minimum(self.first[positions], first)
            self.last[positions] = np.maximum(self.last[positions], last)
            return
        old_positions = np.searchsorted(union, self.codes)
        new_positions = np.searchsorted(union, unique)
        merged_packets = np.zeros(union.size, dtype=np.int64)
        merged_packets[old_positions] = self.packets
        merged_packets[new_positions] += packets
        merged_bytes = np.zeros(union.size, dtype=np.int64)
        merged_bytes[old_positions] = self.bytes
        merged_bytes[new_positions] += byte_sums
        merged_first = np.full(union.size, np.inf)
        merged_first[old_positions] = self.first
        merged_first[new_positions] = np.minimum(merged_first[new_positions], first)
        merged_last = np.full(union.size, -np.inf)
        merged_last[old_positions] = self.last
        merged_last[new_positions] = np.maximum(merged_last[new_positions], last)
        self.codes = union
        self.packets = merged_packets
        self.bytes = merged_bytes
        self.first = merged_first
        self.last = merged_last

    def account(self, index: int, bin_duration: float) -> BinAccount:
        return BinAccount(
            index=index,
            start_time=index * bin_duration,
            end_time=(index + 1) * bin_duration,
            codes=self.codes,
            packets=self.packets,
            bytes=self.bytes,
            first_seen=self.first,
            last_seen=self.last,
        )


def sort_engine(bin_duration: float, *, max_flows: int | None = None) -> FlowAccountingEngine:
    """An accounting engine whose unbounded bins accumulate through :class:`SortBin`.

    Bounded engines are returned unchanged: their eviction replay has a
    single implementation, which the hash accumulator never touches.
    """
    engine = FlowAccountingEngine(bin_duration, max_flows=max_flows)
    if max_flows is None:
        engine._open = SortBin()
    return engine
