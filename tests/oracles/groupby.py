"""Reference group-by: stable argsort per segment, sorted-union merges.

:class:`SortBin` is the original unbounded open-bin accumulator of the
flow-accounting engine.  Each chunk segment is grouped with
:func:`repro.flows.groupby.aggregate_codes` and folded into the bin's
sorted code array by a sorted-union merge.  :func:`sort_engine` builds a
:class:`~repro.flows.accounting.FlowAccountingEngine` that accumulates
through it, so the library's hash accumulator can be bit-checked at the
engine level: same bins, same per-flow packet counts, same evictions.
"""

from __future__ import annotations

import numpy as np

from repro.flows.accounting import BinAccount, FlowAccountingEngine
from repro.flows.groupby import aggregate_codes


class SortBin:
    """Open-bin accumulator without a flow bound: pure sorted-array merges."""

    __slots__ = ("codes", "packets")

    def __init__(self) -> None:
        self.clear()

    def clear(self) -> None:
        self.codes = np.empty(0, dtype=np.int64)
        self.packets = np.empty(0, dtype=np.int64)

    @property
    def num_flows(self) -> int:
        return int(self.codes.size)

    def apply(self, codes: np.ndarray) -> None:
        unique, packets = aggregate_codes(codes)
        if unique.size == 0:
            return
        if self.codes.size == 0:
            self.codes, self.packets = unique, packets
            return
        union = np.union1d(self.codes, unique)
        merged = np.zeros(union.size, dtype=np.int64)
        merged[np.searchsorted(union, self.codes)] = self.packets
        merged[np.searchsorted(union, unique)] += packets
        self.codes = union
        self.packets = merged

    def account(self, index: int, bin_duration: float) -> BinAccount:
        return BinAccount(
            index=index,
            start_time=index * bin_duration,
            end_time=(index + 1) * bin_duration,
            codes=self.codes,
            packets=self.packets,
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
