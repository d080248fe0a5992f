"""Columnar flow-accounting engine: the monitor path at NumPy speed.

The link monitor of the paper (Section 8) classifies packets into
flows, ranks them per measurement bin and — in the bounded-memory
variant its related work uses — evicts the smallest tracked flow when
the flow table is full.  This module is that monitor over
:class:`~repro.flows.packets.PacketBatch` columns:

* flows are identified by ``int64`` **key codes** (see
  :meth:`repro.flows.keys.FlowKeyPolicy.keys_of_batch`), never by
  Python objects;
* per-flow packet/byte counts and first/last timestamps of an
  unbounded bin accumulate in the hash-accumulator kernel of
  :mod:`repro.flows.groupby`, which folds each segment into an
  open-addressing table in one pass — and, given per-stream keep masks,
  counts every sampled stream's packets per flow alongside
  (:attr:`BinAccount.sampled`);
* measurement bins are closed with a linear boundary pass over the
  chunk's non-decreasing bin indices (:func:`bin_segments`), or — for
  time-sorted chunks of an unbounded engine — a ``searchsorted``
  against the bin edges that avoids materialising per-packet bin
  indices;
* the ``max_flows`` bound is honoured *exactly*: a chunk segment that
  cannot overflow the table is folded in vectorised, and a segment
  where the bound may bind is replayed packet by packet over its
  ``tolist()`` columns, evicting through a lazy min-heap with one entry
  per tracked flow — the per-packet eviction sequence, bit for bit.

The engine is chunk-size invariant: feeding a packet stream in one
chunk or a thousand produces identical bins, rankings and eviction
counts, and those are in turn identical to the per-packet object-level
monitor and to a sort-based group-by (the test oracles in
``tests/oracles``; the property-based tests in
``tests/test_accounting.py`` and ``tests/test_groupby.py`` assert
all three).

>>> import numpy as np
>>> engine = FlowAccountingEngine(bin_duration=10.0)
>>> engine.observe_chunk([0.0, 1.0, 12.0], [7, 7, 9], [500, 500, 500])
>>> [(account.index, account.total_packets) for account in engine.flush()]
[(0, 2), (1, 1)]
"""

from __future__ import annotations

import heapq
import operator
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .groupby import HashAccumulator, aggregate_codes
from .packets import DEFAULT_PACKET_SIZE_BYTES, PacketBatch

#: Timestamps at or above 2^52 lose the integer resolution the
#: searchsorted bin-edge fast path relies on; such chunks (never seen
#: in practice) take the generic per-packet bin-index path instead.
_FAST_PATH_MAX_TIMESTAMP = float(1 << 52)


def _checked_max_flows(max_flows: int | None) -> int | None:
    """``max_flows`` as an ``int`` of at least 1, or ``None`` (unbounded).

    A non-integer bound (``2.5``) raises :class:`TypeError` instead of
    being rounded down, and a bound below 1 raises :class:`ValueError`.
    """
    if max_flows is None:
        return None
    try:
        bound = operator.index(max_flows)
    except TypeError:
        raise TypeError(f"max_flows must be an integer, got {max_flows!r}") from None
    if bound < 1:
        raise ValueError(f"max_flows must be at least 1 when given, got {max_flows!r}")
    return bound


def bin_segments(bin_indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Segment a non-decreasing bin-index array into per-bin spans.

    Parameters
    ----------
    bin_indices:
        Measurement-bin index of every packet, non-decreasing (packets
        arrive in time order).

    Returns
    -------
    tuple[numpy.ndarray, numpy.ndarray]
        ``(bins, bounds)`` where ``bins`` holds the distinct bin
        indices in order and ``bounds`` has ``bins.size + 1`` entries:
        bin ``bins[i]`` covers positions ``bounds[i]:bounds[i + 1]``.

    >>> bins, bounds = bin_segments(np.array([3, 3, 5, 5, 5, 8]))
    >>> bins.tolist(), bounds.tolist()
    ([3, 5, 8], [0, 2, 5, 6])
    """
    indices = np.asarray(bin_indices)
    if indices.size == 0:
        return np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
    # The input is non-decreasing, so one linear diff pass finds every
    # segment boundary (no sort needed).
    starts = np.concatenate(([0], np.flatnonzero(np.diff(indices)) + 1))
    return (
        indices[starts].astype(np.int64),
        np.append(starts, indices.size).astype(np.int64),
    )


@dataclass(frozen=True)
class BinAccount:
    """Columnar report of one closed measurement interval.

    The engine-level counterpart of
    :class:`~repro.flows.table.FlowBin`: per-flow statistics as aligned
    arrays keyed by code, sorted by ascending code (not by rank — use
    an encoder to decode and :func:`~repro.flows.records.ranking_sort_key`
    to rank, or :meth:`repro.flows.table.BinnedFlowTable` which does
    both).
    """

    index: int
    start_time: float
    end_time: float
    codes: np.ndarray
    packets: np.ndarray
    bytes: np.ndarray
    first_seen: np.ndarray
    last_seen: np.ndarray
    #: ``(streams, flows)`` packet counts of each sampled stream, aligned
    #: with ``codes``, when the bin was observed with ``keep_masks``
    #: (see :meth:`FlowAccountingEngine.observe_sorted_chunk`).
    sampled: np.ndarray | None = None

    @property
    def num_flows(self) -> int:
        """Number of distinct flows accounted in the bin."""
        return int(self.codes.size)

    @property
    def total_packets(self) -> int:
        """Total number of packets accounted in the bin."""
        return int(self.packets.sum())

    def counts_for(self, codes: np.ndarray) -> np.ndarray:
        """Packet counts aligned to an arbitrary code array (0 when absent).

        Parameters
        ----------
        codes:
            Codes to look up (any order, need not appear in the bin).

        Returns
        -------
        numpy.ndarray
            ``int64`` packet count per requested code.
        """
        wanted = np.asarray(codes, dtype=np.int64)
        out = np.zeros(wanted.size, dtype=np.int64)
        if self.codes.size == 0 or wanted.size == 0:
            return out
        positions = np.searchsorted(self.codes, wanted)
        positions_clipped = np.minimum(positions, self.codes.size - 1)
        present = self.codes[positions_clipped] == wanted
        out[present] = self.packets[positions_clipped[present]]
        return out


class _HashBin:
    """Unbounded open-bin accumulator backed by the hash group-by kernel.

    Every segment folds into a persistent
    :class:`~repro.flows.groupby.HashAccumulator` in one pass: no
    per-segment sort and no sorted-union merge between chunks.
    ``apply`` accepts ``time_sorted`` so the engine's fast path can
    enable scatter-store first/last updates.
    """

    __slots__ = ("_accumulator",)

    def __init__(self) -> None:
        self._accumulator = HashAccumulator()

    def clear(self) -> None:
        self._accumulator.clear()

    @property
    def num_flows(self) -> int:
        return self._accumulator.num_flows

    def reserve_dense(self, low: int, high: int) -> bool:
        return self._accumulator.reserve_dense(low, high)

    def apply(
        self,
        timestamps: np.ndarray,
        codes: np.ndarray,
        sizes: np.ndarray,
        time_sorted: bool = False,
        in_bounds: bool = False,
        const_size: int | None = None,
        keep_masks: np.ndarray | None = None,
    ) -> None:
        self._accumulator.ingest(
            timestamps,
            codes,
            sizes,
            time_sorted=time_sorted,
            in_bounds=in_bounds,
            const_size=const_size,
            keep_masks=keep_masks,
        )

    def account(self, index: int, bin_duration: float) -> BinAccount:
        codes, packets, byte_sums, first, last, sampled = self._accumulator.extract()
        return BinAccount(
            index=index,
            start_time=index * bin_duration,
            end_time=(index + 1) * bin_duration,
            codes=codes,
            packets=packets,
            bytes=byte_sums,
            first_seen=first,
            last_seen=last,
            sampled=sampled,
        )


class _BoundedBin:
    """Open-bin accumulator with a ``max_flows`` bound and smallest-flow eviction.

    Per-flow state is a ``code -> [packets, bytes, first, last]`` dict
    plus a lazy min-heap holding exactly one ``(packets, order_key(code),
    code)`` entry per tracked flow, pushed when the flow is inserted.
    Counts only grow while a flow is tracked, so an entry's count is at
    most its flow's live count.  Eviction pops the smallest entry: one
    whose count is out of date goes back with the live count, one that
    is up to date is the smallest flow — O(log n) amortised, with no
    stale entries to clean up.
    """

    __slots__ = ("max_flows", "order_key", "table", "heap", "evictions")

    def __init__(self, max_flows: int, order_key: Callable[[int], object]) -> None:
        self.max_flows = max_flows
        self.order_key = order_key
        self.table: dict[int, list] = {}
        self.heap: list = []
        self.evictions = 0

    def clear(self) -> None:
        self.table.clear()
        self.heap.clear()

    @property
    def num_flows(self) -> int:
        return len(self.table)

    def evict_smallest(self) -> int:
        """Remove the smallest tracked flow and return its code.

        The smallest flow is the one with the fewest packets, ties
        broken by the key order (for object keys,
        :func:`repro.flows.keys.flow_key_order`).
        """
        heap = self.heap
        while heap:
            packets, key, code = heap[0]
            live = self.table[code][0]
            if live == packets:
                heapq.heappop(heap)
                del self.table[code]
                self.evictions += 1
                return code
            heapq.heapreplace(heap, (live, key, code))
        raise ValueError("cannot evict from an empty flow table")

    def apply(self, timestamps: np.ndarray, codes: np.ndarray, sizes: np.ndarray) -> None:
        if codes.size == 0:
            return
        table = self.table
        unique, packets, byte_sums, first, last = aggregate_codes(codes, timestamps, sizes)
        unique_codes = unique.tolist()
        new_flows = sum(1 for code in unique_codes if code not in table)
        if len(table) + new_flows > self.max_flows:
            self._replay(timestamps.tolist(), codes.tolist(), sizes.tolist())
            return
        # The table cannot overflow within this segment, so the replay
        # would evict nothing: fold the aggregates in directly.
        for code, count, size_bytes, low, high in zip(
            unique_codes, packets.tolist(), byte_sums.tolist(), first.tolist(), last.tolist()
        ):
            record = table.get(code)
            if record is None:
                table[code] = [count, size_bytes, low, high]
                heapq.heappush(self.heap, (count, self.order_key(code), code))
            else:
                record[0] += count
                record[1] += size_bytes
                if low < record[2]:
                    record[2] = low
                if high > record[3]:
                    record[3] = high

    def _replay(self, timestamps: list, codes: list, sizes: list) -> None:
        """Account one segment packet by packet, the monitor's own semantics.

        A packet of a tracked flow updates its record; a packet of an
        untracked flow first evicts the smallest flow when the table is
        full, then starts a fresh record.
        """
        table = self.table
        heap = self.heap
        order_key = self.order_key
        max_flows = self.max_flows
        for code, size, timestamp in zip(codes, sizes, timestamps):
            record = table.get(code)
            if record is None:
                if len(table) >= max_flows:
                    self.evict_smallest()
                table[code] = [1, size, timestamp, timestamp]
                heapq.heappush(heap, (1, order_key(code), code))
            else:
                record[0] += 1
                record[1] += size
                if timestamp < record[2]:
                    record[2] = timestamp
                if timestamp > record[3]:
                    record[3] = timestamp

    def account(self, index: int, bin_duration: float) -> BinAccount:
        sorted_codes = np.sort(np.fromiter(self.table.keys(), dtype=np.int64, count=len(self.table)))
        size = sorted_codes.size
        return BinAccount(
            index=index,
            start_time=index * bin_duration,
            end_time=(index + 1) * bin_duration,
            codes=sorted_codes,
            packets=np.fromiter((self.table[int(c)][0] for c in sorted_codes), np.int64, size),
            bytes=np.fromiter((self.table[int(c)][1] for c in sorted_codes), np.int64, size),
            first_seen=np.fromiter((self.table[int(c)][2] for c in sorted_codes), np.float64, size),
            last_seen=np.fromiter((self.table[int(c)][3] for c in sorted_codes), np.float64, size),
        )


class FlowAccountingEngine:
    """Binned flow accounting over columnar packet chunks.

    Parameters
    ----------
    bin_duration:
        Measurement interval length in seconds.
    max_flows:
        Optional bound on simultaneously tracked flows, an integer of at
        least 1 (a non-integer raises :class:`TypeError`); when a new
        flow arrives at a full table the smallest tracked flow is
        evicted (fewest packets, ties by ``order_key``).  ``None`` means
        unbounded, which is the fully vectorised fast path.
    order_key:
        Maps a key code to a comparable used for eviction tie-breaks.
        Defaults to the code itself, which is correct whenever codes
        order like the keys they stand for (group ids, prefix codes);
        pass :meth:`FlowKeyEncoder.order_key
        <repro.flows.keys.FlowKeyEncoder.order_key>` when codes come
        from an interning encoder.

    Examples
    --------
    >>> import numpy as np
    >>> engine = FlowAccountingEngine(bin_duration=60.0, max_flows=1)
    >>> engine.observe_chunk([0.0, 1.0, 2.0], [5, 5, 8], [500, 500, 500])
    >>> engine.evictions  # flow 5 (2 packets) was evicted for flow 8
    1
    >>> [account.codes.tolist() for account in engine.flush()]
    [[8]]
    """

    def __init__(
        self,
        bin_duration: float,
        *,
        max_flows: int | None = None,
        order_key: Callable[[int], object] | None = None,
    ) -> None:
        if bin_duration <= 0:
            raise ValueError(f"bin_duration must be positive, got {bin_duration}")
        max_flows = _checked_max_flows(max_flows)
        self.bin_duration = float(bin_duration)
        self.max_flows = max_flows
        order = order_key if order_key is not None else (lambda code: code)
        self._open: _HashBin | _BoundedBin
        if max_flows is not None:
            self._open = _BoundedBin(max_flows, order)
        else:
            self._open = _HashBin()
        self._current_bin = 0
        self._completed: list[BinAccount] = []
        self._packets_seen = 0
        self._stream_max_ts = -np.inf

    # ------------------------------------------------------------------
    @property
    def current_bin_index(self) -> int:
        """Index of the bin the engine would account the next packet into."""
        return self._current_bin

    @property
    def open_flows(self) -> int:
        """Number of flows tracked in the open bin right now."""
        return self._open.num_flows

    @property
    def packets_seen(self) -> int:
        """Total number of packets accounted so far."""
        return self._packets_seen

    @property
    def evictions(self) -> int:
        """Number of flow records evicted because of the memory bound."""
        return self._open.evictions if isinstance(self._open, _BoundedBin) else 0

    # ------------------------------------------------------------------
    def observe_chunk(
        self,
        timestamps: np.ndarray,
        codes: np.ndarray,
        sizes_bytes: np.ndarray | None = None,
    ) -> None:
        """Account one chunk of packets given as aligned columns.

        Parameters
        ----------
        timestamps:
            Arrival times in seconds; the implied bin indices must be
            non-decreasing within the chunk and not precede the open
            bin (chunks arrive in stream order).
        codes:
            Integer flow-key code of every packet.
        sizes_bytes:
            Packet sizes; defaults to the paper's constant
            ``DEFAULT_PACKET_SIZE_BYTES``.
        """
        self._observe_checked(timestamps, codes, sizes_bytes)

    def _observe_checked(
        self,
        timestamps: np.ndarray,
        codes: np.ndarray,
        sizes_bytes: np.ndarray | None,
        keep_masks: np.ndarray | None = None,
    ) -> None:
        """:meth:`observe_chunk`, with the keep masks of :meth:`observe_sorted_chunk`."""
        ts = np.asarray(timestamps, dtype=np.float64)
        code_arr = np.asarray(codes, dtype=np.int64)
        if ts.ndim != 1 or code_arr.shape != ts.shape:
            raise ValueError("timestamps and codes must be 1-D arrays of equal length")
        if ts.size == 0:
            return
        if not np.isfinite(ts).all():
            raise ValueError("timestamps must be finite")
        if np.any(ts < 0):
            raise ValueError("timestamps must be non-negative")
        if sizes_bytes is None:
            sizes = np.full(ts.shape, DEFAULT_PACKET_SIZE_BYTES, dtype=np.int64)
        else:
            sizes = np.asarray(sizes_bytes, dtype=np.int64)
            if sizes.shape != ts.shape:
                raise ValueError("sizes_bytes must match the number of packets")
            if np.any(sizes <= 0):
                raise ValueError("packet sizes must be positive")
        open_bin = self._open
        if isinstance(open_bin, _HashBin) and self._observe_fast(
            ts, code_arr, sizes, keep_masks=keep_masks
        ):
            self._packets_seen += int(ts.size)
            return
        bin_indices = np.floor_divide(ts, self.bin_duration).astype(np.int64)
        if int(bin_indices[0]) < self._current_bin or np.any(np.diff(bin_indices) < 0):
            raise ValueError("packets must be observed in non-decreasing time order")
        if isinstance(open_bin, _HashBin):
            self._stream_max_ts = max(self._stream_max_ts, float(ts.max()))
        bins, bounds = bin_segments(bin_indices)
        for segment in range(bins.size):
            bin_index = int(bins[segment])
            if bin_index > self._current_bin:
                self._close_open()
                self._current_bin = bin_index
            lo, hi = int(bounds[segment]), int(bounds[segment + 1])
            if keep_masks is None:
                open_bin.apply(ts[lo:hi], code_arr[lo:hi], sizes[lo:hi])
            else:
                assert isinstance(open_bin, _HashBin)
                open_bin.apply(
                    ts[lo:hi], code_arr[lo:hi], sizes[lo:hi], keep_masks=keep_masks[:, lo:hi]
                )
        self._packets_seen += int(ts.size)

    def _observe_fast(
        self,
        ts: np.ndarray,
        codes: np.ndarray,
        sizes: np.ndarray,
        chunk_sorted: bool = False,
        in_bounds: bool = False,
        const_size: int | None = None,
        keep_masks: np.ndarray | None = None,
    ) -> bool:
        """Unbounded chunk observation without per-packet bin indices.

        Applies only to time-sorted chunks that continue a time-sorted
        stream: measurement-bin boundaries are then located with a
        ``searchsorted`` against the bin edges (verified exactly
        against the ``floor_divide`` bin rule at every cut, O(bins)
        scalar work) and the accumulator can use scatter-store
        first/last updates.  Returns ``False`` when any precondition
        fails, in which case the caller runs the generic path — the
        two produce bit-identical bins.  ``chunk_sorted=True`` asserts
        the chunk is already known non-decreasing (a
        :class:`PacketBatch` invariant) and skips re-checking.
        """
        open_bin = self._open
        assert isinstance(open_bin, _HashBin)
        last_ts = float(ts[-1])
        if (
            last_ts >= _FAST_PATH_MAX_TIMESTAMP
            or float(ts[0]) < self._stream_max_ts
            or not (chunk_sorted or bool(np.all(ts[1:] >= ts[:-1])))
        ):
            return False
        duration = self.bin_duration
        first_bin = int(np.floor_divide(ts[0], duration))
        last_bin = int(np.floor_divide(last_ts, duration))
        if first_bin < self._current_bin:
            raise ValueError("packets must be observed in non-decreasing time order")
        if last_bin - first_bin > ts.size:
            # More candidate bins than packets (sparse stream, tiny
            # bins): per-packet indices are cheaper than the edge scan.
            return False
        if last_bin == first_bin:
            bounds = np.array([0, ts.size], dtype=np.int64)
        else:
            edges = np.arange(first_bin + 1, last_bin + 1, dtype=np.float64) * duration
            cuts = np.searchsorted(ts, edges, side="left")
            bounds = np.concatenate(([0], cuts, [ts.size]))
            # Verify the cut positions reproduce floor_divide binning
            # exactly (float bin edges can disagree near a boundary by
            # an ulp for non-dyadic durations).
            starts = bounds[:-1]
            stops = bounds[1:]
            occupied = np.flatnonzero(stops > starts)
            seg_bins = first_bin + occupied
            head = np.floor_divide(ts[starts[occupied]], duration).astype(np.int64)
            tail = np.floor_divide(ts[stops[occupied] - 1], duration).astype(np.int64)
            if not (np.array_equal(head, seg_bins) and np.array_equal(tail, seg_bins)):
                return False
        self._stream_max_ts = last_ts
        for segment in range(bounds.size - 1):
            lo, hi = int(bounds[segment]), int(bounds[segment + 1])
            if lo == hi:
                continue
            bin_index = first_bin + segment
            if bin_index > self._current_bin:
                self._close_open()
                self._current_bin = bin_index
            open_bin.apply(
                ts[lo:hi],
                codes[lo:hi],
                sizes[lo:hi],
                time_sorted=True,
                in_bounds=in_bounds,
                const_size=const_size,
                keep_masks=None if keep_masks is None else keep_masks[:, lo:hi],
            )
        return True

    def reserve_codes(self, low: int, high: int) -> bool:
        """Pre-size the hash backend for a known code universe.

        Returns ``True`` when the engine is unbounded and its hash
        table is identity-addressed covering ``[low, high]`` — the
        caller may then pass ``in_bounds=True`` to
        :meth:`observe_sorted_chunk` for codes drawn from that range.
        Bounded engines return ``False`` (they have nothing to
        reserve).
        """
        if isinstance(self._open, _HashBin):
            return self._open.reserve_dense(int(low), int(high))
        return False

    def observe_sorted_chunk(
        self,
        timestamps: np.ndarray,
        codes: np.ndarray,
        sizes_bytes: np.ndarray,
        *,
        in_bounds: bool = False,
        const_size: int | None = None,
        keep_masks: np.ndarray | None = None,
    ) -> None:
        """Trusted columnar observation for pre-validated columns.

        The caller guarantees what :meth:`observe_chunk` would check:
        ``timestamps`` sorted non-decreasing and non-negative, ``codes``
        aligned ``int64``, ``sizes_bytes`` aligned and positive.  Chunks
        from a :class:`PacketBatch` satisfy all of it by construction.
        Hash-backed engines go straight to the fused fast path;
        everything else falls back to the validating path (which
        re-checks, so a broken guarantee degrades to the generic error
        behaviour rather than silent corruption).

        Parameters
        ----------
        timestamps, codes, sizes_bytes:
            Aligned per-packet columns.
        in_bounds:
            Guarantee that every code lies in the dense range last
            confirmed by :meth:`reserve_codes`.
        const_size:
            Guarantee that every size equals this value (``None`` =
            unknown).
        keep_masks:
            Optional ``(streams, packets)`` boolean array, one row per
            sampled stream flagging the packets it keeps.  Each closed
            bin then reports every stream's packet count per flow in
            :attr:`BinAccount.sampled`.  Unbounded engines only: a
            bounded engine raises ``ValueError``.
        """
        if keep_masks is not None:
            if not isinstance(self._open, _HashBin):
                raise ValueError("keep_masks needs an unbounded engine (max_flows=None)")
            if keep_masks.ndim != 2 or keep_masks.shape[1] != timestamps.size:
                raise ValueError("keep_masks must hold one flag per packet for every stream")
        if timestamps.size == 0:
            return
        if isinstance(self._open, _HashBin) and self._observe_fast(
            timestamps,
            codes,
            sizes_bytes,
            chunk_sorted=True,
            in_bounds=in_bounds,
            const_size=const_size,
            keep_masks=keep_masks,
        ):
            self._packets_seen += int(timestamps.size)
            return
        self._observe_checked(timestamps, codes, sizes_bytes, keep_masks)

    def observe_batch(self, batch: PacketBatch, code_of_flow: np.ndarray) -> None:
        """Account a :class:`PacketBatch` chunk through a flow-id -> code map.

        Parameters
        ----------
        batch:
            The packet chunk (timestamps sorted, flow ids referencing
            an external flow table).
        code_of_flow:
            Key code of every flow id that can appear in the batch
            (e.g. from :meth:`FlowKeyPolicy.keys_of_batch
            <repro.flows.keys.FlowKeyPolicy.keys_of_batch>` over the
            flow table's 5-tuple columns, or
            :meth:`FlowLevelTrace.group_ids
            <repro.traces.flow_trace.FlowLevelTrace.group_ids>`).
        """
        mapping = np.asarray(code_of_flow, dtype=np.int64)
        if len(batch) and int(batch.flow_ids.max()) >= mapping.size:
            raise ValueError("code_of_flow is too short for the flow ids present in the batch")
        if len(batch) and isinstance(self._open, _HashBin):
            # Trusted path: PacketBatch construction already validated
            # sorted non-negative timestamps and positive sizes, so the
            # fast path can run without revalidation or dtype copies.
            # The mapping also bounds the whole code universe, so the
            # accumulator can reserve its dense table once and skip the
            # per-segment bounds scan, and a constant-size batch (the
            # paper's fixed packet size) is detected here rather than
            # per segment.
            codes = mapping.take(batch.flow_ids)
            in_bounds = bool(mapping.size) and self.reserve_codes(
                int(mapping.min()), int(mapping.max())
            )
            sizes = batch.sizes_bytes
            const_size = int(sizes[0]) if bool((sizes == sizes[0]).all()) else None
            self.observe_sorted_chunk(
                batch.timestamps,
                codes,
                sizes,
                in_bounds=in_bounds,
                const_size=const_size,
            )
            return
        self.observe_chunk(batch.timestamps, mapping[batch.flow_ids], batch.sizes_bytes)

    # ------------------------------------------------------------------
    def _close_open(self) -> None:
        if self._open.num_flows:
            self._completed.append(self._open.account(self._current_bin, self.bin_duration))
            self._open.clear()

    def close_current(self) -> None:
        """Force-close the open bin (end of stream); empty bins close silently."""
        if self._open.num_flows:
            self._close_open()
            self._current_bin += 1

    def close_until(self, bin_index: int) -> None:
        """Close the open bin when it lies strictly before ``bin_index``.

        Used by stream drivers that know time has advanced past the
        open bin even though this engine saw no packet proving it (a
        sampled sub-stream can go quiet while the link does not).
        """
        if bin_index > self._current_bin:
            self._close_open()
            self._current_bin = int(bin_index)

    def evict_smallest(self) -> int:
        """Evict the smallest tracked flow from the open bin (bounded engines).

        Returns
        -------
        int
            The evicted flow's key code.
        """
        if not isinstance(self._open, _BoundedBin):
            raise ValueError("evict_smallest requires an engine with a max_flows bound")
        return self._open.evict_smallest()

    def drain_completed(self) -> list[BinAccount]:
        """Return and forget the bins closed since the previous drain.

        Draining is what keeps long streams in bounded memory: callers
        consume each bin once and the engine retains nothing about it.
        """
        drained = self._completed
        self._completed = []
        return drained

    def flush(self) -> list[BinAccount]:
        """Close the open bin and return every undrained completed bin."""
        self.close_current()
        return self.drain_completed()


__all__ = [
    "BinAccount",
    "FlowAccountingEngine",
    "aggregate_codes",
    "bin_segments",
]
