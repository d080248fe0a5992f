"""Group-by kernels for per-flow packet counting.

The accounting engine reduces each measurement bin to a packet count
per flow, keyed by non-negative ``int64`` key codes (flow group ids).
This module holds the kernels that perform that reduction:

* :class:`HashAccumulator` — the unbounded engine's accumulator: an
  open-addressing ``int64`` hash table that counts packets in one pass
  per segment, with no per-chunk sort and no sorted-union merge between
  chunks.  Codes drawn from a small contiguous universe (the common
  case: the dense group ids of a pipeline plan) use *identity
  addressing* — the degenerate perfect hash — while sparse codes fall
  back to Fibonacci hashing with linear probing.  Given per-stream keep
  masks it also counts each sampled stream's packets per flow, in
  compact columns that share the table's code→slot map.
* :func:`aggregate_codes` — a sort-based group-by of one segment.  The
  bounded engine folds a segment that cannot overflow its table
  through it, so it is the designated home of the sorts that
  reprolint rule ``REP205`` bans elsewhere on the accounting path.

The kernels are pure NumPy.  The hash accumulator is bit-identical to
a sort-based group-by by construction: packet counts are integer
additions, which do not depend on accumulation order, and codes are
emitted in ascending order.
``tests/test_groupby.py`` asserts the equivalence property-based
against the sort-based oracle (``tests/oracles/groupby.py``), including
adversarial codes that collide modulo the table size.  A negative code
raises :class:`ValueError`, so no code can equal :data:`EMPTY_SLOT`.

>>> import numpy as np
>>> acc = HashAccumulator()
>>> acc.ingest(np.array([7, 9, 7]))
>>> codes, packets, _ = acc.extract()
>>> codes.tolist(), packets.tolist()
([7, 9], [2, 1])
"""

from __future__ import annotations

import numpy as np

#: Sentinel marking an unoccupied slot in a probing table.  Codes are
#: non-negative, so none equals it.
EMPTY_SLOT = np.int64(np.iinfo(np.int64).min)

#: Fibonacci-hash multiplier (2^64 / phi, odd), the classic
#: multiplicative-hash constant: consecutive codes scatter across the
#: table while the top bits stay uniform for any table size.
HASH_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)

#: Largest slot count an identity-addressed (dense) table may use.
#: Codes spanning more than this fall back to probing.  2^20 slots is
#: 32 MiB of accumulator state per open bin — small next to the packet
#: columns flowing through the engine.
DENSE_SPAN_LIMIT = 1 << 20

#: Initial probing-table size (slots); grows by doubling at 50% load.
_INITIAL_PROBE_SLOTS = 1 << 12


def aggregate_codes(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group-by-code packet counts of one segment (sort-based).

    Parameters
    ----------
    codes:
        Integer key code of every packet.

    Returns
    -------
    tuple[numpy.ndarray, numpy.ndarray]
        ``(codes, packets)`` with one entry per distinct code, codes
        sorted ascending.

    >>> unique, packets = aggregate_codes(np.array([9, 7, 9]))
    >>> unique.tolist(), packets.tolist()
    ([7, 9], [1, 2])
    """
    codes = np.asarray(codes, dtype=np.int64)
    if codes.size == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    sorted_codes = np.sort(codes)
    starts = np.concatenate(([0], np.flatnonzero(np.diff(sorted_codes)) + 1))
    return sorted_codes[starts], np.diff(np.append(starts, codes.size))


def _next_pow2(value: int) -> int:
    return 1 << max(int(value) - 1, 1).bit_length()


def _probe_slots(keys: np.ndarray, codes: np.ndarray, shift: int) -> np.ndarray:
    """Find-or-insert every code into an open-addressing key table.

    ``keys`` is mutated: previously unseen codes claim the first empty
    slot on their probe sequence.  Returns the slot index per packet.

    The loop is vectorised over the *unresolved* packets: each round
    gathers the keys at the current probe position, resolves hits,
    lets misses race for empty slots with a write-then-read-back (all
    duplicates of one code share the same probe sequence, so whichever
    write lands, every packet of that code resolves to the same slot),
    and advances only the losers to the next slot.
    """
    mask = np.int64(keys.size - 1)
    with np.errstate(over="ignore"):
        slots = ((codes.view(np.uint64) * HASH_MULTIPLIER) >> np.uint64(shift)).astype(
            np.int64
        )
    current = keys[slots]
    miss = current != codes
    if not miss.any():
        return slots
    unresolved = np.flatnonzero(miss)
    probe = slots[unresolved]
    while unresolved.size:
        wanted = codes[unresolved]
        current = keys[probe]
        resolved = current == wanted
        empty = current == EMPTY_SLOT
        if empty.any():
            keys[probe[empty]] = wanted[empty]
            resolved |= keys[probe] == wanted
        slots[unresolved[resolved]] = probe[resolved]
        keep = ~resolved
        unresolved = unresolved[keep]
        probe = (probe[keep] + 1) & mask
    return slots


class HashAccumulator:
    """Open-addressing accumulator of per-code packet counts.

    One instance accumulates a single measurement bin: call
    :meth:`ingest` once per chunk segment and :meth:`extract` when the
    bin closes.  The table starts *dense* (identity addressing over the
    observed code span) whenever the span fits
    :data:`DENSE_SPAN_LIMIT`, and degrades to Fibonacci-hash linear
    probing the moment the span outgrows it — so dense group ids never
    probe at all while sparse codes stay correct.

    Per-stream sampled counts ride along when :meth:`ingest` is given
    ``keep_masks``: every flow the open bin sees gets the next free
    *column* (columns are compact — one per flow of the bin, not one per
    slot of the code span), packets reach their column through one
    gather per segment, and each stream adds one ``bincount`` of its
    kept packets.  :meth:`extract` returns the columns in code order.
    """

    __slots__ = (
        "_base",
        "_slots",
        "_dense",
        "_keys",
        "_shift",
        "_packets",
        "_used",
        "_empty",
        "_column",
        "_columns",
        "_sampled",
        "_streams",
    )

    def __init__(self) -> None:
        self._slots = 0
        self._used = 0
        self._dense = False
        self._empty = True
        #: Sampled counts, one row per stream and one column per flow of
        #: the open bin (``_columns`` in use); ``_streams`` is the number
        #: of keep masks the bin was ingested with, ``None`` for none.
        self._columns = 0
        self._sampled: np.ndarray | None = None
        self._streams: int | None = None

    # ------------------------------------------------------------------
    @property
    def num_flows(self) -> int:
        """Number of distinct codes accumulated so far."""
        if self._slots and self._dense:
            return int(np.count_nonzero(self._packets))
        return self._used

    def clear(self) -> None:
        """Reset all counts, keeping the table layout for reuse."""
        self._used = 0
        self._empty = True
        if self._sampled is not None:
            self._sampled[:, : self._columns] = 0
        self._columns = 0
        self._streams = None
        if self._slots:
            self._packets.fill(0)
            if not self._dense:
                self._keys.fill(EMPTY_SLOT)

    def reserve_dense(self, low: int, high: int) -> bool:
        """Pre-size the table for a known code universe.

        Returns ``True`` when the table is identity-addressed and covers
        ``[low, high]`` afterwards — the caller may then pass
        ``in_bounds=True`` to :meth:`ingest` for codes drawn from that
        range, skipping the per-segment bounds scan entirely.  A
        negative ``low`` raises :class:`ValueError`.
        """
        low = int(low)
        high = int(high)
        if low < 0:
            raise ValueError(f"key codes must be non-negative group ids, got {low}")
        self._ensure_capacity(low, high, 0)
        return bool(
            self._dense and low >= self._base and high < self._base + self._slots
        )

    # ------------------------------------------------------------------
    def _allocate(self, dense: bool, base: int, slots: int) -> None:
        self._dense = dense
        self._base = base
        self._slots = slots
        self._shift = 64 - (slots.bit_length() - 1)
        self._keys = (
            np.empty(0, dtype=np.int64)
            if dense
            else np.full(slots, EMPTY_SLOT, dtype=np.int64)
        )
        self._packets = np.zeros(slots, dtype=np.int64)
        # A slot gets its column when it goes live under keep masks; dead
        # slots' columns are never read.
        self._column = np.empty(slots, dtype=np.int64)
        self._empty = True

    def _live_slots(self) -> np.ndarray:
        return np.flatnonzero(self._packets != 0)

    def _rebuild(self, dense: bool, base: int, slots: int) -> None:
        """Move live counts into a fresh table layout."""
        live = self._live_slots() if self._slots else np.empty(0, dtype=np.int64)
        if live.size:
            codes = (live + self._base) if self._dense else self._keys[live]
            packets = self._packets[live]
            columns = self._column[live]
        self._allocate(dense, base, slots)
        if live.size:
            if dense:
                target = codes - base
            else:
                target = _probe_slots(self._keys, codes, self._shift)
            self._packets[target] = packets
            self._column[target] = columns
            self._used = int(live.size)
            self._empty = False

    def _ensure_capacity(self, low: int, high: int, incoming: int) -> None:
        """Choose/grow the table so ``[low, high]`` codes can be ingested."""
        if self._slots == 0:
            span = high - low + 1
            if span <= DENSE_SPAN_LIMIT:
                self._allocate(True, low, _next_pow2(span))
            else:
                self._allocate(
                    False, 0, max(_INITIAL_PROBE_SLOTS, _next_pow2(2 * incoming))
                )
            return
        if self._dense:
            if low >= self._base and high < self._base + self._slots:
                return
            merged_low = min(low, self._base)
            merged_high = max(high, self._base + self._slots - 1)
            span = merged_high - merged_low + 1
            if span <= DENSE_SPAN_LIMIT:
                self._rebuild(True, merged_low, _next_pow2(span))
            else:
                used = int(np.count_nonzero(self._packets))
                self._rebuild(
                    False, 0, max(_INITIAL_PROBE_SLOTS, _next_pow2(2 * (used + incoming)))
                )
            return
        if 2 * (self._used + incoming) > self._slots:
            self._rebuild(False, 0, _next_pow2(2 * (self._used + incoming)))

    # ------------------------------------------------------------------
    def ingest(
        self,
        codes: np.ndarray,
        *,
        in_bounds: bool = False,
        keep_masks: np.ndarray | None = None,
    ) -> None:
        """Count one segment of packets.

        Parameters
        ----------
        codes:
            Key code of every packet (``int64``).
        in_bounds:
            Caller guarantee that every code lies inside the dense range
            last confirmed by :meth:`reserve_dense`, letting ingest skip
            its own bounds scan.  Ignored unless the table is dense.
        keep_masks:
            Optional ``(streams, packets)`` boolean array: row ``s``
            flags the packets sampled stream ``s`` keeps.  Their counts
            per flow accumulate in the bin's stream columns.  Every
            segment of one bin must carry masks for the same number of
            streams, or none.

        The bounds scan raises :class:`ValueError` on a negative code.
        Out-of-range codes smuggled past ``in_bounds`` fail loudly too:
        the slot bincount rejects negative slots and over-long counts
        break the accumulate shapes — counts are never silently wrong.
        """
        if codes.size == 0:
            return
        streams = None if keep_masks is None else len(keep_masks)
        if self._empty:
            self._streams = streams
        elif streams != self._streams:
            raise ValueError("every segment of a bin must carry keep masks for the same streams")
        dense = self._slots != 0 and self._dense
        if not (in_bounds and dense):
            low = int(codes.min())
            if low < 0:
                raise ValueError(f"key codes must be non-negative group ids, got {low}")
            high = int(codes.max())
            self._ensure_capacity(low, high, codes.size)
            dense = self._dense
        if dense:
            slots = codes - self._base if self._base else codes
        else:
            slots = _probe_slots(self._keys, codes, self._shift)
        counts = np.bincount(slots, minlength=self._slots)
        if keep_masks is not None or not dense:
            # Slots this segment brings to life: probing tables count
            # them, and each takes the next free stream column.
            new = np.flatnonzero((self._packets == 0) & (counts != 0))
            self._used += int(new.size)
            if keep_masks is not None:
                self._count_sampled(new, slots, keep_masks)
        self._packets += counts
        self._empty = False

    def _count_sampled(
        self, new: np.ndarray, slots: np.ndarray, keep_masks: np.ndarray
    ) -> None:
        """Give the segment's new flows columns, then count each stream's kept packets."""
        start = self._columns
        columns = self._columns = start + int(new.size)
        self._column[new] = np.arange(start, columns)
        sampled = self._sampled
        if sampled is None or sampled.shape[0] != len(keep_masks) or sampled.shape[1] < columns:
            grown = np.zeros((len(keep_masks), _next_pow2(columns)), dtype=np.int64)
            if sampled is not None and start:
                grown[:, :start] = sampled[:, :start]
            self._sampled = sampled = grown
        column_of_packet = self._column[slots]
        for row, mask in enumerate(keep_masks):
            # flatnonzero + take gathers ~2x faster than a boolean index.
            kept = column_of_packet.take(np.flatnonzero(mask))
            sampled[row, :columns] += np.bincount(kept, minlength=columns)

    # ------------------------------------------------------------------
    def extract(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """Return ``(codes, packets, sampled)`` sorted by code.

        ``sampled`` is the ``(streams, flows)`` array of per-stream
        packet counts, aligned with ``codes``, when the bin was ingested
        with ``keep_masks``; ``None`` otherwise.
        """
        if self._slots == 0:
            live = np.empty(0, dtype=np.int64)
        else:
            live = self._live_slots()
        if self._dense or live.size == 0:
            codes = live + self._base if self._slots else live
            selected = live
        else:
            keys = self._keys[live]
            # One sort of the *unique* keys per bin close — O(F log F)
            # on flows, not O(N log N) on packets.
            order = np.argsort(keys)  # reprolint: disable=hot-path-sort -- sorts unique flows once per extract, not per packet
            codes = keys[order]
            selected = live[order]
        packets = self._packets[selected]
        sampled = None
        if self._streams is not None and self._sampled is not None:
            # take() keeps each stream's row contiguous for scoring;
            # indexing with [:, positions] strides rows by the stream count.
            sampled = self._sampled[:, : self._columns].take(self._column[selected], axis=1)
        return codes, packets, sampled


__all__ = [
    "DENSE_SPAN_LIMIT",
    "EMPTY_SLOT",
    "HASH_MULTIPLIER",
    "HashAccumulator",
    "aggregate_codes",
]
