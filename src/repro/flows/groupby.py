"""Group-by kernels for per-flow accumulation.

The accounting engine reduces each measurement bin to per-flow
``(packets, bytes, first_seen, last_seen)`` tuples keyed by ``int64``
key codes.  This module holds the kernels that perform that reduction:

* :class:`HashAccumulator` — the unbounded engine's accumulator: an
  open-addressing ``int64`` hash table that accumulates all four
  statistics in one pass per segment, with no per-chunk sort and no
  sorted-union merge between chunks.  Codes drawn from a small
  contiguous universe (the common case: interned five-tuple codes,
  group ids) use *identity addressing* — the degenerate perfect hash —
  while arbitrary codes fall back to Fibonacci hashing with linear
  probing.  Given per-stream keep masks it also counts each sampled
  stream's packets per flow, in compact columns that share the table's
  code→slot map.
* :func:`aggregate_codes` / :func:`sort_group_index` — a stable
  ``argsort`` + ``reduceat`` group-by of one segment.  The bounded
  engine folds a segment that cannot overflow its table through it, so
  these two functions are the designated home of the sorts that
  reprolint rule ``REP205`` bans elsewhere on the accounting path.

The kernels are pure NumPy.  The hash accumulator is bit-identical to
a sort-based group-by by construction: packet counts and byte sums are
integer additions and first/last timestamps are floating min/max
selections, none of which depend on accumulation order, and codes are
emitted in ascending order.
``tests/test_groupby.py`` asserts the equivalence property-based
against the sort-based oracle (``tests/oracles/groupby.py``), including
adversarial codes that collide modulo the table size.

>>> import numpy as np
>>> acc = HashAccumulator()
>>> acc.ingest(np.array([0.0, 1.0, 2.0]), np.array([7, 9, 7]),
...            np.array([500, 500, 500]), time_sorted=True)
>>> codes, packets, _, first, last, _ = acc.extract()
>>> codes.tolist(), packets.tolist(), first.tolist(), last.tolist()
([7, 9], [2, 1], [0.0, 1.0], [2.0, 1.0])
"""

from __future__ import annotations

import numpy as np

#: Sentinel marking an unoccupied slot in a probing table.  A real key
#: equal to the sentinel is tracked in a scalar side-car instead.
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


def sort_group_index(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable group-by index of one code column.

    Parameters
    ----------
    codes:
        Integer key code of every packet.

    Returns
    -------
    tuple[numpy.ndarray, numpy.ndarray, numpy.ndarray]
        ``(order, sorted_codes, starts)``: the stable sort permutation,
        the codes in sorted order, and the start offset of every
        distinct-code run within ``sorted_codes``.

    >>> order, sorted_codes, starts = sort_group_index(np.array([9, 7, 9]))
    >>> order.tolist(), sorted_codes.tolist(), starts.tolist()
    ([1, 0, 2], [7, 9, 9], [0, 1])
    """
    codes = np.asarray(codes, dtype=np.int64)
    order = np.argsort(codes, kind="stable")
    sorted_codes = codes[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(sorted_codes)) + 1))
    return order, sorted_codes, starts


def aggregate_codes(
    codes: np.ndarray,
    timestamps: np.ndarray,
    sizes_bytes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Group-by-code aggregation of one packet segment (sort-based).

    Parameters
    ----------
    codes:
        Integer key code of every packet.
    timestamps, sizes_bytes:
        Matching per-packet columns.

    Returns
    -------
    tuple of arrays
        ``(codes, packets, bytes, first_seen, last_seen)`` with one
        entry per distinct code, codes sorted ascending.
    """
    codes = np.asarray(codes, dtype=np.int64)
    timestamps = np.asarray(timestamps, dtype=np.float64)
    sizes = np.asarray(sizes_bytes, dtype=np.int64)
    if codes.size == 0:
        empty_i = np.empty(0, dtype=np.int64)
        empty_f = np.empty(0, dtype=np.float64)
        return empty_i, empty_i.copy(), empty_i.copy(), empty_f, empty_f.copy()
    order, sorted_codes, starts = sort_group_index(codes)
    unique = sorted_codes[starts]
    packets = np.diff(np.append(starts, codes.size)).astype(np.int64)
    byte_sums = np.add.reduceat(sizes[order], starts)
    first = np.minimum.reduceat(timestamps[order], starts)
    last = np.maximum.reduceat(timestamps[order], starts)
    return unique, packets, byte_sums, first, last


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
    """Open-addressing accumulator of per-code flow statistics.

    One instance accumulates a single measurement bin: call
    :meth:`ingest` once per chunk segment and :meth:`extract` when the
    bin closes.  The table starts *dense* (identity addressing over the
    observed code span) whenever the span fits
    :data:`DENSE_SPAN_LIMIT`, and degrades to Fibonacci-hash linear
    probing the moment the span outgrows it — so interned code
    universes never probe at all while arbitrary ``int64`` codes stay
    correct.

    Per-stream sampled counts ride along when :meth:`ingest` is given
    ``keep_masks``: every flow the open bin sees gets the next free
    *column* (columns are compact — one per flow of the bin, not one per
    slot of the code span), packets reach their column through one
    gather per segment, and each stream adds one ``bincount`` of its
    kept packets.  :meth:`extract` returns the columns in code order.

    Parameters
    ----------
    dense_bounds:
        Optional ``(min_code, max_code)`` hint for the whole code
        universe (e.g. from an interning encoder).  When the span fits
        the dense limit the table is allocated once and never rebuilt.
    """

    __slots__ = (
        "_base",
        "_slots",
        "_dense",
        "_keys",
        "_shift",
        "_packets",
        "_bytes",
        "_first",
        "_last",
        "_scratch",
        "_used",
        "_empty",
        "_sentinel",
        "_minmax_primed",
        "_const_size",
        "_bytes_live",
        "_column",
        "_columns",
        "_sampled",
        "_streams",
    )

    def __init__(self, dense_bounds: tuple[int, int] | None = None) -> None:
        self._slots = 0
        self._used = 0
        self._dense = False
        self._empty = True
        self._minmax_primed = False
        #: Uniform packet size while byte sums are deferred (see ingest).
        self._const_size: int | None = None
        #: True once ``_bytes`` holds materialised per-slot byte sums.
        self._bytes_live = False
        #: [packets, bytes, first, last] for a key equal to EMPTY_SLOT.
        self._sentinel: list | None = None
        #: Sampled counts, one row per stream and one column per flow of
        #: the open bin (``_columns`` in use); ``_streams`` is the number
        #: of keep masks the bin was ingested with, ``None`` for none.
        self._columns = 0
        self._sampled: np.ndarray | None = None
        self._streams: int | None = None
        if dense_bounds is not None:
            low, high = int(dense_bounds[0]), int(dense_bounds[1])
            span = high - low + 1
            if 0 < span <= DENSE_SPAN_LIMIT:
                self._allocate(True, low, _next_pow2(span))

    # ------------------------------------------------------------------
    @property
    def num_flows(self) -> int:
        """Number of distinct codes accumulated so far."""
        if self._slots and self._dense:
            used = int(np.count_nonzero(self._packets))
        else:
            used = self._used
        return used + (1 if self._sentinel is not None else 0)

    def clear(self) -> None:
        """Reset all statistics, keeping the table layout for reuse."""
        self._used = 0
        self._empty = True
        self._sentinel = None
        self._minmax_primed = False
        self._const_size = None
        self._bytes_live = False
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
        range, skipping the per-segment bounds scan entirely.
        """
        low = int(low)
        high = int(high)
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
        # bytes/first/last/column stay garbage for dead slots: byte sums
        # are deferred while packet sizes are uniform (_materialise_bytes
        # overwrites every slot when they stop being), first/last are
        # primed lazily only when a reduction-based ingest needs them, and
        # a slot gets its column when it goes live under keep masks.
        self._bytes = np.empty(slots, dtype=np.int64)
        self._first = np.empty(slots)
        self._last = np.empty(slots)
        self._scratch = np.empty(slots)
        self._column = np.empty(slots, dtype=np.int64)
        self._empty = True
        self._minmax_primed = False
        self._const_size = None
        self._bytes_live = False

    def _prime_minmax(self) -> None:
        """Give every dead slot min/max identities before ``ufunc.at`` runs."""
        if not self._minmax_primed:
            dead = self._packets == 0
            self._first[dead] = np.inf
            self._last[dead] = -np.inf
            self._minmax_primed = True

    def _materialise_bytes(self) -> None:
        """Expand deferred constant-size byte sums into ``_bytes``."""
        np.multiply(self._packets, self._const_size or 0, out=self._bytes)
        self._const_size = None
        self._bytes_live = True

    def _live_slots(self) -> np.ndarray:
        return np.flatnonzero(self._packets != 0)

    def _rebuild(self, dense: bool, base: int, slots: int) -> None:
        """Move live statistics into a fresh table layout."""
        live = self._live_slots() if self._slots else np.empty(0, dtype=np.int64)
        if live.size:
            codes = (live + self._base) if self._dense else self._keys[live]
            packets = self._packets[live]
            if self._bytes_live:
                byte_sums = self._bytes[live]
            else:
                byte_sums = packets * (self._const_size or 0)
            first = self._first[live]
            last = self._last[live]
            columns = self._column[live]
        self._allocate(dense, base, slots)
        if live.size:
            if dense:
                target = codes - base
            else:
                target = _probe_slots(self._keys, codes, self._shift)
            self._packets[target] = packets
            self._bytes.fill(0)
            self._bytes[target] = byte_sums
            self._bytes_live = True
            self._first[target] = first
            self._last[target] = last
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
        timestamps: np.ndarray,
        codes: np.ndarray,
        sizes: np.ndarray,
        *,
        time_sorted: bool,
        in_bounds: bool = False,
        const_size: int | None = None,
        keep_masks: np.ndarray | None = None,
    ) -> None:
        """Accumulate one segment of packets.

        Parameters
        ----------
        timestamps, codes, sizes:
            Aligned per-packet columns (``float64`` / ``int64`` /
            ``int64``).
        time_sorted:
            ``True`` when ``timestamps`` is non-decreasing *and* no
            earlier ingest into this accumulator saw a later timestamp.
            Enables scatter-store first/last updates; when ``False``
            the exact ``minimum.at`` / ``maximum.at`` reductions run
            instead.  Both produce the same statistics.
        in_bounds:
            Caller guarantee that every code lies inside the dense range
            last confirmed by :meth:`reserve_dense` (which also rules
            out :data:`EMPTY_SLOT`), letting ingest skip its own bounds
            scan.  Ignored unless the table is dense.
        const_size:
            Caller guarantee that every entry of ``sizes`` equals this
            value; ``None`` means unknown and ingest checks itself.
        keep_masks:
            Optional ``(streams, packets)`` boolean array: row ``s``
            flags the packets sampled stream ``s`` keeps.  Their counts
            per flow accumulate in the bin's stream columns.  Every
            segment of one bin must carry masks for the same number of
            streams, or none.

        Out-of-range codes smuggled past ``in_bounds`` fail loudly: the
        slot bincount rejects negative slots and over-long counts break
        the accumulate shapes — statistics are never silently wrong.
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
            high = int(codes.max())
            if low == int(EMPTY_SLOT):
                if keep_masks is not None:
                    raise ValueError("keep masks cannot accompany the EMPTY_SLOT code")
                timestamps, codes, sizes, low = self._ingest_sentinel(
                    timestamps, codes, sizes
                )
                if codes.size == 0:
                    return
            self._ensure_capacity(low, high, codes.size)
            dense = self._dense
        if dense:
            slots = codes - self._base if self._base else codes
        else:
            slots = _probe_slots(self._keys, codes, self._shift)
        counts = np.bincount(slots, minlength=self._slots)
        if keep_masks is not None:
            self._count_sampled(slots, counts, keep_masks)
        if const_size is None:
            first_size = int(sizes[0])
            if bool((sizes == first_size).all()):
                const_size = first_size
        # Byte sums for constant-size traffic (synthetic traces, fixed
        # MTU) are just scaled packet counts — and while every segment
        # shares one size they are not even accumulated: extract scales
        # the packet counts directly.  The first segment that breaks the
        # pattern materialises the sums and accumulation turns eager.
        if not self._bytes_live:
            if const_size is not None and (
                self._empty or self._const_size == const_size
            ):
                self._const_size = const_size
            else:
                self._materialise_bytes()
        if self._bytes_live:
            if const_size is not None:
                self._bytes += counts * const_size
            elif sizes.dtype == np.int64:
                np.add.at(self._bytes, slots, sizes)
            else:
                np.add.at(self._bytes, slots, sizes.astype(np.int64))
        new_count = 0
        if time_sorted:
            # Non-decreasing time: the first occurrence of a new code is
            # its minimum and a plain scatter (last write wins) yields
            # the maximum, so neither needs a reduction.
            if self._empty:
                # Every touched slot is new — scatter first/last straight
                # into the table, no new-slot detection pass at all.
                self._first[slots[::-1]] = timestamps[::-1]
                new_count = -1
            else:
                new = np.flatnonzero((self._packets == 0) & (counts != 0))
                scratch = self._scratch
                scratch[slots[::-1]] = timestamps[::-1]
                self._first[new] = scratch[new]
                new_count = int(new.size)
            self._last[slots] = timestamps
        else:
            self._prime_minmax()
            if not dense:
                new = np.flatnonzero((self._packets == 0) & (counts != 0))
                new_count = int(new.size)
            else:
                new_count = -1
            np.minimum.at(self._first, slots, timestamps)
            np.maximum.at(self._last, slots, timestamps)
        self._packets += counts
        if new_count >= 0:
            self._used += new_count
        elif not dense:
            self._used = int(np.count_nonzero(self._packets))
        self._empty = False

    def _count_sampled(
        self, slots: np.ndarray, counts: np.ndarray, keep_masks: np.ndarray
    ) -> None:
        """Give the segment's new flows columns, then count each stream's kept packets."""
        new = np.flatnonzero((self._packets == 0) & (counts != 0))
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

    def _ingest_sentinel(
        self, timestamps: np.ndarray, codes: np.ndarray, sizes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Split off packets whose code equals the table sentinel."""
        hit = codes == EMPTY_SLOT
        record = self._sentinel
        if record is None:
            record = self._sentinel = [0, 0, np.inf, -np.inf]
        record[0] += int(np.count_nonzero(hit))
        record[1] += int(sizes[hit].sum())
        record[2] = min(record[2], float(timestamps[hit].min()))
        record[3] = max(record[3], float(timestamps[hit].max()))
        keep = ~hit
        codes = codes[keep]
        low = int(codes.min()) if codes.size else 0
        return timestamps[keep], codes, sizes[keep], low

    # ------------------------------------------------------------------
    def extract(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
        """Return ``(codes, packets, bytes, first, last, sampled)`` sorted by code.

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
        if self._bytes_live:
            byte_sums = self._bytes[selected]
        else:
            byte_sums = packets * (self._const_size or 0)
        first = self._first[selected]
        last = self._last[selected]
        sampled = None
        if self._streams is not None and self._sampled is not None:
            # take() keeps each stream's row contiguous for scoring;
            # indexing with [:, positions] strides rows by the stream count.
            sampled = self._sampled[:, : self._columns].take(self._column[selected], axis=1)
        if self._sentinel is not None:
            record = self._sentinel
            codes = np.concatenate(([EMPTY_SLOT], codes))
            packets = np.concatenate(([record[0]], packets))
            byte_sums = np.concatenate(([record[1]], byte_sums))
            first = np.concatenate(([record[2]], first))
            last = np.concatenate(([record[3]], last))
        return codes, packets, byte_sums, first, last, sampled


__all__ = [
    "DENSE_SPAN_LIMIT",
    "EMPTY_SLOT",
    "HASH_MULTIPLIER",
    "HashAccumulator",
    "aggregate_codes",
    "sort_group_index",
]
