"""Amortised chunk-assembly primitives for the streaming sources.

The streaming sources in :mod:`repro.traces.source` historically grew
their pending-packet state with ``np.concatenate`` per chunk and
re-sorted it from scratch with a full stable ``np.argsort`` — O(n)
fresh allocations plus an O(n log n) comparison sort per emitted chunk,
which capped packet *generation* near 5M pkt/s while the accounting
engine downstream runs at ~38M pkt/s.  This module provides the
primitives the fast assembly backend is built from:

* :class:`ChunkBuffer` — a growable columnar pending store (timestamps
  and flow ids) whose capacity doubles, so the expansion draws each
  admitted block into it in place instead of concatenating per chunk.
  The buffer is internal state that is never handed out as an emitted
  chunk, so growth can safely reuse its backing arrays.
* :func:`stable_sort` — ``np.argsort(values, kind="stable")``, plus
  the values in that order, built on the (~5x faster on
  random float64 data) default introsort plus an exact tie fix-up:
  within every maximal run of equal values the permutation indices are
  sorted, which restores precisely the original-index order a stable
  sort guarantees.  Use it where the data is *random-dominated* (fresh
  packet placements).
* :func:`merge_sorted_runs` — an exact k-way merge of already-sorted
  runs, with ties resolved run-order-first (earlier run wins).  Use it
  where the data is *run-structured* (per-source pending cuts).

A measured note on :func:`merge_sorted_runs`: the obvious "clever"
implementation — splicing runs pairwise through ``np.searchsorted``
rank arithmetic — was benchmarked against concatenating the runs and
stable-argsorting, and lost in every regime (two equal 262k runs:
26ms spliced vs 14ms timsort; a 500-element run into 262k: 4.0ms vs
1.9ms).  NumPy's stable sort is timsort, whose run detection and
galloping merges make it a near-linear multi-run merge exactly when
the input is a concatenation of sorted runs — so the concat+argsort
shape *is* the fast path here, and the win over the reference backend
comes from sorting only random-dominated blocks with
:func:`stable_sort`, amortising buffer growth, and emitting zero-copy
trusted chunks.  Keep the receipts in mind before "optimising" this
back.

>>> import numpy as np
>>> ts = np.array([3.0, 1.0, 3.0, 2.0])
>>> list(stable_sort(ts)[0]) == list(np.argsort(ts, kind="stable"))
True
>>> merged = merge_sorted_runs([
...     (np.array([1.0, 3.0]), np.array([10, 11])),
...     (np.array([1.0, 2.0]), np.array([20, 21])),
... ])
>>> merged[0].tolist(), merged[1].tolist()
([1.0, 1.0, 2.0, 3.0], [10, 20, 21, 11])
"""

from __future__ import annotations

import numpy as np

#: One sorted run: ``(timestamps, flow_ids)``.
SortedRun = tuple[np.ndarray, np.ndarray]

#: Initial per-column capacity of a freshly grown :class:`ChunkBuffer`.
_MIN_CAPACITY = 1024


def stable_sort(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exact stable argsort of a 1-D float array, and the values in that order.

    ``np.argsort(kind="stable")`` on ``float64`` is a comparison
    timsort — superb on run-structured data, ~5x slower than the
    default introsort on random data.  For random-dominated inputs this
    computes the unstable argsort and then repairs tie order: in the
    sorted output, every maximal run of equal values is located and the
    permutation indices inside the run are sorted ascending — which is
    exactly the original-index order a stable sort yields.  The order
    is bit-identical to the stable argsort for any input without NaNs.

    The tie check gathers the sorted values anyway, so they come back
    too (reordering indices within a run of equal values leaves them
    as they are); they are freshly allocated, safe to emit as zero-copy
    views.

    >>> import numpy as np
    >>> values = np.array([2.0, 1.0, 2.0, 1.0, 2.0])
    >>> order, ordered = stable_sort(values)
    >>> np.array_equal(order, np.argsort(values, kind="stable"))
    True
    >>> ordered.tolist()
    [1.0, 1.0, 2.0, 2.0, 2.0]
    """
    order = np.argsort(values)
    ordered = values[order]
    if order.size < 2:
        return order, ordered
    ties = np.flatnonzero(ordered[1:] == ordered[:-1])
    if ties.size:
        gaps = np.diff(ties) > 1
        run_starts = ties[np.concatenate(([True], gaps))]
        run_ends = ties[np.concatenate((gaps, [True]))] + 2
        for start, end in zip(run_starts, run_ends):
            order[start:end].sort()
    return order, ordered


def merge_sorted_runs(runs: list[SortedRun]) -> SortedRun:
    """Merge sorted runs into one sorted run, earlier runs winning ties.

    Semantically: concatenate the runs in order and stable-sort by
    timestamp — which is also the implementation, because NumPy's
    stable sort (timsort) detects the pre-sorted runs and galloping-
    merges them in near-linear time; see the module docstring for the
    measurements against explicit ``searchsorted`` splicing.  The
    returned columns are freshly allocated, so callers may emit
    zero-copy views into them; a single input run is copied for the
    same reason.

    >>> import numpy as np
    >>> ts, ids = merge_sorted_runs([
    ...     (np.array([0.0, 2.0]), np.array([1, 1])),
    ...     (np.array([0.0, 1.0]), np.array([2, 2])),
    ... ])
    >>> ts.tolist(), ids.tolist()
    ([0.0, 0.0, 1.0, 2.0], [1, 2, 2, 1])
    """
    if not runs:
        raise ValueError("merge_sorted_runs needs at least one run")
    if len(runs) == 1:
        ts, ids = runs[0]
        return ts.copy(), ids.copy()
    ts = np.concatenate([run[0] for run in runs])
    ids = np.concatenate([run[1] for run in runs])
    order = np.argsort(ts, kind="stable")
    return ts[order], ids[order]


class RunQueue:
    """FIFO of sorted runs forming one part's pending stream, zero-copy.

    Used by the merge fast path: each loaded chunk is enqueued as a
    run of *views* (no copy — inner sources emit freshly allocated or
    immutable columns), and :meth:`cut_below` slices off everything
    strictly below a bound as a list of runs ready for
    :func:`merge_sorted_runs`.  Runs are non-overlapping and in time
    order (chunks of one source are), so the cut walks whole runs and
    splits at most one.

    >>> import numpy as np
    >>> queue = RunQueue()
    >>> queue.append((np.array([1.0, 2.0]), np.array([1, 2])))
    >>> queue.append((np.array([2.0, 3.0]), np.array([3, 4])))
    >>> [run[0].tolist() for run in queue.cut_below(2.0)]
    [[1.0]]
    >>> queue.last_time()
    3.0
    """

    __slots__ = ("_runs",)

    def __init__(self) -> None:
        self._runs: list[SortedRun] = []

    def __bool__(self) -> bool:
        return bool(self._runs)

    def append(self, run: SortedRun) -> None:
        """Enqueue a non-empty sorted run (views are fine; never copied)."""
        if run[0].size:
            self._runs.append(run)

    def last_time(self) -> float:
        """Timestamp of the last pending packet (queue must be non-empty)."""
        return float(self._runs[-1][0][-1])

    def cut_below(self, bound: float) -> list[SortedRun]:
        """Detach and return every pending packet strictly below ``bound``.

        The returned runs preserve arrival (load) order, so merging
        them with earlier parts' runs first reproduces the reference
        tie order exactly.
        """
        out: list[SortedRun] = []
        for position, (ts, ids) in enumerate(self._runs):
            if ts[0] >= bound:
                # This and every later run sit at/after the bound.
                self._runs = self._runs[position:]
                return out
            if ts[-1] < bound:
                out.append((ts, ids))
                continue
            cut = int(np.searchsorted(ts, bound, side="left"))
            out.append((ts[:cut], ids[:cut]))
            self._runs = [(ts[cut:], ids[cut:]), *self._runs[position + 1 :]]
            return out
        self._runs = []
        return out


class ChunkBuffer:
    """Growable columnar store for the expansion's pending (unemitted) packets.

    Columns are ``timestamps`` (float64) and ``flow_ids`` (int64).
    :meth:`grow` hands out the next uninitialised stretch for the caller
    to fill in place, doubling the capacity when it runs out, and
    :meth:`replace` resets the buffer to a round's pending tail.

    The buffer's backing arrays are *reused* across calls, so nothing
    obtained from :attr:`timestamps` / :attr:`flow_ids` may be emitted or
    retained beyond the next mutating call — the expansion only ever
    reads the views while gathering into freshly allocated output
    arrays.

    >>> import numpy as np
    >>> buf = ChunkBuffer()
    >>> buf.replace(np.array([2.0]), np.array([8]))
    >>> ts, ids = buf.grow(1)
    >>> ts[:], ids[:] = 3.0, 9
    >>> buf.timestamps.tolist(), buf.flow_ids.tolist()
    ([2.0, 3.0], [8, 9])
    """

    __slots__ = ("_ts", "_ids", "_size")

    def __init__(self) -> None:
        self._ts = np.empty(0, dtype=np.float64)
        self._ids = np.empty(0, dtype=np.int64)
        self._size = 0

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of live (pending) packets."""
        return self._size

    @property
    def capacity(self) -> int:
        """Allocated per-column capacity in packets (telemetry surface)."""
        return int(self._ts.size)

    @property
    def timestamps(self) -> np.ndarray:
        """View of the live timestamps (valid until the next mutation)."""
        return self._ts[: self._size]

    @property
    def flow_ids(self) -> np.ndarray:
        """View of the live flow ids (valid until the next mutation)."""
        return self._ids[: self._size]

    # ------------------------------------------------------------------
    def _reserve(self, needed: int) -> None:
        """Make room for ``needed`` packets in all, keeping the live ones."""
        if needed <= self._ts.size:
            return
        capacity = max(self._ts.size * 2, needed, _MIN_CAPACITY)
        ts = np.empty(capacity, dtype=np.float64)
        ids = np.empty(capacity, dtype=np.int64)
        ts[: self._size] = self._ts[: self._size]
        ids[: self._size] = self._ids[: self._size]
        self._ts = ts
        self._ids = ids

    def grow(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """Extend the live region by ``count`` uninitialised packets.

        Returns mutable ``(timestamps, flow_ids)`` views of the new
        region for the caller to fill in place — e.g. drawing packet
        placements directly into the buffer with ``rng.random(out=...)``
        instead of allocating a temporary per chunk.
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        lo, hi = self._size, self._size + count
        self._reserve(hi)
        self._size = hi
        return self._ts[lo:hi], self._ids[lo:hi]

    def replace(self, timestamps: np.ndarray, flow_ids: np.ndarray) -> None:
        """Reset the buffer to exactly the given columns (copied in)."""
        count = int(timestamps.size)
        self._size = 0
        self._reserve(count)
        self._ts[:count] = timestamps
        self._ids[:count] = flow_ids
        self._size = count


__all__ = ["ChunkBuffer", "RunQueue", "SortedRun", "merge_sorted_runs", "stable_sort"]
