"""Tests for the chunk-assembly primitives (repro.traces.buffers).

The fast assembly backend in :mod:`repro.traces.source` is built on
these three pieces; each is checked against its plain-NumPy semantic
reference — ``stable_sort`` and ``merge_sorted_runs`` property-based
against the stable argsort they must reproduce bit-for-bit.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.traces.buffers import (
    ChunkBuffer,
    RunQueue,
    merge_sorted_runs,
    stable_sort,
)

# Tie-heavy float values: a small pool guarantees equal timestamps.
_VALUE_POOL = [0.0, 0.5, 1.0, 1.0, 2.5, 7.0]


def _values_strategy(max_size: int = 40):
    return st.lists(st.sampled_from(_VALUE_POOL), min_size=0, max_size=max_size).map(
        lambda vals: np.asarray(vals, dtype=np.float64)
    )


def _run_strategy():
    return _values_strategy(max_size=12).map(
        lambda vals: (np.sort(vals), np.arange(vals.size, dtype=np.int64))
    )


class TestStableOrder:
    @settings(max_examples=200, deadline=None)
    @given(values=_values_strategy())
    def test_equals_stable_argsort(self, values):
        order, ordered = stable_sort(values)
        np.testing.assert_array_equal(order, np.argsort(values, kind="stable"))
        # The values come back gathered in that order, in a fresh array.
        np.testing.assert_array_equal(ordered, values[order])
        assert not np.shares_memory(ordered, values)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000), size=st.integers(0, 500))
    def test_equals_stable_argsort_on_random_floats(self, seed, size):
        values = np.random.default_rng(seed).random(size)
        # Random draws rarely tie; inject some to exercise the fix-up.
        if size >= 10:
            values[::7] = 0.25
        np.testing.assert_array_equal(
            stable_sort(values)[0], np.argsort(values, kind="stable")
        )

    def test_all_equal_input(self):
        values = np.full(17, 3.25)
        np.testing.assert_array_equal(stable_sort(values)[0], np.arange(17))


class TestMergeSortedRuns:
    @settings(max_examples=150, deadline=None)
    @given(runs=st.lists(_run_strategy(), min_size=1, max_size=4))
    def test_equals_stable_sort_of_concatenation(self, runs):
        # Make per-run ids globally distinct so tie order is observable.
        runs = [(ts, ids + 100 * index) for index, (ts, ids) in enumerate(runs)]
        ts, ids = merge_sorted_runs(runs)
        expected_ts = np.concatenate([run[0] for run in runs])
        expected_ids = np.concatenate([run[1] for run in runs])
        order = np.argsort(expected_ts, kind="stable")
        np.testing.assert_array_equal(ts, expected_ts[order])
        np.testing.assert_array_equal(ids, expected_ids[order])

    def test_single_run_is_copied(self):
        ts = np.array([1.0, 2.0])
        ids = np.array([3, 4], dtype=np.int64)
        merged_ts, merged_ids = merge_sorted_runs([(ts, ids)])
        assert merged_ts is not ts and merged_ids is not ids
        merged_ts[0] = -1.0
        assert ts[0] == 1.0

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least one run"):
            merge_sorted_runs([])

    def test_empty_runs_keep_their_dtypes(self):
        empty = (np.empty(0), np.empty(0, dtype=np.int64))
        ts, ids = merge_sorted_runs([empty, empty])
        assert ts.size == ids.size == 0
        assert (ts.dtype, ids.dtype) == (np.float64, np.int64)
        filled = (np.array([1.0]), np.array([7]))
        assert merge_sorted_runs([empty, filled, empty])[1].tolist() == [7]


class TestRunQueue:
    def _run(self, *ts):
        arr = np.asarray(ts, dtype=np.float64)
        return arr, np.arange(arr.size, dtype=np.int64)

    def test_empty_runs_skipped_and_bool(self):
        queue = RunQueue()
        assert not queue
        queue.append(self._run())
        assert not queue
        queue.append(self._run(1.0))
        assert queue

    def test_cut_below_walks_whole_runs_and_splits_one(self):
        queue = RunQueue()
        queue.append(self._run(0.0, 1.0))
        queue.append(self._run(1.0, 2.0, 3.0))
        queue.append(self._run(4.0))
        cut = queue.cut_below(2.0)
        assert [run[0].tolist() for run in cut] == [[0.0, 1.0], [1.0]]
        assert queue.last_time() == 4.0
        rest = queue.cut_below(np.inf)
        assert [run[0].tolist() for run in rest] == [[2.0, 3.0], [4.0]]
        assert not queue

    def test_cut_strictly_below_keeps_packet_at_bound(self):
        queue = RunQueue()
        queue.append(self._run(1.0, 2.0))
        assert queue.cut_below(1.0) == []
        assert queue.last_time() == 2.0

    def test_cut_returns_views_not_copies(self):
        ts = np.array([0.0, 5.0])
        queue = RunQueue()
        queue.append((ts, np.array([0, 1], dtype=np.int64)))
        (cut_ts, _), = queue.cut_below(1.0)
        assert cut_ts.base is ts or cut_ts.base is ts.base

    @settings(max_examples=100, deadline=None)
    @given(
        runs=st.lists(_run_strategy(), min_size=1, max_size=4),
        bounds=st.lists(st.sampled_from(_VALUE_POOL + [10.0]), min_size=1, max_size=4),
    )
    def test_successive_cuts_partition_the_stream(self, runs, bounds):
        # Chunks of one source are in time order; sort the run starts.
        runs = [run for run in runs if run[0].size]
        runs.sort(key=lambda run: (run[0][0], run[0][-1]))
        ordered_bounds = sorted(bounds)
        queue = RunQueue()
        position = 0
        for run in runs:
            # Keep runs non-overlapping as the merge loop guarantees.
            if position and run[0].size and run[0][0] < position:
                continue
            queue.append(run)
        kept = [run[0] for run in queue._runs]
        total = np.concatenate(kept) if kept else np.empty(0)
        collected = []
        for bound in ordered_bounds:
            collected.extend(run[0] for run in queue.cut_below(bound))
        collected.extend(run[0] for run in queue.cut_below(np.inf))
        joined = np.concatenate(collected) if collected else np.empty(0)
        np.testing.assert_array_equal(joined, total)


class TestChunkBuffer:
    def test_grow_replace_cycle(self):
        buf = ChunkBuffer()
        ts, ids = buf.grow(2)
        ts[:], ids[:] = [1.0, 2.0], [5, 6]
        ts, ids = buf.grow(1)
        ts[:], ids[:] = 3.0, 7
        assert buf.size == 3
        assert buf.timestamps.tolist() == [1.0, 2.0, 3.0]
        assert buf.flow_ids.tolist() == [5, 6, 7]
        buf.replace(np.array([9.0]), np.array([9]))
        assert buf.size == 1 and buf.flow_ids.tolist() == [9]
        assert buf.timestamps.tolist() == [9.0]

    def test_grow_returns_writable_views(self):
        buf = ChunkBuffer()
        ts, ids = buf.grow(3)
        ts[:] = [1.0, 2.0, 3.0]
        ids[:] = [7, 8, 9]
        assert buf.timestamps.tolist() == [1.0, 2.0, 3.0]
        assert buf.flow_ids.tolist() == [7, 8, 9]

    def test_doubling_preserves_live_region(self):
        buf = ChunkBuffer()
        buf.replace(np.arange(5, dtype=np.float64), np.arange(5, dtype=np.int64))
        first = buf.capacity
        # Force an actual reallocation well past the capacity.
        ts, ids = buf.grow(5000)
        ts[:] = -1.0
        assert buf.size == 5005
        assert buf.capacity >= max(2 * first, 5005)
        assert buf.timestamps[:5].tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert buf.flow_ids[:5].tolist() == [0, 1, 2, 3, 4]

    def test_grow_bounds_checked(self):
        with pytest.raises(ValueError, match="non-negative"):
            ChunkBuffer().grow(-1)

    @settings(max_examples=60, deadline=None)
    @given(
        chunks=st.lists(_values_strategy(max_size=10), min_size=1, max_size=6),
        keep_every=st.integers(1, 3),
    )
    def test_matches_concatenate_reference(self, chunks, keep_every):
        # The expansion's round: grow and fill a block, then replace the
        # buffer by the tail it keeps pending (here: all but the first).
        buf = ChunkBuffer()
        reference = np.empty(0)
        for index, chunk in enumerate(chunks):
            ts, ids = buf.grow(chunk.size)
            ts[:] = chunk
            ids[:] = np.arange(chunk.size, dtype=np.int64)
            reference = np.concatenate((reference, chunk))
            if index % keep_every == 0 and reference.size:
                reference = reference[1:]
                buf.replace(buf.timestamps[1:].copy(), buf.flow_ids[1:].copy())
            np.testing.assert_array_equal(buf.timestamps, reference)
