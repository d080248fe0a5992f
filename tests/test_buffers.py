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
        lambda vals: (
            np.sort(vals),
            np.arange(vals.size, dtype=np.int64),
            np.full(vals.size, 500, dtype=np.int32),
        )
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
        runs = [
            (ts, ids + 100 * index, sizes) for index, (ts, ids, sizes) in enumerate(runs)
        ]
        ts, ids, sizes = merge_sorted_runs(runs)
        expected_ts = np.concatenate([run[0] for run in runs])
        expected_ids = np.concatenate([run[1] for run in runs])
        expected_sizes = np.concatenate([run[2] for run in runs])
        order = np.argsort(expected_ts, kind="stable")
        np.testing.assert_array_equal(ts, expected_ts[order])
        np.testing.assert_array_equal(ids, expected_ids[order])
        np.testing.assert_array_equal(sizes, expected_sizes[order])

    def test_single_run_is_copied(self):
        ts = np.array([1.0, 2.0])
        ids = np.array([3, 4], dtype=np.int64)
        merged_ts, merged_ids, merged_sizes = merge_sorted_runs([(ts, ids, None)])
        assert merged_sizes is None
        assert merged_ts is not ts and merged_ids is not ids
        merged_ts[0] = -1.0
        assert ts[0] == 1.0

    def test_sizes_carried_only_when_all_runs_have_them(self):
        with_sizes = (np.array([0.0]), np.array([0]), np.array([500], dtype=np.int32))
        without = (np.array([1.0]), np.array([1]), None)
        assert merge_sorted_runs([with_sizes, without])[2] is None

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError, match="at least one run"):
            merge_sorted_runs([])

    def test_one_size_is_filled_and_other_sizes_are_gathered(self):
        ts = (np.array([0.0, 2.0]), np.array([1.0, 3.0]))
        ids = (np.array([0, 1]), np.array([2, 3]))

        def merged_sizes(*columns):
            runs = [(t, i, np.asarray(c, dtype=np.int32)) for t, i, c in zip(ts, ids, columns)]
            sizes = merge_sorted_runs(runs)[2]
            assert sizes.dtype == np.int32
            return sizes.tolist()

        assert merged_sizes([500, 500], [500, 500]) == [500, 500, 500, 500]
        assert merged_sizes([40, 40], [500, 500]) == [40, 500, 40, 500]
        assert merged_sizes([40, 500], [500, 500]) == [40, 500, 500, 500]

    def test_empty_runs_keep_their_dtypes(self):
        empty = (np.empty(0), np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int32))
        ts, ids, sizes = merge_sorted_runs([empty, empty])
        assert ts.size == ids.size == sizes.size == 0
        assert (ts.dtype, ids.dtype, sizes.dtype) == (np.float64, np.int64, np.int32)
        filled = (np.array([1.0]), np.array([7]), np.array([64], dtype=np.int32))
        assert merge_sorted_runs([empty, filled, empty])[2].tolist() == [64]


class TestRunQueue:
    def _run(self, *ts):
        arr = np.asarray(ts, dtype=np.float64)
        return arr, np.arange(arr.size, dtype=np.int64), None

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
        queue.append((ts, np.array([0, 1], dtype=np.int64), None))
        (cut_ts, _, _), = queue.cut_below(1.0)
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
    def test_append_consume_replace_cycle(self):
        buf = ChunkBuffer()
        buf.append(np.array([1.0, 2.0]), np.array([5, 6]))
        buf.append(np.array([3.0]), np.array([0]), id_offset=7)
        assert buf.size == 3
        assert buf.timestamps.tolist() == [1.0, 2.0, 3.0]
        assert buf.flow_ids.tolist() == [5, 6, 7]
        assert buf.sizes_bytes is None
        buf.consume(2)
        assert buf.timestamps.tolist() == [3.0]
        buf.replace(np.array([9.0]), np.array([9]))
        assert buf.size == 1 and buf.flow_ids.tolist() == [9]

    def test_sizes_column_round_trip(self):
        buf = ChunkBuffer(with_sizes=True)
        buf.append(
            np.array([0.0]), np.array([1]), sizes_bytes=np.array([1500], dtype=np.int32)
        )
        assert buf.sizes_bytes.tolist() == [1500]
        ts, ids, sizes = buf.run()
        assert sizes is not None and sizes.dtype == np.int32
        with pytest.raises(ValueError, match="append them too"):
            buf.append(np.array([1.0]), np.array([2]))

    def test_grow_returns_writable_views(self):
        buf = ChunkBuffer()
        ts, ids = buf.grow(3)
        ts[:] = [1.0, 2.0, 3.0]
        ids[:] = [7, 8, 9]
        assert buf.timestamps.tolist() == [1.0, 2.0, 3.0]
        assert buf.flow_ids.tolist() == [7, 8, 9]
        with pytest.raises(ValueError, match="sizeless"):
            ChunkBuffer(with_sizes=True).grow(1)

    def test_compaction_and_doubling_preserve_live_region(self):
        buf = ChunkBuffer(capacity=8)
        buf.append(np.arange(6, dtype=np.float64), np.arange(6, dtype=np.int64))
        buf.consume(5)  # live region near the tail
        buf.append(np.arange(4, dtype=np.float64), np.arange(4, dtype=np.int64))
        assert buf.timestamps.tolist() == [5.0, 0.0, 1.0, 2.0, 3.0]
        # Now force an actual reallocation well past capacity.
        buf.append(
            np.arange(5000, dtype=np.float64), np.arange(5000, dtype=np.int64)
        )
        assert buf.size == 5005
        assert buf.timestamps[:5].tolist() == [5.0, 0.0, 1.0, 2.0, 3.0]

    def test_consume_bounds_checked(self):
        buf = ChunkBuffer()
        buf.append(np.array([1.0]), np.array([1]))
        with pytest.raises(ValueError, match="cannot consume"):
            buf.consume(2)

    @settings(max_examples=60, deadline=None)
    @given(
        chunks=st.lists(_values_strategy(max_size=10), min_size=1, max_size=6),
        consume_every=st.integers(1, 3),
    )
    def test_matches_concatenate_reference(self, chunks, consume_every):
        buf = ChunkBuffer()
        reference = np.empty(0)
        for index, chunk in enumerate(chunks):
            ids = np.arange(chunk.size, dtype=np.int64)
            buf.append(chunk, ids)
            reference = np.concatenate((reference, chunk))
            if index % consume_every == 0 and reference.size:
                buf.consume(1)
                reference = reference[1:]
        np.testing.assert_array_equal(buf.timestamps, reference)
