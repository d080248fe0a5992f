"""Property tests: the hash group-by kernel is bit-identical to a sort-based group-by.

The hash-accumulator kernel (:mod:`repro.flows.groupby`) is the
flow-accounting engine's unbounded accumulator.  Its contract is *bit
identity* with the ``argsort`` + ``reduceat`` group-by it replaced (the
oracle in ``tests/oracles/groupby.py``): for any packet stream, any
chunking, dense or sparse code spaces, adversarial hash collisions, and
the :data:`~repro.flows.groupby.EMPTY_SLOT` sentinel code, the engine
produces exactly the same bins as the sort-based engine.  Everything
here asserts exactly that, plus the kernel-internal paths (dense
reservation, deferred byte sums, probing collisions) that the
engine-level streams may not reach every run.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.groupby import sort_engine

from repro.flows.accounting import BinAccount, FlowAccountingEngine
from repro.flows.groupby import (
    DENSE_SPAN_LIMIT,
    EMPTY_SLOT,
    HASH_MULTIPLIER,
    HashAccumulator,
    aggregate_codes,
)
from repro.flows.packets import PacketBatch


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def accounts_equal(left: list[BinAccount], right: list[BinAccount]) -> bool:
    """Bit-for-bit equality of two flushed account lists."""
    if len(left) != len(right):
        return False
    for a, b in zip(left, right):
        if (a.index, a.start_time, a.end_time) != (b.index, b.start_time, b.end_time):
            return False
        for field in ("codes", "packets", "bytes", "first_seen", "last_seen"):
            if not np.array_equal(getattr(a, field), getattr(b, field)):
                return False
    return True


def run_engine(
    groupby: str,
    timestamps: np.ndarray,
    flow_ids: np.ndarray,
    sizes: np.ndarray,
    mapping: np.ndarray,
    chunk: int,
    max_flows: int | None,
) -> tuple[list[BinAccount], int]:
    if groupby == "sort":
        engine = sort_engine(10.0, max_flows=max_flows)
    else:
        engine = FlowAccountingEngine(10.0, max_flows=max_flows)
    for low in range(0, timestamps.size, chunk):
        batch = PacketBatch(
            timestamps[low : low + chunk],
            flow_ids[low : low + chunk],
            sizes[low : low + chunk],
        )
        engine.observe_batch(batch, mapping)
    return engine.flush(), engine.evictions


def make_mapping(style: str, num_flows: int) -> np.ndarray:
    """Flow-id -> code maps exercising every addressing regime."""
    base = np.arange(num_flows, dtype=np.int64)
    if style == "dense":
        return base
    if style == "offset":
        return base + 1_000_000  # dense span at a far base
    if style == "sparse":
        return base * np.int64(DENSE_SPAN_LIMIT + 1)  # forces the probing table
    if style == "colliding":
        # Codes a table-capacity stride apart keep identical probe
        # starts for power-of-two tables (the multiplied high bits only
        # differ below the shift), massing collisions on one chain.
        return base * np.int64(1 << 52)
    if style == "sentinel":
        mapping = base * np.int64(DENSE_SPAN_LIMIT + 1)
        mapping[0] = EMPTY_SLOT  # the table's empty-slot marker as a real code
        return mapping
    raise AssertionError(style)


STREAMS = st.fixed_dictionaries(
    {
        "num_flows": st.integers(1, 6),
        "num_packets": st.integers(1, 150),
        "span": st.sampled_from([4.0, 35.0]),
        "seed": st.integers(0, 2**16),
        "style": st.sampled_from(["dense", "offset", "sparse", "colliding", "sentinel"]),
        "chunk": st.integers(1, 48),
        "max_flows": st.sampled_from([None, 2]),
        "const_sizes": st.booleans(),
    }
)


# ----------------------------------------------------------------------
# Engine-level bit identity
# ----------------------------------------------------------------------
class TestHashSortEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(STREAMS)
    def test_hash_equals_sort_for_any_stream(self, params):
        rng = np.random.default_rng(params["seed"])
        n = params["num_packets"]
        timestamps = np.sort(rng.uniform(0.0, params["span"], n))
        flow_ids = rng.integers(0, params["num_flows"], n).astype(np.int64)
        if params["const_sizes"]:
            sizes = np.full(n, 500, dtype=np.int64)
        else:
            sizes = rng.integers(40, 1500, n).astype(np.int64)
        mapping = make_mapping(params["style"], params["num_flows"])
        hash_accounts, hash_evictions = run_engine(
            "hash", timestamps, flow_ids, sizes, mapping, params["chunk"], params["max_flows"]
        )
        sort_accounts, sort_evictions = run_engine(
            "sort", timestamps, flow_ids, sizes, mapping, params["chunk"], params["max_flows"]
        )
        assert accounts_equal(hash_accounts, sort_accounts)
        assert hash_evictions == sort_evictions

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**16), chunk_a=st.integers(1, 64), chunk_b=st.integers(1, 64))
    def test_hash_backend_is_chunk_size_invariant(self, seed, chunk_a, chunk_b):
        rng = np.random.default_rng(seed)
        n = 120
        timestamps = np.sort(rng.uniform(0.0, 35.0, n))
        flow_ids = rng.integers(0, 5, n).astype(np.int64)
        sizes = rng.integers(40, 1500, n).astype(np.int64)
        mapping = make_mapping("colliding", 5)
        a, _ = run_engine("hash", timestamps, flow_ids, sizes, mapping, chunk_a, None)
        b, _ = run_engine("hash", timestamps, flow_ids, sizes, mapping, chunk_b, None)
        assert accounts_equal(a, b)


# ----------------------------------------------------------------------
# Kernel internals
# ----------------------------------------------------------------------
def reference_extract(timestamps, codes, sizes):
    unique, packets, byte_sums, first, last = aggregate_codes(
        np.asarray(codes, dtype=np.int64),
        np.asarray(timestamps, dtype=np.float64),
        np.asarray(sizes, dtype=np.int64),
    )
    return unique, packets, byte_sums, first, last


class TestHashAccumulator:
    def assert_matches_reference(self, acc, timestamps, codes, sizes):
        expected = reference_extract(timestamps, codes, sizes)
        actual = acc.extract()
        for got, want in zip(actual, expected):
            np.testing.assert_array_equal(got, want)

    def test_unsorted_ingest_matches_reference(self):
        rng = np.random.default_rng(0)
        timestamps = rng.uniform(0.0, 10.0, 200)  # deliberately unsorted
        codes = rng.integers(0, 9, 200).astype(np.int64)
        sizes = rng.integers(40, 1500, 200).astype(np.int64)
        acc = HashAccumulator()
        acc.ingest(timestamps, codes, sizes, time_sorted=False)
        self.assert_matches_reference(acc, timestamps, codes, sizes)

    def test_probe_chain_collisions(self):
        # Find codes that genuinely share a probe start in the initial
        # probing table, then make sure the collision chain resolves.
        acc = HashAccumulator(dense_bounds=(0, DENSE_SPAN_LIMIT + 2))  # force probing
        assert not acc.reserve_dense(0, DENSE_SPAN_LIMIT + 2)
        capacity = acc._slots
        shift = acc._shift
        candidates = np.arange(1, 200_000, dtype=np.int64)
        with np.errstate(over="ignore"):
            starts = (candidates.view(np.uint64) * HASH_MULTIPLIER) >> np.uint64(shift)
        start_values, counts = np.unique(starts, return_counts=True)
        crowded = start_values[np.argmax(counts)]
        colliders = candidates[starts == crowded][:5]
        assert colliders.size >= 2, "need at least two colliding codes"
        codes = np.repeat(colliders, 3)
        timestamps = np.linspace(0.0, 1.0, codes.size)
        sizes = np.full(codes.size, 100, dtype=np.int64)
        acc.ingest(timestamps, codes, sizes, time_sorted=True)
        assert acc._slots == capacity  # no resize: collisions, not growth
        self.assert_matches_reference(acc, timestamps, codes, sizes)

    def test_reserve_dense_enables_in_bounds_ingest(self):
        acc = HashAccumulator()
        assert acc.reserve_dense(10, 500)
        timestamps = np.array([0.0, 1.0, 2.0])
        codes = np.array([10, 500, 10], dtype=np.int64)
        sizes = np.array([100, 200, 300], dtype=np.int64)
        acc.ingest(timestamps, codes, sizes, time_sorted=True, in_bounds=True)
        self.assert_matches_reference(acc, timestamps, codes, sizes)

    def test_reserve_dense_refuses_wide_spans(self):
        acc = HashAccumulator()
        assert not acc.reserve_dense(0, DENSE_SPAN_LIMIT + 1)

    def test_sentinel_code_is_accounted(self):
        sentinel = int(EMPTY_SLOT)
        codes = np.array([sentinel, 5, sentinel], dtype=np.int64)
        timestamps = np.array([0.0, 1.0, 2.0])
        sizes = np.array([10, 20, 30], dtype=np.int64)
        acc = HashAccumulator()
        acc.ingest(timestamps, codes, sizes, time_sorted=True)
        assert acc.num_flows == 2
        self.assert_matches_reference(acc, timestamps, codes, sizes)

    def test_deferred_bytes_survive_mixed_sizes(self):
        # First two segments share one constant size (deferred byte
        # sums), the third breaks the pattern and must materialise the
        # per-flow sums without losing the deferred contributions.
        acc = HashAccumulator()
        acc.ingest(
            np.array([0.0, 0.5]), np.array([1, 2], dtype=np.int64),
            np.array([500, 500], dtype=np.int64), time_sorted=True,
        )
        acc.ingest(
            np.array([1.0]), np.array([1], dtype=np.int64),
            np.array([500], dtype=np.int64), time_sorted=True, const_size=500,
        )
        acc.ingest(
            np.array([2.0, 3.0]), np.array([2, 3], dtype=np.int64),
            np.array([40, 1500], dtype=np.int64), time_sorted=True,
        )
        all_ts = np.array([0.0, 0.5, 1.0, 2.0, 3.0])
        all_codes = np.array([1, 2, 1, 2, 3], dtype=np.int64)
        all_sizes = np.array([500, 500, 500, 40, 1500], dtype=np.int64)
        self.assert_matches_reference(acc, all_ts, all_codes, all_sizes)

    def test_clear_resets_deferred_state(self):
        acc = HashAccumulator()
        acc.ingest(
            np.array([0.0]), np.array([3], dtype=np.int64),
            np.array([777], dtype=np.int64), time_sorted=True,
        )
        acc.clear()
        assert acc.num_flows == 0
        acc.ingest(
            np.array([5.0]), np.array([3], dtype=np.int64),
            np.array([100], dtype=np.int64), time_sorted=True,
        )
        _, packets, byte_sums, _, _, _ = acc.extract()
        assert packets.tolist() == [1]
        assert byte_sums.tolist() == [100]

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        num_codes=st.integers(1, 8),
        segments=st.integers(1, 5),
        style=st.sampled_from(["dense", "sparse", "colliding"]),
    )
    def test_segmented_sorted_ingest_matches_reference(self, seed, num_codes, segments, style):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 120))
        timestamps = np.sort(rng.uniform(0.0, 9.0, n))
        mapping = make_mapping(style, num_codes)
        codes = mapping[rng.integers(0, num_codes, n)]
        sizes = rng.integers(40, 1500, n).astype(np.int64)
        acc = HashAccumulator()
        bounds = np.sort(rng.integers(0, n + 1, segments - 1))
        edges = np.concatenate(([0], bounds, [n])).astype(np.int64)
        for low, high in zip(edges[:-1], edges[1:]):
            if high > low:
                acc.ingest(
                    timestamps[low:high], codes[low:high], sizes[low:high], time_sorted=True
                )
        self.assert_matches_reference(acc, timestamps, codes, sizes)


# ----------------------------------------------------------------------
# Per-stream sampled columns
# ----------------------------------------------------------------------
class TestSampledColumns:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        # Below 2048: the colliding map's 2^52 stride stays inside int64.
        num_codes=st.integers(1, 2047),
        streams=st.integers(0, 4),
        segments=st.integers(1, 6),
        style=st.sampled_from(["dense", "offset", "sparse", "colliding"]),
        time_sorted=st.booleans(),
    )
    def test_columns_count_each_stream_per_code(
        self, seed, num_codes, streams, segments, style, time_sorted
    ):
        # Thousands of codes over segments of up to 6000 packets: dense
        # tables widen and probing tables grow mid-bin, and every live
        # slot's column must survive each rebuild.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6000))
        mapping = make_mapping(style, num_codes)
        codes = mapping[rng.integers(0, num_codes, n)]
        timestamps = rng.uniform(0.0, 9.0, n)
        if time_sorted:
            timestamps.sort()
        sizes = np.full(n, 500, dtype=np.int64)
        keep = rng.random((streams, n)) < rng.random((streams, 1))
        acc = HashAccumulator()
        bounds = np.sort(rng.integers(0, n + 1, segments - 1))
        edges = np.concatenate(([0], bounds, [n])).astype(np.int64)
        for low, high in zip(edges[:-1], edges[1:]):
            acc.ingest(
                timestamps[low:high],
                codes[low:high],
                sizes[low:high],
                time_sorted=time_sorted,
                keep_masks=keep[:, low:high],
            )
        got_codes, packets, _, _, _, sampled = acc.extract()
        unique, expected_packets, _, _, _ = reference_extract(timestamps, codes, sizes)
        np.testing.assert_array_equal(got_codes, unique)
        np.testing.assert_array_equal(packets, expected_packets)
        assert sampled.shape == (streams, unique.size)
        for row in range(streams):
            expected = np.bincount(
                np.searchsorted(unique, codes[keep[row]]), minlength=unique.size
            )
            np.testing.assert_array_equal(sampled[row], expected)

    def test_columns_survive_probing_growth(self):
        # A small first segment sizes a small probing table; the large
        # second one forces it to grow while the bin holds columns.
        rng = np.random.default_rng(4)
        codes = rng.integers(0, 2**40, 3000)
        keep = rng.random((2, 3000)) < 0.5
        acc = HashAccumulator()
        acc.ingest(np.zeros(10), codes[:10], np.full(10, 500), time_sorted=True,
                   keep_masks=keep[:, :10])
        slots = acc._slots
        acc.ingest(np.ones(2990), codes[10:], np.full(2990, 500), time_sorted=True,
                   keep_masks=keep[:, 10:])
        assert not acc._dense and acc._slots > slots
        unique, _, _, _, _, sampled = acc.extract()
        for row in range(2):
            expected = np.bincount(np.searchsorted(unique, codes[keep[row]]), minlength=unique.size)
            np.testing.assert_array_equal(sampled[row], expected)

    def test_clear_starts_columns_afresh(self):
        acc = HashAccumulator()
        keep = np.array([[True, True, False]])
        acc.ingest(np.arange(3.0), np.array([5, 6, 5]), np.full(3, 500), time_sorted=True,
                   keep_masks=keep)
        assert acc.extract()[5].tolist() == [[1, 1]]
        acc.clear()
        acc.ingest(np.arange(2.0), np.array([6, 7]), np.full(2, 500), time_sorted=True,
                   keep_masks=np.array([[False, True], [True, True]]))
        assert acc.extract()[5].tolist() == [[0, 1], [1, 1]]

    def test_no_masks_no_columns(self):
        acc = HashAccumulator()
        acc.ingest(np.arange(2.0), np.array([1, 2]), np.full(2, 500), time_sorted=True)
        assert acc.extract()[5] is None

    def test_masks_must_cover_every_segment_of_a_bin(self):
        acc = HashAccumulator()
        acc.ingest(np.array([0.0]), np.array([1]), np.array([500]), time_sorted=True,
                   keep_masks=np.ones((2, 1), dtype=bool))
        with pytest.raises(ValueError, match="same streams"):
            acc.ingest(np.array([1.0]), np.array([1]), np.array([500]), time_sorted=True)
        with pytest.raises(ValueError, match="same streams"):
            acc.ingest(np.array([1.0]), np.array([1]), np.array([500]), time_sorted=True,
                       keep_masks=np.ones((3, 1), dtype=bool))

    def test_masks_reject_the_sentinel_code(self):
        acc = HashAccumulator()
        with pytest.raises(ValueError, match="EMPTY_SLOT"):
            acc.ingest(np.array([0.0, 1.0]), np.array([EMPTY_SLOT, 3]), np.full(2, 500),
                       time_sorted=True, keep_masks=np.ones((1, 2), dtype=bool))
