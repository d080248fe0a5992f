"""Property tests: the hash group-by kernel is bit-identical to a sort-based group-by.

The hash-accumulator kernel (:mod:`repro.flows.groupby`) is the
flow-accounting engine's unbounded accumulator.  Its contract is *bit
identity* with the stable-``argsort`` group-by it replaced (the
oracle in ``tests/oracles/groupby.py``): for any packet stream, any
chunking, the group ids both key policies give, and the dense, sparse
and hash-colliding ids a custom policy may give, the engine produces
exactly the same bins as the sort-based engine.  Everything here
asserts exactly that, plus the kernel-internal paths (dense
reservation, probing collisions, negative codes) that the engine-level
streams may not reach every run.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.groupby import sort_engine
from oracles.keys import FiveTuple, trace_of

from repro.flows.accounting import BinAccount, FlowAccountingEngine
from repro.flows.groupby import (
    DENSE_SPAN_LIMIT,
    EMPTY_SLOT,
    HASH_MULTIPLIER,
    HashAccumulator,
    aggregate_codes,
)
from repro.flows.keys import DestinationPrefixKeyPolicy, FiveTupleKeyPolicy
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
        for field in ("codes", "packets"):
            if not np.array_equal(getattr(a, field), getattr(b, field)):
                return False
    return True


def run_engine(
    groupby: str,
    timestamps: np.ndarray,
    flow_ids: np.ndarray,
    mapping: np.ndarray,
    chunk: int,
    max_flows: int | None,
) -> tuple[list[BinAccount], int]:
    if groupby == "sort":
        engine = sort_engine(10.0, max_flows=max_flows)
    else:
        engine = FlowAccountingEngine(10.0, max_flows=max_flows)
    for low in range(0, timestamps.size, chunk):
        batch = PacketBatch(timestamps[low : low + chunk], flow_ids[low : low + chunk])
        # What run_stream does with a chunk: one gather, the group-id
        # universe reserved, trusted columns.
        in_bounds = engine.reserve_codes(int(mapping.min()), int(mapping.max()))
        engine.observe_sorted_chunk(
            batch.timestamps, mapping.take(batch.flow_ids), in_bounds=in_bounds
        )
    return engine.flush(), engine.evictions


def make_mapping(style: str, num_flows: int) -> np.ndarray:
    """Flow-id -> group-id maps exercising every addressing regime.

    ``five-tuple`` and ``prefix`` are what the key policies give a trace
    of random 5-tuples (dense ids, and /24 ids that usually span more
    than the dense limit); the others are ids a custom policy may give.
    """
    if style in ("five-tuple", "prefix"):
        rng = np.random.default_rng(num_flows)
        trace = trace_of(
            [
                FiveTuple(int(rng.integers(0, 2**32)), int(rng.integers(0, 2**32)), 1024, 80)
                for _ in range(num_flows)
            ]
        )
        policy = FiveTupleKeyPolicy() if style == "five-tuple" else DestinationPrefixKeyPolicy()
        return policy.group_ids(trace)
    base = np.arange(num_flows, dtype=np.int64)
    if style == "offset":
        return base + 1_000_000  # dense span at a far base
    if style == "sparse":
        return base * np.int64(DENSE_SPAN_LIMIT + 1)  # forces the probing table
    if style == "colliding":
        # Codes a table-capacity stride apart keep identical probe
        # starts for power-of-two tables (the multiplied high bits only
        # differ below the shift), massing collisions on one chain.
        return base * np.int64(1 << 52)
    raise AssertionError(style)


STREAMS = st.fixed_dictionaries(
    {
        "num_flows": st.integers(1, 6),
        "num_packets": st.integers(1, 150),
        "span": st.sampled_from([4.0, 35.0]),
        "seed": st.integers(0, 2**16),
        "style": st.sampled_from(["five-tuple", "prefix", "offset", "sparse", "colliding"]),
        "chunk": st.integers(1, 48),
        "max_flows": st.sampled_from([None, 2]),
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
        mapping = make_mapping(params["style"], params["num_flows"])
        hash_accounts, hash_evictions = run_engine(
            "hash", timestamps, flow_ids, mapping, params["chunk"], params["max_flows"]
        )
        sort_accounts, sort_evictions = run_engine(
            "sort", timestamps, flow_ids, mapping, params["chunk"], params["max_flows"]
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
        mapping = make_mapping("colliding", 5)
        a, _ = run_engine("hash", timestamps, flow_ids, mapping, chunk_a, None)
        b, _ = run_engine("hash", timestamps, flow_ids, mapping, chunk_b, None)
        assert accounts_equal(a, b)


# ----------------------------------------------------------------------
# Kernel internals
# ----------------------------------------------------------------------
class TestHashAccumulator:
    def assert_matches_reference(self, acc, codes):
        codes_out, packets, sampled = acc.extract()
        unique, expected = aggregate_codes(codes)
        np.testing.assert_array_equal(codes_out, unique)
        np.testing.assert_array_equal(packets, expected)
        assert sampled is None

    def test_unsorted_ingest_matches_reference(self):
        rng = np.random.default_rng(0)
        codes = rng.integers(0, 9, 200).astype(np.int64)  # deliberately unsorted
        acc = HashAccumulator()
        acc.ingest(codes)
        self.assert_matches_reference(acc, codes)

    def test_probe_chain_collisions(self):
        # Find codes that genuinely share a probe start in the initial
        # probing table, then make sure the collision chain resolves.
        acc = HashAccumulator()
        assert not acc.reserve_dense(0, DENSE_SPAN_LIMIT + 2)  # force probing
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
        acc.ingest(codes)
        assert acc._slots == capacity  # no resize: collisions, not growth
        self.assert_matches_reference(acc, codes)

    def test_reserve_dense_enables_in_bounds_ingest(self):
        acc = HashAccumulator()
        assert acc.reserve_dense(10, 500)
        codes = np.array([10, 500, 10], dtype=np.int64)
        acc.ingest(codes, in_bounds=True)
        self.assert_matches_reference(acc, codes)

    def test_reserve_dense_refuses_wide_spans(self):
        acc = HashAccumulator()
        assert not acc.reserve_dense(0, DENSE_SPAN_LIMIT + 1)

    @pytest.mark.parametrize("reserved", [False, True])
    def test_negative_codes_are_rejected(self, reserved):
        """The bounds scan rejects a negative code before any state changes."""
        acc = HashAccumulator()
        if reserved:
            assert acc.reserve_dense(0, 10)
        with pytest.raises(ValueError, match="key codes must be non-negative"):
            acc.ingest(np.array([5, -1]))
        assert acc.num_flows == 0
        with pytest.raises(ValueError, match="key codes must be non-negative"):
            acc.reserve_dense(-1, 10)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        num_codes=st.integers(1, 8),
        segments=st.integers(1, 5),
        style=st.sampled_from(["five-tuple", "prefix", "sparse", "colliding"]),
    )
    def test_segmented_sorted_ingest_matches_reference(self, seed, num_codes, segments, style):
        """The codes of a time-sorted packet stream, ingested in segments as the
        engine cuts a bin: the same counts as one sort-based group-by."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 120))
        mapping = make_mapping(style, num_codes)
        codes = mapping[rng.integers(0, num_codes, n)]
        acc = HashAccumulator()
        bounds = np.sort(rng.integers(0, n + 1, segments - 1))
        edges = np.concatenate(([0], bounds, [n])).astype(np.int64)
        for low, high in zip(edges[:-1], edges[1:]):
            if high > low:
                acc.ingest(codes[low:high])
        self.assert_matches_reference(acc, codes)


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
        style=st.sampled_from(["five-tuple", "offset", "sparse", "colliding"]),
    )
    def test_columns_count_each_stream_per_code(self, seed, num_codes, streams, segments, style):
        # Thousands of codes over segments of up to 6000 packets: dense
        # tables widen and probing tables grow mid-bin, and every live
        # slot's column must survive each rebuild.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6000))
        mapping = make_mapping(style, num_codes)
        codes = mapping[rng.integers(0, num_codes, n)]
        keep = rng.random((streams, n)) < rng.random((streams, 1))
        acc = HashAccumulator()
        bounds = np.sort(rng.integers(0, n + 1, segments - 1))
        edges = np.concatenate(([0], bounds, [n])).astype(np.int64)
        for low, high in zip(edges[:-1], edges[1:]):
            acc.ingest(codes[low:high], keep_masks=keep[:, low:high])
        got_codes, packets, sampled = acc.extract()
        unique, expected_packets = aggregate_codes(codes)
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
        acc.ingest(codes[:10], keep_masks=keep[:, :10])
        slots = acc._slots
        acc.ingest(codes[10:], keep_masks=keep[:, 10:])
        assert not acc._dense and acc._slots > slots
        unique, _, sampled = acc.extract()
        for row in range(2):
            expected = np.bincount(np.searchsorted(unique, codes[keep[row]]), minlength=unique.size)
            np.testing.assert_array_equal(sampled[row], expected)

    def test_clear_starts_columns_afresh(self):
        acc = HashAccumulator()
        keep = np.array([[True, True, False]])
        acc.ingest(np.array([5, 6, 5]), keep_masks=keep)
        assert acc.extract()[2].tolist() == [[1, 1]]
        acc.clear()
        assert acc.num_flows == 0
        acc.ingest(np.array([6, 7]), keep_masks=np.array([[False, True], [True, True]]))
        codes, packets, sampled = acc.extract()
        assert (codes.tolist(), packets.tolist()) == ([6, 7], [1, 1])
        assert sampled.tolist() == [[0, 1], [1, 1]]

    def test_no_masks_no_columns(self):
        acc = HashAccumulator()
        acc.ingest(np.array([1, 2]))
        assert acc.extract()[2] is None

    def test_masks_must_cover_every_segment_of_a_bin(self):
        acc = HashAccumulator()
        acc.ingest(np.array([1]), keep_masks=np.ones((2, 1), dtype=bool))
        with pytest.raises(ValueError, match="same streams"):
            acc.ingest(np.array([1]))
        with pytest.raises(ValueError, match="same streams"):
            acc.ingest(np.array([1]), keep_masks=np.ones((3, 1), dtype=bool))

    def test_masks_reject_the_sentinel_code(self):
        """The probing table's empty-slot marker is negative, so no code equals it."""
        acc = HashAccumulator()
        with pytest.raises(ValueError, match="key codes must be non-negative"):
            acc.ingest(np.array([EMPTY_SLOT, 3]), keep_masks=np.ones((1, 2), dtype=bool))
