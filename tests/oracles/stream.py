"""Reference stream fold: per-chunk ``np.unique`` plus sorted-union bin merges.

:func:`reference_run_stream` is the original accumulator of unbounded
runs.  Each chunk is grouped by one ``np.unique`` over combined
``bin x group`` codes, every (sampler, run) stream's kept packets are
counted with one ``bincount`` over the unique-code inverse, and each
bin's counts are merged into a :class:`BinState` by a sorted union.
Each stream of a finished bin is scored on its own by the loop oracle
:func:`oracles.metrics.reference_swapped_pair_counts`, so the fold
shares no scoring code with the library.  The library computes the same
per-bin counts in the truth engine's per-stream columns and scores each
bin's streams in one call (:func:`repro.pipeline.executor.run_stream`);
the test suite and ``benchmarks/harness.py`` check the two agree bit for
bit.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.flows.accounting import bin_segments
from repro.flows.packets import PacketBatch
from repro.pipeline.executor import StreamOutcome
from repro.sampling.base import PacketSampler

from .metrics import reference_swapped_pair_counts


class BinState:
    """Accumulator of original and sampled flow counts for one open bin.

    ``keys`` holds the sorted flow-group identifiers seen so far in the
    bin; ``original`` the unsampled packet count per group; ``sampled``
    one row of sampled counts per (sampler, run) stream.  Merging a
    chunk contribution is a sorted-union plus two scatter-adds.
    """

    __slots__ = ("keys", "original", "sampled")

    def __init__(self, keys: np.ndarray, original: np.ndarray, sampled: np.ndarray) -> None:
        self.keys = keys
        self.original = original
        self.sampled = sampled

    def merge(self, keys: np.ndarray, original: np.ndarray, sampled: np.ndarray) -> None:
        union = np.union1d(self.keys, keys)
        if union.size == self.keys.size:
            positions = np.searchsorted(self.keys, keys)
            self.original[positions] += original
            self.sampled[:, positions] += sampled
            return
        old_positions = np.searchsorted(union, self.keys)
        new_positions = np.searchsorted(union, keys)
        merged_original = np.zeros(union.size, dtype=np.int64)
        merged_original[old_positions] = self.original
        merged_original[new_positions] += original
        merged_sampled = np.zeros((self.sampled.shape[0], union.size), dtype=np.int64)
        merged_sampled[:, old_positions] = self.sampled
        merged_sampled[:, new_positions] += sampled
        self.keys = union
        self.original = merged_original
        self.sampled = merged_sampled


def reference_run_stream(
    chunks: Iterable[PacketBatch],
    group_of_flow: np.ndarray,
    stream_samplers: list[PacketSampler],
    bin_duration: float,
    top_t: int,
) -> StreamOutcome:
    """Fold time-ordered chunks into per-bin metrics per stream (unbounded).

    Takes the arguments of :func:`repro.pipeline.executor.run_stream`
    without ``max_flows`` and returns the same :class:`StreamOutcome`,
    with zero evictions.
    """
    if bin_duration <= 0:
        raise ValueError("bin_duration must be positive")
    groups = np.asarray(group_of_flow)
    if groups.ndim != 1:
        raise ValueError("group_of_flow must be a 1-D array")
    if groups.size and int(groups.min()) < 0:
        raise ValueError("flow group identifiers must be non-negative")
    stride = int(groups.max()) + 1 if groups.size else 1
    num_streams = len(stream_samplers)

    open_bins: dict[int, BinState] = {}
    completed: list[tuple[int, int, np.ndarray, np.ndarray]] = []

    def finalise(index: int) -> None:
        state = open_bins.pop(index)
        ranking_row = np.empty(num_streams, dtype=float)
        detection_row = np.empty(num_streams, dtype=float)
        for stream in range(num_streams):
            counts = reference_swapped_pair_counts(state.original, state.sampled[stream], top_t)
            ranking_row[stream] = counts.ranking
            detection_row[stream] = counts.detection
        completed.append((index, state.keys.size, ranking_row, detection_row))

    total_packets = 0
    previous_end = -np.inf
    for chunk in chunks:
        if len(chunk) == 0:
            continue
        if int(chunk.flow_ids.max()) >= groups.size:
            raise ValueError("group_of_flow is too short for the flow ids present in the stream")
        first_time = float(chunk.timestamps[0])
        if first_time < previous_end:
            raise ValueError("chunks must arrive in global time order")
        previous_end = float(chunk.timestamps[-1])
        total_packets += len(chunk)

        # Bins entirely before this chunk can never grow again.
        head_bin = int(np.floor(first_time / bin_duration))
        for index in sorted(open_bins):
            if index < head_bin:
                finalise(index)

        bin_of_packet = np.floor_divide(chunk.timestamps, bin_duration).astype(np.int64)
        if int(bin_of_packet[-1]) >= (2**62) // stride:
            raise OverflowError("bin x group key space does not fit in int64")
        code = bin_of_packet * stride + groups[chunk.flow_ids]
        unique_codes, inverse, original = np.unique(code, return_inverse=True, return_counts=True)
        sampled = np.empty((num_streams, unique_codes.size), dtype=np.int64)
        for stream, sampler in enumerate(stream_samplers):
            mask = np.asarray(sampler.sample_mask(chunk), dtype=bool)
            sampled[stream] = np.bincount(inverse[mask], minlength=unique_codes.size)

        # unique_codes is sorted, so each bin occupies a contiguous segment.
        chunk_bins = unique_codes // stride
        chunk_groups = unique_codes % stride
        segment_bins, segment_bounds = bin_segments(chunk_bins)
        for segment, (lo, hi) in enumerate(zip(segment_bounds[:-1], segment_bounds[1:])):
            bin_index = int(segment_bins[segment])
            state = open_bins.get(bin_index)
            if state is None:
                open_bins[bin_index] = BinState(
                    chunk_groups[lo:hi].copy(),
                    original[lo:hi].astype(np.int64),
                    sampled[:, lo:hi].copy(),
                )
            else:
                state.merge(chunk_groups[lo:hi], original[lo:hi], sampled[:, lo:hi])

    for index in sorted(open_bins):
        finalise(index)
    if not completed:
        raise ValueError("the packet stream produced no measurement bins")

    completed.sort(key=lambda entry: entry[0])
    return StreamOutcome(
        bin_start_times=np.array([index * bin_duration for index, _, _, _ in completed]),
        flows_per_bin=float(np.mean([num_flows for _, num_flows, _, _ in completed])),
        total_packets=total_packets,
        ranking_values=np.stack([row for _, _, row, _ in completed], axis=1),
        detection_values=np.stack([row for _, _, _, row in completed], axis=1),
        evictions=np.zeros(num_streams, dtype=np.int64),
    )
