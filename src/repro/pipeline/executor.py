"""Chunked streaming execution of sampling experiments.

The legacy runner materialises the whole expanded packet trace (tens of
millions of packets at backbone scale) before evaluating anything.  The
executor in this module instead iterates the expansion **chunk by
chunk**, in global *time order*, and finalises every measurement bin as
soon as the stream has moved past it — so peak memory scales with the
packets in flight (the current chunk plus the tails of still-active
flows) and the flow counts of still-open bins, never with the total
packet count or the number of bins in the trace.

Time order matters: samplers see the same packet sequence a monitor on
the link would see, so order-dependent samplers (periodic 1-in-N) keep
their physical semantics.  Two properties make the streaming path exact
rather than approximate:

* flows are admitted in start-time order and each flow's packet
  placements are drawn at admission; a NumPy ``Generator`` consumed
  sequentially produces the same stream regardless of how the draws are
  batched — so the expansion is bit-identical for any chunk size,
  including the "one giant chunk" materialised mode;
* samplers consume the packet stream sequentially through
  :meth:`~repro.sampling.base.PacketSampler.sample_mask`, and the
  concatenation of the time-ordered chunks is the same stream for every
  chunk size — so their decisions are likewise chunk-size invariant
  (random samplers draw from their own generator in stream order;
  periodic samplers carry their counter across chunks).

Consequently ``chunk_packets=None`` (materialise everything) and any
finite chunk size produce identical :class:`MetricSeries` for the same
seed — a property the test suite asserts.

The chunk iterator of :mod:`repro.traces.source` is usable on its own;
the concatenation of the chunks is always the globally time-sorted
packet stream:

>>> import numpy as np
>>> from repro.traces.flow_trace import FlowLevelTrace
>>> from repro.traces.source import iter_expanded_chunks
>>> trace = FlowLevelTrace(
...     start_times=[0.0, 1.0],
...     durations=[5.0, 2.0],
...     sizes_packets=[6, 3],
...     src_ips=[1, 2],
...     dst_ips=[9, 9],
...     src_ports=[1, 2],
...     dst_ports=[80, 80],
...     protocols=[6, 6],
... )
>>> chunks = list(iter_expanded_chunks(trace, np.random.default_rng(0), chunk_packets=4))
>>> sum(len(chunk) for chunk in chunks)
9
>>> timestamps = np.concatenate([chunk.timestamps for chunk in chunks])
>>> bool(np.all(np.diff(timestamps) >= 0))
True
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .. import telemetry
from ..flows.accounting import BinAccount, FlowAccountingEngine, bin_segments
from ..flows.packets import PacketBatch
from ..sampling.base import PacketSampler
from ..simulation.evaluation import swapped_pair_counts
from ..simulation.results import MetricSeries


class _BinState:
    """Accumulator of original and sampled flow counts for one open bin.

    ``keys`` holds the sorted flow-group identifiers seen so far in the
    bin; ``original`` the unsampled packet count per group; ``sampled``
    one row of sampled counts per (sampler, run) stream.  Merging a
    chunk contribution is a sorted-union plus two scatter-adds, all
    vectorised.
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


@dataclass
class StreamOutcome:
    """Raw output of :func:`run_stream` before packaging into a result."""

    bin_start_times: np.ndarray
    flows_per_bin: float
    total_packets: int
    #: ``values[stream]`` has shape ``(num_bins,)`` per metric.
    ranking_values: np.ndarray  # (num_streams, num_bins)
    detection_values: np.ndarray  # (num_streams, num_bins)


def run_stream(
    chunks: Iterable[PacketBatch],
    group_of_flow: np.ndarray,
    stream_samplers: list[PacketSampler],
    bin_duration: float,
    top_t: int,
) -> StreamOutcome:
    """Fold time-ordered packet chunks into per-bin metrics per stream.

    Bins are evaluated and discarded incrementally: once a chunk starts
    at time ``t``, every bin ending at or before ``t`` can never receive
    another packet and is finalised on the spot, so only the bins still
    open at the stream head are held in memory.

    Parameters
    ----------
    chunks:
        Packet chunks whose concatenation is sorted by timestamp (see
        :meth:`repro.traces.source.PacketSource.iter_chunks`).
    group_of_flow:
        Array mapping flow ids to non-negative flow-group identifiers
        under the chosen flow definition.
    stream_samplers:
        One sampler instance per independent stream (a (sampler spec,
        run) pair); each keeps its own state across chunks.
    bin_duration:
        Measurement interval length in seconds.
    top_t:
        Number of top flows to rank/detect.

    Returns
    -------
    StreamOutcome
        Per-bin swapped-pair counts for every stream, plus the shared
        bin start times, flows-per-bin average and packet total.
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

    open_bins: dict[int, _BinState] = {}
    completed: list[tuple[int, int, np.ndarray, np.ndarray]] = []

    def _finalise(index: int) -> None:
        state = open_bins.pop(index)
        ranking_row = np.empty(num_streams, dtype=float)
        detection_row = np.empty(num_streams, dtype=float)
        for stream in range(num_streams):
            counts = swapped_pair_counts(state.original, state.sampled[stream], top_t)
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
        if telemetry.enabled:
            telemetry.count("stream.chunks")
            telemetry.count("stream.packets", len(chunk))
            telemetry.count("stream.bytes", int(chunk.sizes_bytes.sum()))

        # Bins entirely before this chunk can never grow again.
        head_bin = int(np.floor(first_time / bin_duration))
        for index in sorted(open_bins):
            if index < head_bin:
                _finalise(index)

        with telemetry.span("stream.groupby"):
            bin_of_packet = np.floor_divide(chunk.timestamps, bin_duration).astype(np.int64)
            max_bin = int(bin_of_packet[-1])
            if max_bin >= (2**62) // stride:
                raise OverflowError("bin x group key space does not fit in int64")
            code = bin_of_packet * stride + groups[chunk.flow_ids]
            unique_codes, inverse, original = np.unique(
                code, return_inverse=True, return_counts=True
            )
        with telemetry.span("stream.sample"):
            sampled = np.empty((num_streams, unique_codes.size), dtype=np.int64)
            for stream, sampler in enumerate(stream_samplers):
                mask = np.asarray(sampler.sample_mask(chunk), dtype=bool)
                sampled[stream] = np.bincount(inverse[mask], minlength=unique_codes.size)

        # unique_codes is sorted, so each bin occupies a contiguous segment.
        with telemetry.span("stream.bins"):
            chunk_bins = unique_codes // stride
            chunk_groups = unique_codes % stride
            segment_bins, segment_bounds = bin_segments(chunk_bins)
            for segment, (lo, hi) in enumerate(zip(segment_bounds[:-1], segment_bounds[1:])):
                bin_index = int(segment_bins[segment])
                state = open_bins.get(bin_index)
                if state is None:
                    open_bins[bin_index] = _BinState(
                        chunk_groups[lo:hi].copy(),
                        original[lo:hi].astype(np.int64),
                        sampled[:, lo:hi].copy(),
                    )
                else:
                    state.merge(chunk_groups[lo:hi], original[lo:hi], sampled[:, lo:hi])

    for index in sorted(open_bins):
        _finalise(index)
    if not completed:
        raise ValueError("the packet stream produced no measurement bins")

    completed.sort(key=lambda entry: entry[0])
    bin_starts = np.array([index * bin_duration for index, _, _, _ in completed])
    flows_per_bin = float(np.mean([num_flows for _, num_flows, _, _ in completed]))
    ranking_values = np.stack([row for _, _, row, _ in completed], axis=1)
    detection_values = np.stack([row for _, _, _, row in completed], axis=1)

    return StreamOutcome(
        bin_start_times=bin_starts,
        flows_per_bin=flows_per_bin,
        total_packets=total_packets,
        ranking_values=ranking_values,
        detection_values=detection_values,
    )


@dataclass
class MonitorOutcome:
    """Raw output of :func:`run_monitor_stream`.

    Field-compatible with :class:`StreamOutcome` where it matters
    (:func:`metric_series_for_stream` accepts either), plus the
    monitor-specific eviction statistics.
    """

    bin_start_times: np.ndarray
    flows_per_bin: float
    total_packets: int
    ranking_values: np.ndarray  # (num_streams, num_bins)
    detection_values: np.ndarray  # (num_streams, num_bins)
    #: Total smallest-flow evictions suffered by each stream's monitor.
    evictions: np.ndarray  # (num_streams,)
    max_flows: int | None


def run_monitor_stream(
    chunks: Iterable[PacketBatch],
    group_of_flow: np.ndarray,
    stream_samplers: list[PacketSampler],
    bin_duration: float,
    top_t: int,
    max_flows: int | None = None,
) -> MonitorOutcome:
    """Monitor-in-the-loop evaluation: sampler -> accounting engine -> metrics.

    Where :func:`run_stream` evaluates an *idealised* monitor (sampled
    packet counts per bin, unlimited flow memory), this runner puts the
    real monitor data path in the loop: every stream's sampled packets
    feed a bounded :class:`~repro.flows.accounting.FlowAccountingEngine`
    whose ``max_flows`` bound evicts the smallest tracked flow when
    full — so the reported per-bin ranking/detection swapped pairs
    include the error introduced by bounded flow memory, not just by
    sampling.  With ``max_flows=None`` the outcome's metric values are
    bit-identical to :func:`run_stream`'s for the same samplers.

    Bins are finalised incrementally, exactly like :func:`run_stream`:
    once the stream head moves past a bin, its truth account and every
    monitor's account are drained and scored, so memory never scales
    with the number of bins.

    Each chunk makes a single fused pass: the flow-group codes are
    gathered once, the truth engine and every monitor consume trusted
    views through
    :meth:`~repro.flows.accounting.FlowAccountingEngine.observe_sorted_chunk`
    (no re-validation, no per-engine code gathers), and the samplers'
    keep-masks are applied as index gathers.

    Parameters
    ----------
    chunks:
        Packet chunks whose concatenation is sorted by timestamp.
    group_of_flow:
        Array mapping flow ids to non-negative flow-group identifiers
        under the chosen flow definition.
    stream_samplers:
        One sampler instance per independent stream.
    bin_duration:
        Measurement interval length in seconds.
    top_t:
        Number of top flows to rank/detect.
    max_flows:
        Flow-memory bound of each stream's monitor (``None`` =
        unbounded).

    Returns
    -------
    MonitorOutcome
        Per-bin swapped-pair counts per stream plus total eviction
        counts.
    """
    if bin_duration <= 0:
        raise ValueError("bin_duration must be positive")
    groups = np.asarray(group_of_flow, dtype=np.int64)
    if groups.ndim != 1:
        raise ValueError("group_of_flow must be a 1-D array")
    if groups.size and int(groups.min()) < 0:
        raise ValueError("flow group identifiers must be non-negative")
    num_streams = len(stream_samplers)

    truth = FlowAccountingEngine(bin_duration)
    monitors = [
        FlowAccountingEngine(bin_duration, max_flows=max_flows) for _ in range(num_streams)
    ]
    #: Monitor bins closed but not yet matched with a truth bin, per stream.
    pending: list[dict[int, BinAccount]] = [{} for _ in range(num_streams)]
    completed: list[tuple[int, int, np.ndarray, np.ndarray]] = []

    def _score(account: BinAccount) -> None:
        for stream in range(num_streams):
            monitors[stream].close_until(account.index + 1)
            for closed in monitors[stream].drain_completed():
                pending[stream][closed.index] = closed
        ranking_row = np.empty(num_streams, dtype=float)
        detection_row = np.empty(num_streams, dtype=float)
        for stream in range(num_streams):
            monitor_account = pending[stream].pop(account.index, None)
            if monitor_account is None:
                sampled = np.zeros(account.codes.size, dtype=np.int64)
            else:
                sampled = monitor_account.counts_for(account.codes)
            counts = swapped_pair_counts(account.packets, sampled, top_t)
            ranking_row[stream] = counts.ranking
            detection_row[stream] = counts.detection
        completed.append((account.index, account.num_flows, ranking_row, detection_row))

    group_low = int(groups.min()) if groups.size else 0
    group_high = int(groups.max()) if groups.size else 0
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
        if telemetry.enabled:
            telemetry.count("monitor.chunks")
            telemetry.count("monitor.packets", len(chunk))
            telemetry.count("monitor.bytes", int(chunk.sizes_bytes.sum()))

        # One code gather and one constant-size check per chunk, then
        # sampler decision + truth accounting + monitor accounting all
        # consume the same trusted columns.  Masked views are index
        # gathers of the shared arrays — no per-engine re-validation,
        # no intermediate batch objects.
        with telemetry.span("monitor.account"):
            timestamps = chunk.timestamps
            sizes = chunk.sizes_bytes
            codes = groups.take(chunk.flow_ids)
            const_size = int(sizes[0]) if bool((sizes == sizes[0]).all()) else None
            truth.observe_sorted_chunk(
                timestamps,
                codes,
                sizes,
                in_bounds=truth.reserve_codes(group_low, group_high),
                const_size=const_size,
            )
        with telemetry.span("monitor.sample"):
            for stream, sampler in enumerate(stream_samplers):
                keep = np.flatnonzero(np.asarray(sampler.sample_mask(chunk), dtype=bool))
                monitors[stream].observe_sorted_chunk(
                    timestamps.take(keep),
                    codes.take(keep),
                    sizes.take(keep),
                    in_bounds=monitors[stream].reserve_codes(group_low, group_high),
                    const_size=const_size,
                )
        # Bins the stream head has moved past can never grow again.
        for account in truth.drain_completed():
            _score(account)

    for account in truth.flush():
        _score(account)
    if not completed:
        raise ValueError("the packet stream produced no measurement bins")

    completed.sort(key=lambda entry: entry[0])
    if telemetry.enabled:
        telemetry.count(
            "monitor.evictions", int(sum(monitor.evictions for monitor in monitors))
        )
    return MonitorOutcome(
        bin_start_times=np.array([index * bin_duration for index, _, _, _ in completed]),
        flows_per_bin=float(np.mean([flows for _, flows, _, _ in completed])),
        total_packets=truth.packets_seen,
        ranking_values=np.stack([row for _, _, row, _ in completed], axis=1),
        detection_values=np.stack([row for _, _, _, row in completed], axis=1),
        evictions=np.array([monitor.evictions for monitor in monitors], dtype=np.int64),
        max_flows=max_flows,
    )


def metric_series_for_stream(
    outcome: StreamOutcome,
    problem: str,
    sampling_rate: float,
    stream_slice: slice,
) -> MetricSeries:
    """Package one sampler's runs (a slice of streams) as a MetricSeries.

    Parameters
    ----------
    outcome:
        The raw stream outcome produced by :func:`run_stream`.
    problem:
        ``"ranking"`` or ``"detection"``.
    sampling_rate:
        Effective sampling rate recorded on the series.
    stream_slice:
        The contiguous range of stream indices holding this sampler's
        independent runs.

    Returns
    -------
    MetricSeries
        The per-bin values of those runs, in run order.
    """
    values = (
        outcome.ranking_values if problem == "ranking" else outcome.detection_values
    )[stream_slice]
    return MetricSeries(
        problem=problem,
        sampling_rate=sampling_rate,
        bin_start_times=outcome.bin_start_times,
        values=values,
    )


__all__ = [
    "StreamOutcome",
    "MonitorOutcome",
    "run_stream",
    "run_monitor_stream",
    "metric_series_for_stream",
]
