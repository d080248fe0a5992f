"""Chunked streaming execution of sampling experiments.

Materialising the expanded packet trace holds every packet in memory
at once — tens of millions at backbone scale.  The executor in this
module instead iterates the expansion **chunk by chunk**, in global
*time order*, and finalises every measurement bin as soon as the
stream has moved past it — so peak memory scales with the
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
from ..core.metrics import SwappedPairCounts, _checked_top_t, swapped_pair_counts
from ..flows.accounting import BinAccount, FlowAccountingEngine, _checked_max_flows
from ..flows.packets import PacketBatch
from ..sampling.base import PacketSampler
from .result import MetricSeries

#: Bin indices are ``int64``: the last timestamp's index must stay below.
_MAX_BIN_INDEX = 2.0**63


@dataclass
class StreamOutcome:
    """Raw output of :func:`run_stream` before packaging into a result."""

    bin_start_times: np.ndarray
    flows_per_bin: float
    total_packets: int
    #: ``values[stream]`` has shape ``(num_bins,)`` per metric.
    ranking_values: np.ndarray  # (num_streams, num_bins)
    detection_values: np.ndarray  # (num_streams, num_bins)
    #: Smallest-flow evictions of each stream's bounded monitor; zeros
    #: when the run is unbounded.
    evictions: np.ndarray  # (num_streams,)


def run_stream(
    chunks: Iterable[PacketBatch],
    group_of_flow: np.ndarray,
    stream_samplers: list[PacketSampler],
    bin_duration: float,
    top_t: int,
    max_flows: int | None = None,
) -> StreamOutcome:
    """Fold time-ordered packet chunks into per-bin metrics per stream.

    One unbounded truth :class:`~repro.flows.accounting.FlowAccountingEngine`
    accounts every packet.  Each (sampler, run) stream's sampled counts
    come from one of two places:

    * ``max_flows=None`` (the idealised monitor of the paper, unlimited
      flow memory): the samplers' keep masks ride along with the chunk
      into the truth engine, which counts every stream's kept packets
      per flow in its own columns
      (:attr:`~repro.flows.accounting.BinAccount.sampled`);
    * a ``max_flows`` bound: every stream's sampled packets feed its own
      bounded engine, which evicts the smallest tracked flow when full,
      so the metrics include the error introduced by bounded flow
      memory, not just by sampling.

    Bins are scored and discarded incrementally: once the stream head
    moves past a bin, the truth engine closes it and one
    :func:`~repro.core.metrics.swapped_pair_counts` call scores every
    stream against it, so memory never scales with the number of bins.

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
        Number of top flows to rank/detect, an integer of at least 1 (a
        bin with fewer flows ranks all of them).
    max_flows:
        Flow-memory bound of each stream's monitor, an integer of at
        least 1 (``None`` = unbounded).

    Returns
    -------
    StreamOutcome
        Per-bin swapped-pair counts for every stream, the shared bin
        start times, flows-per-bin average and packet total, and each
        stream's eviction count.

    Raises
    ------
    TypeError
        When ``top_t`` or ``max_flows`` is not an integer (checked
        before any chunk is read).
    ValueError
        When ``bin_duration`` is not positive, ``top_t < 1`` or
        ``max_flows < 1`` (checked before any chunk is read), or on
        malformed chunks.
    OverflowError
        When a timestamp's bin index does not fit ``int64`` (a
        ``bin_duration`` far too small for the trace).
    """
    if bin_duration <= 0:
        raise ValueError("bin_duration must be positive")
    top_t = _checked_top_t(top_t)
    max_flows = _checked_max_flows(max_flows)
    groups = np.asarray(group_of_flow, dtype=np.int64)
    if groups.ndim != 1:
        raise ValueError("group_of_flow must be a 1-D array")
    if groups.size and int(groups.min()) < 0:
        raise ValueError("flow group identifiers must be non-negative")
    num_streams = len(stream_samplers)

    truth = FlowAccountingEngine(bin_duration)
    monitors: list[FlowAccountingEngine] = []
    if max_flows is not None:
        monitors = [
            FlowAccountingEngine(bin_duration, max_flows=max_flows) for _ in stream_samplers
        ]
    #: Monitor bins closed but not yet matched with a truth bin, per stream.
    pending: list[dict[int, BinAccount]] = [{} for _ in monitors]
    completed: list[tuple[int, int, SwappedPairCounts]] = []

    def _monitor_counts(account: BinAccount) -> np.ndarray:
        sampled = np.zeros((num_streams, account.codes.size), dtype=np.int64)
        for stream, monitor in enumerate(monitors):
            monitor.close_until(account.index + 1)
            for closed in monitor.drain_completed():
                pending[stream][closed.index] = closed
            monitor_account = pending[stream].pop(account.index, None)
            if monitor_account is not None:
                sampled[stream] = monitor_account.counts_for(account.codes)
        return sampled

    def _score(accounts: list[BinAccount]) -> None:
        for account in accounts:
            if monitors:
                with telemetry.span("stream.account"):
                    sampled = _monitor_counts(account)
            else:
                assert account.sampled is not None
                sampled = account.sampled
            # One call scores every stream of the bin (one row each).
            with telemetry.span("stream.score"):
                counts = swapped_pair_counts(account.packets, sampled, top_t)
            completed.append((account.index, account.num_flows, counts))

    group_low = int(groups.min()) if groups.size else 0
    group_high = int(groups.max()) if groups.size else 0
    previous_end = -np.inf
    for chunk in chunks:
        size = len(chunk)
        if size == 0:
            continue
        if int(chunk.flow_ids.max()) >= groups.size:
            raise ValueError("group_of_flow is too short for the flow ids present in the stream")
        timestamps = chunk.timestamps
        first_time = float(timestamps[0])
        if first_time < previous_end:
            raise ValueError("chunks must arrive in global time order")
        previous_end = float(timestamps[-1])
        if not np.floor_divide(previous_end, bin_duration) < _MAX_BIN_INDEX:
            raise OverflowError(
                f"bin_duration={bin_duration!r} gives bin indices beyond int64 "
                f"at t={previous_end!r}; use a larger bin_duration"
            )
        sizes = chunk.sizes_bytes
        with telemetry.span("stream.sample"):
            keep = np.empty((num_streams, size), dtype=bool)
            for stream, sampler in enumerate(stream_samplers):
                mask = np.asarray(sampler.sample_mask(chunk), dtype=bool)
                if mask.shape != (size,):
                    raise ValueError(
                        f"{type(sampler).__name__}.sample_mask must return one flag per "
                        f"packet: got shape {mask.shape} for {size} packets"
                    )
                keep[stream] = mask
        # One code gather and one constant-size check per chunk; the
        # truth engine and every monitor consume the same trusted columns.
        with telemetry.span("stream.account"):
            codes = groups.take(chunk.flow_ids)
            const_size = int(sizes[0]) if bool((sizes == sizes[0]).all()) else None
            dense = truth.reserve_codes(group_low, group_high)
            if telemetry.enabled:
                telemetry.gauge("stream.addressing", "dense" if dense else "probing")
            truth.observe_sorted_chunk(
                timestamps,
                codes,
                sizes,
                in_bounds=dense,
                const_size=const_size,
                keep_masks=None if monitors else keep,
            )
            for monitor, mask in zip(monitors, keep):
                kept = np.flatnonzero(mask)
                monitor.observe_sorted_chunk(
                    timestamps.take(kept), codes.take(kept), sizes.take(kept), const_size=const_size
                )
            # Bins the stream head has moved past can never grow again.
            closed = truth.drain_completed()
        _score(closed)

    with telemetry.span("stream.account"):
        closed = truth.flush()
    _score(closed)
    if not completed:
        raise ValueError("the packet stream produced no measurement bins")

    completed.sort(key=lambda entry: entry[0])
    ranking = np.stack([counts.ranking for _, _, counts in completed], axis=1)
    detection = np.stack([counts.detection for _, _, counts in completed], axis=1)
    if monitors:
        evictions = np.array([monitor.evictions for monitor in monitors], dtype=np.int64)
        if telemetry.enabled:
            telemetry.count("stream.evictions", int(evictions.sum()))
    else:
        evictions = np.zeros(num_streams, dtype=np.int64)
    return StreamOutcome(
        bin_start_times=np.array([index * bin_duration for index, _, _ in completed]),
        flows_per_bin=float(np.mean([flows for _, flows, _ in completed])),
        total_packets=truth.packets_seen,
        ranking_values=ranking.astype(float),
        detection_values=detection.astype(float),
        evictions=evictions,
    )


#: The benchmark tracer (``perfbench/tracer.py``) wraps the fold under
#: this name as well; it is the same function.
run_monitor_stream = run_stream


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
    "run_stream",
    "run_monitor_stream",
    "metric_series_for_stream",
]
