"""Reference chunk assembly: concatenate the pending packets, stable-argsort each emission.

:func:`reference_chunks` replays any stack of the library's packet
sources — flow-trace expansion, packet tables, merges, load scaling and
time warps — with the original assembly: pending packets grow by
``np.concatenate`` and every emitted chunk is ordered with
``np.argsort(kind="stable")``, each batch built through the validating
:class:`~repro.flows.packets.PacketBatch` constructor.  The library
sources (pooled buffers, searchsorted cuts, timsort merges, trusted
batches) must yield the very same chunks: boundaries, values and
dtypes.  :func:`reference_expand_to_packets` is the same oracle for
:func:`repro.traces.expansion.expand_to_packets`.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.flows.packets import DEFAULT_PACKET_SIZE_BYTES, PacketBatch
from repro.traces.flow_trace import FlowLevelTrace
from repro.traces.source import (
    FlowTraceSource,
    LoadScaleSource,
    MergeSource,
    PacketSource,
    PacketTableSource,
    TimeWarpSource,
)


def reference_chunks(
    source: PacketSource, rng: np.random.Generator, chunk_packets: int | None
) -> Iterator[PacketBatch]:
    """The chunks ``source.iter_chunks(rng, chunk_packets)`` must yield."""
    if isinstance(source, FlowTraceSource):
        return reference_expanded_chunks(
            source.trace,
            rng,
            chunk_packets,
            clip_to_duration=source.clip_to_duration,
            packet_size_bytes=source.packet_size_bytes,
        )
    if isinstance(source, PacketTableSource):
        return _table_chunks(source, chunk_packets)
    if isinstance(source, MergeSource):
        return _merge_chunks(source, rng, chunk_packets)
    if isinstance(source, LoadScaleSource):
        return _load_scale_chunks(source, rng, chunk_packets)
    if isinstance(source, TimeWarpSource):
        return _time_warp_chunks(source, rng, chunk_packets)
    raise TypeError(f"no reference assembly for {type(source).__name__}")


def reference_expanded_chunks(
    trace: FlowLevelTrace,
    rng: np.random.Generator,
    chunk_packets: int | None,
    clip_to_duration: float | None = None,
    packet_size_bytes: int = DEFAULT_PACKET_SIZE_BYTES,
) -> Iterator[PacketBatch]:
    """Flow-trace expansion with concatenated pending packets."""
    num_flows = trace.num_flows
    if num_flows == 0:
        return
    if chunk_packets is not None and chunk_packets < 1:
        raise ValueError("chunk_packets must be positive when given")

    # Admission (and RNG draw) order is start-time order, so the draw
    # sequence is the same for every chunk size.
    order = np.argsort(trace.start_times, kind="stable").astype(np.int64)
    starts = trace.start_times[order]
    durations = trace.durations[order]
    sizes = trace.sizes_packets[order]
    cumulative = np.cumsum(sizes)
    total_packets = int(cumulative[-1])
    target = total_packets if chunk_packets is None else int(chunk_packets)

    pending_ts = np.empty(0, dtype=np.float64)
    pending_ids = np.empty(0, dtype=np.int64)
    lo = 0
    while lo < num_flows or pending_ts.size:
        if lo < num_flows:
            # Admit the next block of flows (~target packets, at least one flow).
            base = int(cumulative[lo - 1]) if lo else 0
            hi = int(np.searchsorted(cumulative, base + target, side="right"))
            hi = max(hi, lo + 1)
            block_sizes = sizes[lo:hi]
            count = int(cumulative[hi - 1]) - base
            flow_ids = np.repeat(order[lo:hi], block_sizes)
            flow_starts = np.repeat(starts[lo:hi], block_sizes)
            flow_durations = np.repeat(durations[lo:hi], block_sizes)
            timestamps = flow_starts + rng.random(count) * flow_durations
            if clip_to_duration is not None:
                keep = timestamps < clip_to_duration
                timestamps = timestamps[keep]
                flow_ids = flow_ids[keep]
            pending_ts = np.concatenate((pending_ts, timestamps))
            pending_ids = np.concatenate((pending_ids, flow_ids))
            lo = hi
            frontier = float(starts[lo]) if lo < num_flows else np.inf
        else:
            frontier = np.inf

        # Packets before the next flow's start time are final: every
        # not-yet-admitted flow starts (and therefore transmits) later.
        emit = pending_ts < frontier
        if emit.any():
            emit_ts = pending_ts[emit]
            emit_ids = pending_ids[emit]
            pending_ts = pending_ts[~emit]
            pending_ids = pending_ids[~emit]
            sort = np.argsort(emit_ts, kind="stable")
            sizes_bytes = np.full(emit_ts.size, packet_size_bytes, dtype=np.int32)
            yield PacketBatch(emit_ts[sort], emit_ids[sort], sizes_bytes)


def reference_expand_to_packets(
    trace: FlowLevelTrace,
    rng: np.random.Generator | int | None = None,
    packet_size_bytes: int = DEFAULT_PACKET_SIZE_BYTES,
    clip_to_duration: float | None = None,
) -> PacketBatch:
    """Whole-trace expansion ordered by one stable argsort.

    Flows draw their placements in start-time order (ties in row
    order), as every flow-trace expansion does.
    """
    generator = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    admission = np.argsort(trace.start_times, kind="stable").astype(np.int64)
    sizes = trace.sizes_packets[admission]
    total_packets = int(sizes.sum())
    if total_packets == 0:
        return PacketBatch(np.empty(0), np.empty(0, dtype=np.int64))
    flow_ids = np.repeat(admission, sizes)
    starts = np.repeat(trace.start_times[admission], sizes)
    durations = np.repeat(trace.durations[admission], sizes)
    timestamps = starts + generator.random(total_packets) * durations
    if clip_to_duration is not None:
        keep = timestamps < clip_to_duration
        timestamps = timestamps[keep]
        flow_ids = flow_ids[keep]
    order = np.argsort(timestamps, kind="stable")
    sizes_bytes = np.full(timestamps.size, packet_size_bytes, dtype=np.int32)
    return PacketBatch(timestamps[order], flow_ids[order], sizes_bytes)


def _table_chunks(source: PacketTableSource, chunk_packets: int | None) -> Iterator[PacketBatch]:
    """Validated slices of the stored packet table."""
    if chunk_packets is not None and chunk_packets < 1:
        raise ValueError("chunk_packets must be positive when given")
    batch = source._batch
    total = len(batch)
    if total == 0:
        return
    step = total if chunk_packets is None else int(chunk_packets)
    for lo in range(0, total, step):
        hi = min(lo + step, total)
        yield PacketBatch(batch.timestamps[lo:hi], batch.flow_ids[lo:hi], batch.sizes_bytes[lo:hi])


def _merge_chunks(
    source: MergeSource, rng: np.random.Generator, chunk_packets: int | None
) -> Iterator[PacketBatch]:
    """Per-part pending buffers, cut at the bound and stable-sorted together."""
    if chunk_packets is not None and chunk_packets < 1:
        raise ValueError("chunk_packets must be positive when given")
    parts = source.sources
    counts = [part.num_flows for part in parts]
    offsets = np.concatenate(([0], np.cumsum(counts)))[:-1].astype(np.int64)
    # One child generator per part, derived once up front — each part's
    # randomness is then consumed independently of both the merge
    # schedule and the chunk size.
    children = rng.spawn(len(parts))
    if chunk_packets is None:
        # Materialised mode: the part-ordered concatenation plus a stable
        # sort gives the same total order as the incremental merge below
        # (ties by part position, then in-part order).
        chunks = [
            [(index, chunk) for chunk in reference_chunks(part, child, None)]
            for index, (part, child) in enumerate(zip(parts, children))
        ]
        flat = [entry for part_chunks in chunks for entry in part_chunks]
        if not flat or not sum(len(chunk) for _, chunk in flat):
            return
        all_ts = np.concatenate([chunk.timestamps for _, chunk in flat])
        all_ids = np.concatenate([chunk.flow_ids + offsets[index] for index, chunk in flat])
        all_sizes = np.concatenate([chunk.sizes_bytes for _, chunk in flat])
        order = np.argsort(all_ts, kind="stable")
        yield PacketBatch(all_ts[order], all_ids[order], all_sizes[order])
        return

    iterators = [
        iter(reference_chunks(part, child, chunk_packets)) for part, child in zip(parts, children)
    ]
    n = len(parts)
    pending_ts = [np.empty(0, dtype=np.float64) for _ in range(n)]
    pending_ids = [np.empty(0, dtype=np.int64) for _ in range(n)]
    pending_sizes = [np.empty(0, dtype=np.int32) for _ in range(n)]
    exhausted = [False] * n

    def load(index: int) -> None:
        """Append the part's next non-empty chunk to its pending buffer."""
        for chunk in iterators[index]:
            if len(chunk):
                pending_ts[index] = np.concatenate((pending_ts[index], chunk.timestamps))
                pending_ids[index] = np.concatenate(
                    (pending_ids[index], chunk.flow_ids + offsets[index])
                )
                pending_sizes[index] = np.concatenate((pending_sizes[index], chunk.sizes_bytes))
                return
        exhausted[index] = True

    def emit(bound: float) -> Iterator[PacketBatch]:
        """Yield every pending packet strictly below ``bound``, merged."""
        cut_ts, cut_ids, cut_sizes = [], [], []
        for index in range(n):
            cut = int(np.searchsorted(pending_ts[index], bound, side="left"))
            if cut == 0:
                continue
            cut_ts.append(pending_ts[index][:cut])
            cut_ids.append(pending_ids[index][:cut])
            cut_sizes.append(pending_sizes[index][:cut])
            pending_ts[index] = pending_ts[index][cut:]
            pending_ids[index] = pending_ids[index][cut:]
            pending_sizes[index] = pending_sizes[index][cut:]
        if not cut_ts:
            return
        ts = np.concatenate(cut_ts)
        order = np.argsort(ts, kind="stable")
        ts = ts[order]
        ids = np.concatenate(cut_ids)[order]
        sizes = np.concatenate(cut_sizes)[order]
        for lo in range(0, ts.size, int(chunk_packets)):
            hi = min(lo + int(chunk_packets), ts.size)
            yield PacketBatch(ts[lo:hi], ids[lo:hi], sizes[lo:hi])

    for index in range(n):
        load(index)
    while True:
        live = [index for index in range(n) if not exhausted[index]]
        if not live:
            yield from emit(np.inf)
            return
        bound = min(float(pending_ts[index][-1]) for index in live)
        emitted = False
        for batch in emit(bound):
            emitted = True
            yield batch
        if not emitted:
            # Everything pending sits exactly at the bound; pull more
            # data from the blocking parts so the bound can advance.
            for index in live:
                if float(pending_ts[index][-1]) <= bound:
                    load(index)


def _mix64(values: np.ndarray) -> np.ndarray:
    """SplitMix64 finaliser over uint64 arrays."""
    z = values + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _load_scale_chunks(
    source: LoadScaleSource, rng: np.random.Generator, chunk_packets: int | None
) -> Iterator[PacketBatch]:
    """Hash every packet's position, whatever the factor."""
    # One draw up front; all later randomness is hash-derived so the rng
    # consumption cannot depend on the chunk boundaries.
    seed = np.uint64(rng.integers(0, 2**63, dtype=np.int64))
    base = int(source.factor)
    fraction = source.factor - base
    position = 0
    for chunk in reference_chunks(source.source, rng, chunk_packets):
        count = len(chunk)
        if count == 0:
            continue
        indices = np.arange(position, position + count, dtype=np.uint64)
        position += count
        uniforms = _mix64(indices ^ seed).astype(np.float64) / float(2**64)
        repeats = base + (uniforms < fraction).astype(np.int64)
        if not repeats.any():
            continue
        yield PacketBatch(
            np.repeat(chunk.timestamps, repeats),
            np.repeat(chunk.flow_ids, repeats),
            np.repeat(chunk.sizes_bytes, repeats),
        )


def _time_warp_chunks(
    source: TimeWarpSource, rng: np.random.Generator, chunk_packets: int | None
) -> Iterator[PacketBatch]:
    """Warp every chunk's timestamps and re-validate the batch."""
    for chunk in reference_chunks(source.source, rng, chunk_packets):
        yield PacketBatch(source.warp(chunk.timestamps), chunk.flow_ids, chunk.sizes_bytes)
