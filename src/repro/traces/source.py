"""Streaming packet sources: the abstraction the pipeline executes.

Historically the execution engine was hard-wired to one workload shape —
a :class:`~repro.traces.flow_trace.FlowLevelTrace` expanded into packets
by :func:`iter_expanded_chunks`.  This module turns that trace layer
into a first-class abstraction: a :class:`PacketSource` is anything that
can stream time-ordered :class:`~repro.flows.packets.PacketBatch`
chunks and map its flow ids to flow groups under a key policy.  The
pipeline (:mod:`repro.pipeline`) consumes any source, so new workloads
(bursts, diurnal load, population drift, multi-link monitoring) plug in
without touching the executor.

Every source honours two contracts, both inherited from the streaming
executor and asserted property-based in the test suite:

* **time order** — the concatenation of the yielded chunks is the
  globally time-sorted packet stream;
* **chunk-size invariance** — that concatenation (and any randomness
  consumed from the ``rng`` argument) is identical for every
  ``chunk_packets``, including ``None`` (one materialised chunk).

Sources compose: :class:`MergeSource` time-merges N sources (multi-link
monitoring), :class:`LoadScaleSource` deterministically thins or
replicates packets, and :class:`TimeWarpSource` reshapes the arrival
process through a monotone time warp (diurnal load).  The named
workloads built from these live in :mod:`repro.scenarios`.

Chunk *assembly* — how pending packets are buffered, ordered and cut
into emitted chunks — builds on the amortised buffers and searchsorted
merges of :mod:`repro.traces.buffers` (see ``docs/traces.md``, "Source
throughput").  The test suite bit-checks every source against the
original concatenate-and-stable-argsort assembly, kept as a test oracle
in ``tests/oracles/assembly.py``:

>>> import numpy as np
>>> from repro.traces.flow_trace import FlowLevelTrace
>>> trace = FlowLevelTrace(
...     start_times=[0.0, 1.0], durations=[5.0, 2.0], sizes_packets=[6, 3],
...     src_ips=[1, 2], dst_ips=[9, 9], src_ports=[1, 2], dst_ports=[80, 80],
...     protocols=[6, 6],
... )
>>> source = FlowTraceSource(trace)
>>> chunks = list(source.iter_chunks(np.random.default_rng(0), chunk_packets=4))
>>> sum(len(chunk) for chunk in chunks)
9
"""

from __future__ import annotations

import abc
import os
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .. import telemetry
from ..flows.keys import FlowKeyPolicy
from ..flows.packets import PacketBatch
from .buffers import ChunkBuffer, RunQueue, SortedRun, merge_sorted_runs, stable_sort
from .flow_trace import FlowLevelTrace

if TYPE_CHECKING:
    from concurrent.futures import Future

#: Default number of packets per streaming chunk.  Large enough to keep
#: the per-chunk NumPy work efficient, small enough that a chunk is a
#: rounding error next to a backbone-scale packet trace.
DEFAULT_CHUNK_PACKETS = 1 << 18


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _next_chunk(chunks: Iterator[PacketBatch]) -> PacketBatch | None:
    """``next(chunks)``, or ``None`` once the stream is exhausted."""
    return next(chunks, None)


def iter_expanded_chunks(
    trace: FlowLevelTrace,
    rng: np.random.Generator,
    chunk_packets: int | None = DEFAULT_CHUNK_PACKETS,
    clip_to_duration: float | None = None,
) -> Iterator[PacketBatch]:
    """Expand a flow-level trace into time-ordered packet chunks.

    Flows are admitted in start-time order; each flow's packets are
    placed uniformly over its lifetime (the paper's Section 8.1
    expansion) at the moment the flow is admitted.
    :func:`repro.traces.expansion.expand_to_packets` is the one chunk of
    ``chunk_packets=None``.  Packets that fall beyond the start of the
    next unadmitted flow are buffered (no earlier packet can still
    arrive), and each emitted chunk is sorted by timestamp — so the
    concatenation of all chunks is the globally time-sorted packet
    stream, independent of the chunk size.

    Only the current chunk and the buffered tails of admitted flows are
    in memory at any time; with ``chunk_packets=None`` everything is
    admitted at once (materialised mode).

    The pending tail lives in a reusable :class:`ChunkBuffer`; each
    admitted block's placements are drawn *into* the buffer
    (``rng.random(out=...)``, then scaled/shifted in place —
    IEEE-commutative, so the values are bitwise those of ``starts + u *
    durations``), the whole live region is ordered with
    :func:`~repro.traces.buffers.stable_sort` (introsort + exact tie
    fix-up, which hands back the sorted timestamps it gathered for its
    tie check), and the flow ids are gathered once into a fresh array.
    Clip and emission are then suffix/prefix ``searchsorted`` cuts: emitted
    chunks are zero-copy views of the fresh arrays (never written
    again), and only the small pending tail is copied back into the
    buffer.

    Parameters
    ----------
    trace:
        The flow-level trace to expand.
    rng:
        Generator for the packet placements; consumed in flow
        start-time order, so the draw sequence — and therefore the
        packet stream — is identical for every chunk size.
    chunk_packets:
        Approximate packets per emitted chunk; ``None`` materialises
        the whole trace as one chunk.
    clip_to_duration:
        When given, packets at or beyond this time are dropped (flow
        tails that spill past the measurement window).

    Yields
    ------
    PacketBatch
        Time-sorted packet chunks whose concatenation is the global
        time-sorted stream.
    """
    num_flows = trace.num_flows
    if num_flows == 0:
        return
    if chunk_packets is not None and chunk_packets < 1:
        raise ValueError("chunk_packets must be positive when given")

    order = np.argsort(trace.start_times, kind="stable").astype(np.int64)
    starts = trace.start_times[order]
    durations = trace.durations[order]
    sizes = trace.sizes_packets[order]
    cumulative = np.cumsum(sizes)
    total_packets = int(cumulative[-1])
    target = total_packets if chunk_packets is None else int(chunk_packets)

    pending = ChunkBuffer()
    lo = 0
    while lo < num_flows or pending.size:
        if lo < num_flows:
            base = int(cumulative[lo - 1]) if lo else 0
            hi = int(np.searchsorted(cumulative, base + target, side="right"))
            hi = max(hi, lo + 1)
            block_sizes = sizes[lo:hi]
            count = int(cumulative[hi - 1]) - base
            block_ts, block_ids = pending.grow(count)
            rng.random(out=block_ts)
            block_ts *= np.repeat(durations[lo:hi], block_sizes)
            block_ts += np.repeat(starts[lo:hi], block_sizes)
            block_ids[:] = np.repeat(order[lo:hi], block_sizes)
            lo = hi

        sort, merged_ts = stable_sort(pending.timestamps)
        merged_ids = pending.flow_ids[sort]
        if clip_to_duration is not None:
            # Clipped packets form a suffix of the sorted round.
            keep = int(np.searchsorted(merged_ts, clip_to_duration, side="left"))
            merged_ts = merged_ts[:keep]
            merged_ids = merged_ids[:keep]
        if lo < num_flows:
            # Packets before the next flow's start are final (no earlier
            # packet can still arrive); the rest stay pending.
            emit = int(np.searchsorted(merged_ts, float(starts[lo]), side="left"))
        else:
            emit = merged_ts.size
        if emit:
            if telemetry.enabled:
                telemetry.count("source.chunks")
                telemetry.count("source.packets", emit)
                telemetry.gauge("source.buffer_capacity", pending.capacity)
            yield PacketBatch.from_trusted_columns(merged_ts[:emit], merged_ids[:emit])
        pending.replace(merged_ts[emit:], merged_ids[emit:])


class PacketSource(abc.ABC):
    """A streaming source of time-ordered packet chunks.

    Subclasses provide the packet stream (:meth:`iter_chunks`) and the
    flow-group mapping (:meth:`group_ids`); the pipeline never needs to
    know where the packets come from.  Both contracts documented in the
    module docstring (time order, chunk-size invariance) are mandatory.
    """

    #: Short human-readable kind, used by :meth:`describe`.
    name: str = "source"

    # ------------------------------------------------------------------
    @abc.abstractmethod
    def iter_chunks(
        self,
        rng: np.random.Generator,
        chunk_packets: int | None = DEFAULT_CHUNK_PACKETS,
    ) -> Iterator[PacketBatch]:
        """Stream the packet trace as time-ordered chunks.

        Parameters
        ----------
        rng:
            Generator for any randomness the source needs; consumption
            must not depend on ``chunk_packets``.
        chunk_packets:
            Approximate packets per chunk; ``None`` materialises the
            whole stream as a single chunk.
        """

    @abc.abstractmethod
    def group_ids(self, key_policy: FlowKeyPolicy) -> np.ndarray:
        """Map every flow id the stream can emit to a flow-group id.

        Returns a 1-D int64 array of length :attr:`num_flows`; flow ids
        in the emitted batches index into it.
        """

    @property
    @abc.abstractmethod
    def num_flows(self) -> int:
        """Number of distinct flow ids the stream can emit."""

    @property
    @abc.abstractmethod
    def duration(self) -> float:
        """End of the stream's time span, in seconds (relative to t = 0)."""

    # ------------------------------------------------------------------
    @property
    def expected_packets(self) -> int | None:
        """Expected total packets of the stream (``None`` when unknown).

        Used by the ``"auto"`` parallel backend to size the workload and
        by :class:`MergeSource` to find the parts worth reading ahead; an
        upper bound is fine.
        """
        return None

    def describe(self) -> str:
        """One-line deterministic description for reports and logs."""
        expected = self.expected_packets
        packets = f", ~{expected:,} packets" if expected is not None else ""
        return f"{self.name}({self.num_flows:,} flows, {self.duration:.0f}s{packets})"

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"


class FlowTraceSource(PacketSource):
    """Adapter: the classic flow-level trace expansion as a source.

    This is exactly the stream the pipeline has always executed — the
    expansion of a :class:`~repro.traces.flow_trace.FlowLevelTrace` via
    :func:`iter_expanded_chunks` — so a pipeline run through this source
    is bit-identical to the historical ``with_trace`` path.

    Parameters
    ----------
    trace:
        The flow-level trace to expand.
    clip_to_duration:
        Drop packets at or beyond this time.  The default ``"auto"``
        clips at ``trace.duration`` (the pipeline's historical
        behaviour); pass ``None`` to keep every packet.
    """

    name = "flow-trace"

    def __init__(
        self,
        trace: FlowLevelTrace,
        clip_to_duration: float | None | str = "auto",
    ) -> None:
        self.trace = trace
        if clip_to_duration == "auto":
            clip_to_duration = trace.duration if trace.duration > 0 else None
        self.clip_to_duration = clip_to_duration

    def iter_chunks(
        self,
        rng: np.random.Generator,
        chunk_packets: int | None = DEFAULT_CHUNK_PACKETS,
    ) -> Iterator[PacketBatch]:
        return iter_expanded_chunks(
            self.trace, rng, chunk_packets=chunk_packets, clip_to_duration=self.clip_to_duration
        )

    def group_ids(self, key_policy: FlowKeyPolicy) -> np.ndarray:
        return self.trace.group_ids(key_policy)

    @property
    def num_flows(self) -> int:
        return self.trace.num_flows

    @property
    def duration(self) -> float:
        # A clipped stream ends at the clip; an unclipped one at the
        # last flow's end (which for time-shifted traces is later than
        # the trace's own start-to-end span).
        if self.clip_to_duration is not None:
            return float(self.clip_to_duration)
        if self.trace.num_flows == 0:
            return 0.0
        return float((self.trace.start_times + self.trace.durations).max())

    @property
    def expected_packets(self) -> int | None:
        return self.trace.total_packets


class PacketTableSource(PacketSource):
    """A packet-level table held in memory (or loaded from a file).

    Packet tables reference flows by opaque integer id and carry no
    5-tuple metadata, so :meth:`group_ids` maps every flow id to itself
    under any key policy — each recorded flow is its own group.  Input
    ids are compacted to the dense range ``0..num_flows-1`` (in sorted
    id order) at construction, so sparse or hash-like ids from real
    exports never inflate the group arrays.

    Parameters
    ----------
    timestamps, flow_ids:
        Columnar packet data; timestamps must be sorted non-decreasing
        (validated).
    """

    name = "packet-table"

    def __init__(self, timestamps: np.ndarray, flow_ids: np.ndarray) -> None:
        ids = np.asarray(flow_ids, dtype=np.int64)
        if ids.size:
            _, ids = np.unique(ids, return_inverse=True)
        self._batch = PacketBatch(timestamps, ids.astype(np.int64))

    @classmethod
    def from_batch(cls, batch: PacketBatch) -> "PacketTableSource":
        """Build a source from an existing :class:`PacketBatch`."""
        return cls(batch.timestamps, batch.flow_ids)

    def iter_chunks(
        self,
        rng: np.random.Generator,
        chunk_packets: int | None = DEFAULT_CHUNK_PACKETS,
    ) -> Iterator[PacketBatch]:
        if chunk_packets is not None and chunk_packets < 1:
            raise ValueError("chunk_packets must be positive when given")
        batch = self._batch
        total = len(batch)
        if total == 0:
            return
        step = total if chunk_packets is None else int(chunk_packets)
        for lo in range(0, total, step):
            hi = min(lo + step, total)
            # The stored batch was validated at construction; every slice
            # of it satisfies the invariants, so chunks are emitted as
            # zero-copy views with no re-validation.
            yield PacketBatch.from_trusted_columns(batch.timestamps[lo:hi], batch.flow_ids[lo:hi])

    def group_ids(self, key_policy: FlowKeyPolicy) -> np.ndarray:
        return np.arange(self.num_flows, dtype=np.int64)

    @property
    def num_flows(self) -> int:
        if len(self._batch) == 0:
            return 0
        return int(self._batch.flow_ids.max()) + 1

    @property
    def duration(self) -> float:
        if len(self._batch) == 0:
            return 0.0
        return float(self._batch.timestamps[-1])

    @property
    def expected_packets(self) -> int | None:
        return len(self._batch)


class CSVPacketSource(PacketTableSource):
    """A packet table read from a CSV file written by
    :func:`repro.traces.io.write_packet_batch_csv`."""

    name = "packet-csv"

    def __init__(self, path: str | Path) -> None:
        from .io import read_packet_batch_csv

        self.path = Path(path)
        batch = read_packet_batch_csv(self.path)
        super().__init__(batch.timestamps, batch.flow_ids)


class NPZPacketSource(PacketTableSource):
    """A packet table read from an NPZ file written by
    :func:`repro.traces.io.write_packet_batch_npz`.

    The two columns are read into memory (``mmap`` is passed on to
    :func:`~repro.traces.io.read_packet_batch_npz`, where NumPy ignores
    it for NPZ archives), and the flow ids are compacted into a fresh
    array at construction.
    """

    name = "packet-npz"

    def __init__(self, path: str | Path, mmap: bool = True) -> None:
        from .io import read_packet_batch_npz

        self.path = Path(path)
        batch = read_packet_batch_npz(self.path, mmap=mmap)
        super().__init__(batch.timestamps, batch.flow_ids)


class MergeSource(PacketSource):
    """Time-ordered merge of N sources — multi-link monitoring.

    Flow ids of part ``k`` are offset by the total flow count of parts
    ``0..k-1``, and flow groups are offset the same way, so flows (and
    groups) observed on different links never collide — a /24 prefix
    seen on two links is two distinct groups, as two separate monitors
    would report it.

    The merge is exact and chunk-size invariant: packets are emitted in
    global time order with ties broken by source position (then by
    in-source order), whatever chunk size the parts are pulled at.

    A streamed merge reads ahead: when the process may use more than one
    CPU, each part that spans more than one chunk (its
    ``expected_packets`` exceeds ``chunk_packets``, or is unknown) has
    its next chunk assembled on a thread of its own while the merge and
    its consumer work, so the parts' expansions run side by side.  Each
    part is still advanced by one thread at a time, in order, from its
    own generator, so the stream is the same as without threads.
    Materialised merges, parts inside one chunk and one-CPU processes
    start no thread (the ``source.read_ahead`` telemetry gauge counts
    the parts read ahead).  Parts may thus run concurrently, so one
    source object whose streams share mutable state must not be two
    parts of a merge.  Memory is bounded by roughly one pending chunk
    per part, two for a part that is read ahead.
    """

    name = "merge"

    def __init__(self, *sources: PacketSource) -> None:
        if len(sources) == 1 and isinstance(sources[0], Sequence):
            sources = tuple(sources[0])
        if not sources:
            raise ValueError("MergeSource needs at least one source")
        self.sources = tuple(sources)
        counts = [source.num_flows for source in self.sources]
        self._flow_offsets = np.concatenate(([0], np.cumsum(counts)))[:-1].astype(np.int64)

    def iter_chunks(
        self,
        rng: np.random.Generator,
        chunk_packets: int | None = DEFAULT_CHUNK_PACKETS,
    ) -> Iterator[PacketBatch]:
        """Zero-copy k-way merge of the parts' streams.

        Each part's pending packets sit in a :class:`RunQueue` of
        chunk views (no per-load copying; only the flow-id offset
        allocates, and not at all for the first part).  Emission cuts
        every part at the bound and merges the per-part runs with
        earlier parts winning ties — the total order of a stable sort
        over the part-ordered concatenation.  The merged columns are
        freshly allocated, so the emitted chunks are zero-copy views
        into them.
        """
        if chunk_packets is not None and chunk_packets < 1:
            raise ValueError("chunk_packets must be positive when given")
        # One child generator per part, derived once up front — each
        # part's randomness is then consumed independently of both the
        # merge schedule and the chunk size.
        children = rng.spawn(len(self.sources))

        def _as_run(chunk: PacketBatch, index: int) -> SortedRun:
            offset = int(self._flow_offsets[index])
            flow_ids = chunk.flow_ids + offset if offset else chunk.flow_ids
            return chunk.timestamps, flow_ids

        ahead = self._read_ahead_parts(chunk_packets)
        if telemetry.enabled:
            telemetry.gauge("source.read_ahead", len(ahead))
        if chunk_packets is None:
            # Materialised mode: one chunk holding the whole merged
            # stream, assembled from the part-ordered chunk runs.
            runs: list[SortedRun] = []
            for index, (source, child) in enumerate(zip(self.sources, children)):
                for chunk in source.iter_chunks(child, None):
                    if len(chunk):
                        runs.append(_as_run(chunk, index))
            if not runs:
                return
            yield PacketBatch.from_trusted_columns(*merge_sorted_runs(runs))
            return
        iterators = [
            iter(source.iter_chunks(child, chunk_packets))
            for source, child in zip(self.sources, children)
        ]
        n = len(self.sources)
        queues = [RunQueue() for _ in range(n)]
        exhausted = [False] * n
        pool = None
        if ahead:
            # Imported here: with the logging it loads, ~8 ms that a
            # process which never reads ahead does not pay at start-up.
            import concurrent.futures

            pool = concurrent.futures.ThreadPoolExecutor(
                max_workers=len(ahead), thread_name_prefix="merge-read-ahead"
            )
        # The one read in flight of each read-ahead part.
        reads: dict[int, Future[PacketBatch | None]] = {}

        def _next(index: int) -> PacketBatch | None:
            """The part's next chunk, or ``None`` once it is exhausted."""
            read = reads.pop(index, None)
            if read is None or pool is None:
                return _next_chunk(iterators[index])
            chunk = read.result()
            if chunk is not None:
                # The merge took this chunk: start reading the next.
                reads[index] = pool.submit(_next_chunk, iterators[index])
            return chunk

        def _load(index: int) -> bool:
            """Enqueue the part's next non-empty chunk as a pending run."""
            while True:
                chunk = _next(index)
                if chunk is None:
                    exhausted[index] = True
                    return False
                if len(chunk) == 0:
                    continue
                queues[index].append(_as_run(chunk, index))
                return True

        def _emit(bound: float) -> Iterator[PacketBatch]:
            """Yield every pending packet strictly below ``bound``, merged."""
            runs: list[SortedRun] = []
            for index in range(n):
                runs.extend(queues[index].cut_below(bound))
            if not runs:
                return
            ts, ids = merge_sorted_runs(runs)
            step = ts.size if chunk_packets is None else int(chunk_packets)
            for lo in range(0, ts.size, step):
                hi = min(lo + step, ts.size)
                yield PacketBatch.from_trusted_columns(ts[lo:hi], ids[lo:hi])

        try:
            if pool is not None:
                for index in ahead:
                    reads[index] = pool.submit(_next_chunk, iterators[index])
            for index in range(n):
                _load(index)
            while True:
                live = [index for index in range(n) if not exhausted[index]]
                if not live:
                    yield from _emit(np.inf)
                    return
                bound = min(queues[index].last_time() for index in live)
                emitted = False
                for batch in _emit(bound):
                    emitted = True
                    yield batch
                if not emitted:
                    # Everything pending sits exactly at the bound; pull
                    # more data from the blocking parts so the bound can
                    # advance.
                    for index in live:
                        if queues[index].last_time() <= bound:
                            _load(index)
        finally:
            # However the stream ends (drained, broken off, collected, or
            # a part raised), no read outlives it: wait for the reads in
            # flight (their chunks are dropped), then close every part,
            # which no thread advances any more.
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)
            for iterator in iterators:
                close = getattr(iterator, "close", None)
                if close is not None:
                    close()

    def _read_ahead_parts(self, chunk_packets: int | None) -> list[int]:
        """Indices of the parts whose next chunk is read on a thread of its own.

        Only a part that spans more than one chunk (or may: its size is
        unknown) has a next chunk to read while the merge works, and
        only a second usable CPU can run that read alongside it.
        """
        if chunk_packets is None or _usable_cpus() < 2:
            return []
        ahead = []
        for index, source in enumerate(self.sources):
            expected = source.expected_packets
            if expected is None or expected > chunk_packets:
                ahead.append(index)
        return ahead

    def group_ids(self, key_policy: FlowKeyPolicy) -> np.ndarray:
        parts = []
        offset = 0
        for source in self.sources:
            groups = np.asarray(source.group_ids(key_policy), dtype=np.int64)
            parts.append(groups + offset)
            offset += int(groups.max()) + 1 if groups.size else 0
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

    @property
    def num_flows(self) -> int:
        return int(sum(source.num_flows for source in self.sources))

    @property
    def duration(self) -> float:
        # Part durations are stream end times, so the merged stream
        # ends when the last part does — correct even for parts shifted
        # to start mid-trace (e.g. the churn scenario's phases).
        return max((source.duration for source in self.sources), default=0.0)

    @property
    def expected_packets(self) -> int | None:
        total = 0
        for source in self.sources:
            expected = source.expected_packets
            if expected is None:
                return None
            total += expected
        return total

    def describe(self) -> str:
        inner = " + ".join(source.describe() for source in self.sources)
        return f"merge[{inner}]"


def _mix64(values: np.ndarray) -> np.ndarray:
    """SplitMix64 finaliser: uint64 -> well-mixed uint64 (vectorised)."""
    z = values + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


class LoadScaleSource(PacketSource):
    """Scale the packet load of a source by a constant factor.

    Each packet is replicated ``floor(factor)`` times plus one more with
    probability ``frac(factor)`` — so ``factor < 1`` thins the stream
    and ``factor > 1`` amplifies it (a crude but effective model of load
    growth or attack amplification).  The per-packet decision hashes a
    single up-front seed with the packet's global stream position, so it
    is deterministic and chunk-size invariant; replicas share their
    original's timestamp and flow id.
    """

    name = "load-scale"

    def __init__(self, source: PacketSource, factor: float) -> None:
        if factor < 0:
            raise ValueError("factor must be non-negative")
        self.source = source
        self.factor = float(factor)

    def iter_chunks(
        self,
        rng: np.random.Generator,
        chunk_packets: int | None = DEFAULT_CHUNK_PACKETS,
    ) -> Iterator[PacketBatch]:
        """Replicate or thin the inner stream by hashed packet position.

        ``np.repeat`` preserves sortedness, dtypes and sign, so the
        replicated columns satisfy every batch invariant by
        construction and are emitted through the trusted constructor.
        Integer factors need no per-packet hash at all: the fractional
        draw ``uniforms < fraction`` is constant-false, making the
        repeat count the same scalar for every packet.  The up-front
        seed draw and the inner source's RNG consumption are the same for
        every factor, so the stream stays chunk-size invariant.
        """
        # One draw up front; all later randomness is hash-derived so the
        # rng consumption cannot depend on the chunk boundaries.
        seed = np.uint64(rng.integers(0, 2**63, dtype=np.int64))
        base = int(self.factor)
        fraction = self.factor - base
        if fraction > 0.0:
            position = 0
            for chunk in self.source.iter_chunks(rng, chunk_packets):
                count = len(chunk)
                if count == 0:
                    continue
                indices = np.arange(position, position + count, dtype=np.uint64)
                position += count
                uniforms = _mix64(indices ^ seed).astype(np.float64) / float(2**64)
                repeats = base + (uniforms < fraction).astype(np.int64)
                if not repeats.any():
                    continue
                yield PacketBatch.from_trusted_columns(
                    np.repeat(chunk.timestamps, repeats), np.repeat(chunk.flow_ids, repeats)
                )
            return
        # Integer factor: constant per-packet repeat count.  The inner
        # source is still drained even for factor 0 so its randomness is
        # consumed exactly as for fractional factors.
        for chunk in self.source.iter_chunks(rng, chunk_packets):
            if len(chunk) == 0 or base == 0:
                continue
            if base == 1:
                yield chunk
            else:
                yield PacketBatch.from_trusted_columns(
                    np.repeat(chunk.timestamps, base), np.repeat(chunk.flow_ids, base)
                )

    def group_ids(self, key_policy: FlowKeyPolicy) -> np.ndarray:
        return self.source.group_ids(key_policy)

    @property
    def num_flows(self) -> int:
        return self.source.num_flows

    @property
    def duration(self) -> float:
        return self.source.duration

    @property
    def expected_packets(self) -> int | None:
        expected = self.source.expected_packets
        if expected is None:
            return None
        return int(round(expected * self.factor))

    def describe(self) -> str:
        return f"load-scale(x{self.factor:g}, {self.source.describe()})"


@dataclass(frozen=True)
class PiecewiseLinearWarp:
    """A monotone piecewise-linear time transformation (picklable).

    Maps input times through ``np.interp`` over the ``(inputs,
    outputs)`` knots; outside the knot range the boundary value is held.
    Both arrays must be non-decreasing so the warp preserves time order.
    """

    inputs: np.ndarray
    outputs: np.ndarray

    def __post_init__(self) -> None:
        inputs = np.asarray(self.inputs, dtype=np.float64)
        outputs = np.asarray(self.outputs, dtype=np.float64)
        if inputs.ndim != 1 or inputs.shape != outputs.shape or inputs.size < 2:
            raise ValueError("warp needs matching 1-D knot arrays of length >= 2")
        if np.any(np.diff(inputs) < 0) or np.any(np.diff(outputs) < 0):
            raise ValueError("warp knots must be non-decreasing")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "outputs", outputs)

    def __call__(self, times: np.ndarray) -> np.ndarray:
        return np.interp(times, self.inputs, self.outputs)


def diurnal_warp(
    span: float,
    amplitude: float = 0.6,
    period: float | None = None,
    knots: int = 1024,
) -> PiecewiseLinearWarp:
    """A warp that modulates packet rate sinusoidally over ``[0, span]``.

    Applied to a roughly uniform arrival process, the warped stream's
    instantaneous rate is proportional to ``1 + amplitude *
    sin(2*pi*t/period)`` — the classic diurnal load curve compressed to
    the trace length.  The warp maps ``[0, span]`` onto itself, so bin
    counts and the overall packet total are unchanged; only the shape of
    the load over time moves.

    Parameters
    ----------
    span:
        Length of the time interval being reshaped (seconds).
    amplitude:
        Peak-to-mean modulation depth, in ``[0, 1)``.
    period:
        Modulation period in seconds (default: half the span, giving
        one full peak and one full trough).
    knots:
        Resolution of the piecewise-linear inverse.
    """
    if span <= 0:
        raise ValueError("span must be positive")
    if not 0 <= amplitude < 1:
        raise ValueError("amplitude must be in [0, 1)")
    if period is None:
        period = span / 2.0
    if period <= 0:
        raise ValueError("period must be positive")
    grid = np.linspace(0.0, span, int(knots))
    rate = 1.0 + amplitude * np.sin(2.0 * np.pi * grid / period)
    cumulative = np.concatenate(([0.0], np.cumsum((rate[1:] + rate[:-1]) / 2.0 * np.diff(grid))))
    # Normalise so the warp maps [0, span] onto [0, span], then invert:
    # warp(u) = C^{-1}(u * C(span) / span).
    inputs = cumulative * (span / cumulative[-1])
    return PiecewiseLinearWarp(inputs=inputs, outputs=grid)


class TimeWarpSource(PacketSource):
    """Reshape a source's arrival process through a monotone time warp.

    Each packet's timestamp is mapped through ``warp`` (a monotone
    non-decreasing callable over arrays, e.g.
    :class:`PiecewiseLinearWarp`); flow ids and the relative packet
    order are untouched.  Use :func:`diurnal_warp` for the
    day/night load curve.
    """

    name = "time-warp"

    def __init__(self, source: PacketSource, warp: Callable[[np.ndarray], np.ndarray]) -> None:
        self.source = source
        self.warp = warp

    def iter_chunks(
        self,
        rng: np.random.Generator,
        chunk_packets: int | None = DEFAULT_CHUNK_PACKETS,
    ) -> Iterator[PacketBatch]:
        # A PiecewiseLinearWarp is validated monotone non-decreasing at
        # construction, so warping a sorted column keeps it sorted, and
        # its minimum output bounds the warped times from below — every
        # batch invariant holds by construction and re-validation is
        # skipped.  Arbitrary warp callables keep the checked constructor.
        trusted = (
            isinstance(self.warp, PiecewiseLinearWarp) and float(self.warp.outputs[0]) >= 0.0
        )
        for chunk in self.source.iter_chunks(rng, chunk_packets):
            warped = self.warp(chunk.timestamps)
            if trusted:
                yield PacketBatch.from_trusted_columns(warped, chunk.flow_ids)
            else:
                yield PacketBatch(warped, chunk.flow_ids)

    def group_ids(self, key_policy: FlowKeyPolicy) -> np.ndarray:
        return self.source.group_ids(key_policy)

    @property
    def num_flows(self) -> int:
        return self.source.num_flows

    @property
    def duration(self) -> float:
        return float(np.asarray(self.warp(np.asarray(self.source.duration))))

    @property
    def expected_packets(self) -> int | None:
        return self.source.expected_packets

    def describe(self) -> str:
        return f"time-warp({self.source.describe()})"


__all__ = [
    "DEFAULT_CHUNK_PACKETS",
    "PacketSource",
    "FlowTraceSource",
    "PacketTableSource",
    "CSVPacketSource",
    "NPZPacketSource",
    "MergeSource",
    "LoadScaleSource",
    "TimeWarpSource",
    "PiecewiseLinearWarp",
    "diurnal_warp",
    "iter_expanded_chunks",
]
