"""Sample-and-hold heavy-hitter identification (Estan & Varghese).

The paper's related work ([11]) identifies large flows with bounded
memory by *sampling-and-holding*: each packet of a flow that is not yet
tracked is sampled with a small probability; once a flow is tracked,
**every** subsequent packet of that flow is counted.  Compared to plain
packet sampling this removes most of the size estimation noise for the
flows that matter, at the cost of per-packet flow table lookups.

The paper's future work asks how packet sampling interacts with such
memory-bounded mechanisms; this implementation makes that experiment
possible (see the ablation benchmark) and serves as a practical baseline
for the detection problem.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from ..flows.keys import FiveTupleKeyPolicy, FlowKeyPolicy
from ..flows.packets import Packet, PacketBatch
from ..spec import format_spec
from .base import PacketSampler


class SampleAndHold:
    """Sample-and-hold flow counter with bounded memory.

    Parameters
    ----------
    sampling_rate:
        Probability of starting to track a flow on one of its packets.
    max_entries:
        Maximum number of tracked flows; when the table is full the
        smallest tracked entry is evicted to admit a newly sampled flow.
    key_policy:
        Flow definition used for tracking.
    rng:
        Random generator (or seed).
    """

    def __init__(
        self,
        sampling_rate: float,
        max_entries: int | None = None,
        key_policy: FlowKeyPolicy | None = None,
        rng: np.random.Generator | int | None = None,
    ) -> None:
        if not 0.0 < sampling_rate <= 1.0:
            raise ValueError(f"sampling_rate must be in (0, 1], got {sampling_rate}")
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be at least 1 when given")
        self.sampling_rate = float(sampling_rate)
        self.max_entries = max_entries
        self.key_policy = key_policy if key_policy is not None else FiveTupleKeyPolicy()
        self._rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        self._counters: dict[object, int] = {}
        self._evictions = 0

    # ------------------------------------------------------------------
    @property
    def tracked_flows(self) -> int:
        """Number of flows currently tracked."""
        return len(self._counters)

    @property
    def evictions(self) -> int:
        """Number of entries evicted because of the memory bound."""
        return self._evictions

    def observe(self, packet: Packet) -> None:
        """Process one packet.

        Exactly one uniform draw is consumed per packet, whether or not
        the flow is already tracked — the same chunk-invariance
        treatment as the streaming samplers: feeding a packet sequence
        through :meth:`observe` one at a time, through
        :meth:`observe_many` in one call, or through
        :meth:`observe_many` in arbitrary chunks produces the identical
        table for the same generator state.
        """
        draw = self._rng.random()  # Always one draw per packet (chunk invariance).
        key = self.key_policy.key_of(packet.five_tuple)
        self._observe_key(key, draw)

    def _observe_key(self, key: object, draw: float) -> None:
        if key in self._counters:
            self._counters[key] += 1
            return
        if draw >= self.sampling_rate:
            return
        if self.max_entries is not None and len(self._counters) >= self.max_entries:
            smallest = min(self._counters, key=self._counters.get)
            del self._counters[smallest]
            self._evictions += 1
        self._counters[key] = 1

    def observe_many(self, packets: Iterable[Packet]) -> None:
        """Process a stream of packets with batched admission draws.

        The admission draws are taken as one batched ``random(n)`` call
        — element for element the same sequence the per-packet path
        consumes — and the table updates are grouped per flow key: an
        already-tracked flow gains its whole packet count at once, an
        untracked flow is admitted at its first in-order admission
        candidate and counts the packets from there on.  Bit-identical
        to calling :meth:`observe` per packet, for any chunking.  The
        grouped path needs the eviction order of full tables, so a
        bounded table (``max_entries``) falls back to the sequential
        per-packet updates (draws still batched).
        """
        packet_list = packets if isinstance(packets, list) else list(packets)
        if not packet_list:
            return
        keys = [self.key_policy.key_of(packet.five_tuple) for packet in packet_list]
        draws = self._rng.random(len(keys))
        if self.max_entries is not None:
            for key, draw in zip(keys, draws):
                self._observe_key(key, float(draw))
            return
        # Group packet positions by key, preserving stream order within
        # each group (dict preserves first-seen order; positions are
        # appended in order).
        positions_of: dict[object, list[int]] = {}
        for position, key in enumerate(keys):
            positions_of.setdefault(key, []).append(position)
        candidates = draws < self.sampling_rate
        for key, positions in positions_of.items():
            if key in self._counters:
                self._counters[key] += len(positions)
                continue
            admitted_at = next(
                (rank for rank, position in enumerate(positions) if candidates[position]),
                None,
            )
            if admitted_at is not None:
                self._counters[key] = len(positions) - admitted_at

    def counts(self) -> dict[object, int]:
        """Current per-flow packet counts (only counted-after-admission packets).

        Returns
        -------
        dict
            Flow key to counted packets, a snapshot of the table.
        """
        return dict(self._counters)

    def estimated_sizes(self) -> dict[object, float]:
        """Unbiased-ish size estimates: admission is worth ``1/p`` packets.

        A tracked flow missed ``Geometric(p)`` packets before admission
        on average, so adding ``1/p - 1`` to the counted packets corrects
        most of the negative bias.
        """
        correction = 1.0 / self.sampling_rate - 1.0
        return {key: count + correction for key, count in self._counters.items()}

    def top(self, count: int) -> list[tuple[object, float]]:
        """The ``count`` largest tracked flows by estimated size.

        Parameters
        ----------
        count:
            Number of flows to return (at least 1).

        Returns
        -------
        list[tuple[object, float]]
            ``(key, estimated packets)`` pairs, largest first.
        """
        if count < 1:
            raise ValueError(f"count must be at least 1, got {count}")
        estimates = self.estimated_sizes()
        ordered = sorted(estimates.items(), key=lambda item: -item[1])
        return ordered[:count]

    def reset(self) -> None:
        """Clear all tracked flows (end of a measurement interval)."""
        self._counters.clear()
        self._evictions = 0


class SampleAndHoldSampler(PacketSampler):
    """Sample-and-hold as a streaming :class:`PacketSampler`.

    Each packet of a flow that is not yet tracked is a *candidate* with
    probability ``rate``; the first candidate admits the flow, and every
    packet of an admitted flow from that point on is kept.  Unlike
    :class:`SampleAndHold` (the bounded-memory heavy-hitter table) this
    adapter plugs into the pipeline executor, so sample-and-hold can be
    compared against plain packet sampling on the ranking/detection
    metrics with ``repro run --sampler sample-and-hold:rate=0.01``.

    The sampler is deliberately *stateful across chunks* (the tracked
    flow set persists), which makes it the canonical stress test for the
    executor's determinism guarantees: exactly one uniform draw is
    consumed per packet in stream order, so the keep-mask sequence is
    invariant to chunk size and to serial/process execution.

    Parameters
    ----------
    rate:
        Flow admission probability in ``(0, 1]``.
    rng:
        NumPy random generator (or seed) driving the admission draws.

    Notes
    -----
    :attr:`effective_rate` reports the admission probability ``rate``;
    the long-run fraction of packets *kept* is higher, because every
    post-admission packet of a tracked flow is counted.  Flows are
    identified by the batch's integer flow ids.
    """

    def __init__(self, rate: float, rng: np.random.Generator | int | None = None) -> None:
        if not 0.0 < rate <= 1.0:
            raise ValueError(f"rate must be in (0, 1], got {rate}")
        self.rate = float(rate)
        self._rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        self._tracked: set[int] = set()
        self.spec = format_spec("sample-and-hold", {"rate": self.rate})
        self.name = self.spec

    @property
    def effective_rate(self) -> float:
        """Flow admission probability (a lower bound on the packet keep rate)."""
        return self.rate

    @property
    def tracked_flows(self) -> int:
        """Number of flows currently held."""
        return len(self._tracked)

    def sample_mask(self, batch: PacketBatch) -> np.ndarray:
        """Keep-mask for a batch, carrying the tracked-flow set across batches.

        Parameters
        ----------
        batch:
            The packets to decide on, in stream order.

        Returns
        -------
        numpy.ndarray
            Boolean keep-mask: packets of already-tracked flows are
            kept, and within the batch every flow's first admission
            candidate (one uniform draw per packet, in stream order)
            turns the rest of that flow's packets on — so the mask
            sequence does not depend on how the stream is batched.
        """
        ids = np.asarray(batch.flow_ids, dtype=np.int64)
        draws = self._rng.random(ids.size)
        if self._tracked:
            tracked = np.fromiter(self._tracked, dtype=np.int64, count=len(self._tracked))
            keep = np.isin(ids, tracked)
        else:
            keep = np.zeros(ids.size, dtype=bool)
        pending = np.flatnonzero(~keep)
        if pending.size:
            # Group the not-yet-tracked packets by flow; within each
            # group, the first admission candidate (in stream order)
            # admits the flow and keeps every later packet of the group.
            order = np.argsort(ids[pending], kind="stable")
            sorted_ids = ids[pending][order]
            positions = pending[order]
            candidates = draws[pending][order] < self.rate
            segment_starts = np.concatenate(
                ([0], np.flatnonzero(np.diff(sorted_ids)) + 1)
            )
            segment_lengths = np.diff(np.concatenate((segment_starts, [sorted_ids.size])))
            sentinel = np.iinfo(np.int64).max
            first_candidate = np.minimum.reduceat(
                np.where(candidates, positions, sentinel), segment_starts
            )
            segment_of = np.repeat(np.arange(segment_starts.size), segment_lengths)
            kept = positions >= first_candidate[segment_of]
            keep[positions[kept]] = True
            admitted = sorted_ids[segment_starts][first_candidate < sentinel]
            self._tracked.update(int(flow) for flow in admitted)
        return keep

    def reset(self) -> None:
        """Forget all tracked flows (start of a fresh stream)."""
        self._tracked.clear()


__all__ = ["SampleAndHold", "SampleAndHoldSampler"]
