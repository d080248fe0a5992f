"""Sample-and-hold heavy-hitter identification (Estan & Varghese).

The paper's related work ([11]) identifies large flows with bounded
memory by *sampling-and-holding*: each packet of a flow that is not yet
tracked is sampled with a small probability; once a flow is tracked,
**every** subsequent packet of that flow is counted.  Compared to plain
packet sampling this removes most of the size estimation noise for the
flows that matter, at the cost of per-packet flow table lookups.

The paper's future work asks how packet sampling interacts with such
memory-bounded mechanisms; :class:`SampleAndHoldSampler` makes that
experiment possible (see the ablation benchmark).
"""

from __future__ import annotations

import numpy as np

from ..flows.packets import PacketBatch
from ..spec import format_spec
from .base import PacketSampler


class SampleAndHoldSampler(PacketSampler):
    """Sample-and-hold as a streaming :class:`PacketSampler`.

    Each packet of a flow that is not yet tracked is a *candidate* with
    probability ``rate``; the first candidate admits the flow, and every
    packet of an admitted flow from that point on is kept.  It plugs
    into the pipeline executor, so sample-and-hold can be compared
    against plain packet sampling on the ranking/detection metrics with
    ``repro run --sampler sample-and-hold:rate=0.01``.

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


__all__ = ["SampleAndHoldSampler"]
