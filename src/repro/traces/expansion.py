"""Flow-level to packet-level trace expansion.

The paper (Section 8.1) regenerates packets from the Sprint flow-level
trace by distributing each flow's packets uniformly over the flow's
lifetime, with all packets 500 bytes — equivalent, for long flows, to a
homogeneous Poisson process.  This module implements exactly that
expansion, producing the columnar
:class:`~repro.flows.packets.PacketBatch` the simulation consumes.
"""

from __future__ import annotations

import numpy as np

from ..flows.packets import DEFAULT_PACKET_SIZE_BYTES, PacketBatch
from .flow_trace import FlowLevelTrace
from .source import iter_expanded_chunks


def expand_to_packets(
    trace: FlowLevelTrace,
    rng: np.random.Generator | int | None = None,
    packet_size_bytes: int = DEFAULT_PACKET_SIZE_BYTES,
    clip_to_duration: float | None = None,
) -> PacketBatch:
    """Expand a flow-level trace into a packet-level batch.

    The one chunk of the materialised
    :func:`~repro.traces.source.iter_expanded_chunks` expansion: flows
    are admitted in start-time order and each one's placements are
    drawn at admission, so the batch is the very packet stream a
    pipeline over the same trace and generator sees.

    Parameters
    ----------
    trace:
        Flow-level trace to expand.
    rng:
        Random generator (or seed) used to place packets uniformly
        within each flow's lifetime, consumed in flow start-time order.
    packet_size_bytes:
        Constant packet size (paper: 500 bytes).
    clip_to_duration:
        When given, packets falling after this time are dropped — this
        reproduces the truncation that the binning method applies to
        flows still active at the end of the observation window.

    Returns
    -------
    PacketBatch
        Packets sorted by timestamp (ties keep flow admission order);
        ``flow_ids`` index the rows of the input trace.
    """
    if packet_size_bytes <= 0:
        raise ValueError("packet_size_bytes must be positive")
    if clip_to_duration is not None and clip_to_duration <= 0:
        raise ValueError("clip_to_duration must be positive")
    generator = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    for chunk in iter_expanded_chunks(
        trace,
        generator,
        chunk_packets=None,
        clip_to_duration=clip_to_duration,
        packet_size_bytes=packet_size_bytes,
    ):
        return chunk
    return PacketBatch(np.empty(0), np.empty(0, dtype=np.int64))


def expected_link_utilisation_bps(
    trace: FlowLevelTrace,
    packet_size_bytes: int = DEFAULT_PACKET_SIZE_BYTES,
) -> float:
    """Average offered load of the expanded trace in bits per second.

    The paper reports 90 Mb/s for the Sprint OC-12 link; this helper
    lets tests and examples check how a scaled-down synthetic trace
    compares.
    """
    if trace.duration <= 0:
        return 0.0
    total_bits = trace.total_packets * packet_size_bytes * 8.0
    return total_bits / trace.duration


__all__ = ["expand_to_packets", "expected_link_utilisation_bps"]
