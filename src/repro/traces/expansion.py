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
from .buffers import stable_order
from .flow_trace import FlowLevelTrace


def expand_to_packets(
    trace: FlowLevelTrace,
    rng: np.random.Generator | int | None = None,
    packet_size_bytes: int = DEFAULT_PACKET_SIZE_BYTES,
    clip_to_duration: float | None = None,
) -> PacketBatch:
    """Expand a flow-level trace into a packet-level batch.

    Parameters
    ----------
    trace:
        Flow-level trace to expand.
    rng:
        Random generator (or seed) used to place packets uniformly
        within each flow's lifetime.
    packet_size_bytes:
        Constant packet size (paper: 500 bytes).
    clip_to_duration:
        When given, packets falling after this time are dropped — this
        reproduces the truncation that the binning method applies to
        flows still active at the end of the observation window.

    Returns
    -------
    PacketBatch
        Packets sorted by timestamp (ties keep flow row order, via
        :func:`repro.traces.buffers.stable_order`); ``flow_ids`` index
        the rows of the input trace.
    """
    if packet_size_bytes <= 0:
        raise ValueError("packet_size_bytes must be positive")
    generator = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)

    sizes = trace.sizes_packets
    total_packets = int(sizes.sum())
    if total_packets == 0:
        return PacketBatch(np.empty(0), np.empty(0, dtype=np.int64))

    flow_ids = np.repeat(np.arange(trace.num_flows, dtype=np.int64), sizes)
    starts = np.repeat(trace.start_times, sizes)
    durations = np.repeat(trace.durations, sizes)
    offsets = generator.random(total_packets) * durations
    timestamps = starts + offsets

    if clip_to_duration is not None:
        if clip_to_duration <= 0:
            raise ValueError("clip_to_duration must be positive")
        keep = timestamps < clip_to_duration
        timestamps = timestamps[keep]
        flow_ids = flow_ids[keep]

    order = stable_order(timestamps)
    sizes_bytes = np.full(timestamps.size, packet_size_bytes, dtype=np.int32)
    return PacketBatch.from_trusted_columns(timestamps[order], flow_ids[order], sizes_bytes)


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
