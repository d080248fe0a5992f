"""Packet records.

:class:`PacketBatch` is the one packet representation of the library: a
structure-of-arrays view (NumPy) used by the trace-driven simulation,
where a 30-minute backbone interval can hold tens of millions of
packets and per-packet Python objects would be prohibitively slow.  A
packet is an arrival time and the id of its flow: the paper ranks and
detects flows by their size in packets, so no stage reads a packet's
size in bytes.

The paper assumes an average packet size of 500 bytes when converting
flow sizes between bytes and packets; that constant lives here so the
reports that speak in bytes (synthetic-trace calibration, trace
summaries, link utilisation) use the same value.
"""

from __future__ import annotations

import numpy as np

#: Average Internet packet size in bytes assumed by the paper (CAIDA).
DEFAULT_PACKET_SIZE_BYTES = 500


class PacketBatch:
    """Columnar batch of packets referencing flows by integer id.

    Attributes
    ----------
    timestamps:
        Arrival times in seconds, sorted in non-decreasing order.
    flow_ids:
        Integer id of the flow each packet belongs to (an index into an
        external flow metadata table).
    """

    def __init__(self, timestamps: np.ndarray, flow_ids: np.ndarray) -> None:
        ts = np.asarray(timestamps, dtype=np.float64)
        ids = np.asarray(flow_ids, dtype=np.int64)
        if ts.ndim != 1 or ids.ndim != 1 or ts.shape != ids.shape:
            raise ValueError("timestamps and flow_ids must be 1-D arrays of equal length")
        if not np.isfinite(ts).all():
            raise ValueError("timestamps must be finite")
        if ts.size and np.any(np.diff(ts) < 0):
            raise ValueError("timestamps must be sorted in non-decreasing order")
        if np.any(ts < 0):
            raise ValueError("timestamps must be non-negative")
        self.timestamps = ts
        self.flow_ids = ids

    @classmethod
    def from_trusted_columns(cls, timestamps: np.ndarray, flow_ids: np.ndarray) -> "PacketBatch":
        """Wrap columns that already satisfy every batch invariant.

        For transport endpoints rebuilding a batch that was validated
        once on the producer side (``float64``/``int64`` dtypes, sorted
        finite non-negative timestamps): the constructor's O(n) checks
        are skipped, nothing is copied.  Feeding unchecked data through
        this bypass voids the engine fast paths' assumptions — use the
        constructor instead.
        """
        batch = cls.__new__(cls)
        batch.timestamps = timestamps
        batch.flow_ids = flow_ids
        return batch

    def __len__(self) -> int:
        return int(self.timestamps.size)

    def select(self, mask: np.ndarray) -> "PacketBatch":
        """Return a new batch containing only the packets where ``mask`` is True."""
        mask_arr = np.asarray(mask, dtype=bool)
        if mask_arr.shape != self.timestamps.shape:
            raise ValueError("mask must have one entry per packet")
        return PacketBatch(self.timestamps[mask_arr], self.flow_ids[mask_arr])

    def __repr__(self) -> str:
        return f"PacketBatch(num_packets={len(self)})"


__all__ = ["PacketBatch", "DEFAULT_PACKET_SIZE_BYTES"]
