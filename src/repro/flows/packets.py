"""Packet records.

:class:`PacketBatch` is the one packet representation of the library: a
structure-of-arrays view (NumPy) used by the trace-driven simulation,
where a 30-minute backbone interval can hold tens of millions of
packets and per-packet Python objects would be prohibitively slow.

The paper assumes an average packet size of 500 bytes when converting
flow sizes between bytes and packets; that constant lives here so every
module uses the same value.
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
    sizes_bytes:
        Packet sizes in bytes.
    """

    def __init__(
        self,
        timestamps: np.ndarray,
        flow_ids: np.ndarray,
        sizes_bytes: np.ndarray | None = None,
    ) -> None:
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
        if sizes_bytes is None:
            sizes = np.full(ts.shape, DEFAULT_PACKET_SIZE_BYTES, dtype=np.int32)
        else:
            sizes = np.asarray(sizes_bytes, dtype=np.int32)
            if sizes.shape != ts.shape:
                raise ValueError("sizes_bytes must match the number of packets")
            if sizes.size and np.any(sizes <= 0):
                raise ValueError("packet sizes must be positive")
        self.timestamps = ts
        self.flow_ids = ids
        self.sizes_bytes = sizes

    @classmethod
    def from_trusted_columns(
        cls,
        timestamps: np.ndarray,
        flow_ids: np.ndarray,
        sizes_bytes: np.ndarray,
    ) -> "PacketBatch":
        """Wrap columns that already satisfy every batch invariant.

        For transport endpoints rebuilding a batch that was validated
        once on the producer side (``float64``/``int64``/``int32``
        dtypes, sorted finite non-negative timestamps, positive sizes):
        the constructor's O(n) checks are skipped, nothing is copied.
        Feeding unchecked data through this bypass voids the engine
        fast paths' assumptions — use the constructor instead.
        """
        batch = cls.__new__(cls)
        batch.timestamps = timestamps
        batch.flow_ids = flow_ids
        batch.sizes_bytes = sizes_bytes
        return batch

    def __len__(self) -> int:
        return int(self.timestamps.size)

    @property
    def duration(self) -> float:
        """Time span covered by the batch, in seconds."""
        if len(self) == 0:
            return 0.0
        return float(self.timestamps[-1] - self.timestamps[0])

    @property
    def num_flows(self) -> int:
        """Number of distinct flows appearing in the batch."""
        if len(self) == 0:
            return 0
        return int(np.unique(self.flow_ids).size)

    def select(self, mask: np.ndarray) -> "PacketBatch":
        """Return a new batch containing only the packets where ``mask`` is True."""
        mask_arr = np.asarray(mask, dtype=bool)
        if mask_arr.shape != self.timestamps.shape:
            raise ValueError("mask must have one entry per packet")
        return PacketBatch(
            self.timestamps[mask_arr],
            self.flow_ids[mask_arr],
            self.sizes_bytes[mask_arr],
        )

    def time_slice(self, start: float, end: float) -> "PacketBatch":
        """Packets with ``start <= timestamp < end``."""
        if end <= start:
            raise ValueError("end must be greater than start")
        lo = int(np.searchsorted(self.timestamps, start, side="left"))
        hi = int(np.searchsorted(self.timestamps, end, side="left"))
        return PacketBatch(
            self.timestamps[lo:hi], self.flow_ids[lo:hi], self.sizes_bytes[lo:hi]
        )

    def flow_packet_counts(self) -> dict[int, int]:
        """Number of packets of each flow present in the batch."""
        if len(self) == 0:
            return {}
        ids, counts = np.unique(self.flow_ids, return_counts=True)
        return {int(i): int(c) for i, c in zip(ids, counts)}

    def __repr__(self) -> str:
        return f"PacketBatch(num_packets={len(self)}, num_flows={self.num_flows})"


__all__ = ["PacketBatch", "DEFAULT_PACKET_SIZE_BYTES"]
