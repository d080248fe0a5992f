"""Flow-level trace container.

The Sprint trace used by the paper (Section 8.1) is a *flow-level*
trace: for every flow it records the 5-tuple, the size, the duration and
the start time, but not the individual packets.  The paper regenerates
packets synthetically from those records; we mirror that pipeline with
:class:`FlowLevelTrace` (this module) and
:func:`repro.traces.expansion.expand_to_packets`.

The container is columnar (NumPy arrays) because realistic traces hold
hundreds of thousands to millions of flows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..flows.keys import FlowKeyPolicy


@dataclass
class FlowLevelTrace:
    """Columnar flow-level trace.

    All arrays have one entry per flow.

    Attributes
    ----------
    start_times:
        Flow start times in seconds from the beginning of the trace.
    durations:
        Flow durations in seconds (0 for single-packet flows).
    sizes_packets:
        Flow sizes in packets.
    src_ips, dst_ips:
        IPv4 addresses as unsigned 32-bit integers.
    src_ports, dst_ports:
        Transport ports.
    protocols:
        IP protocol numbers.
    """

    start_times: np.ndarray
    durations: np.ndarray
    sizes_packets: np.ndarray
    src_ips: np.ndarray
    dst_ips: np.ndarray
    src_ports: np.ndarray
    dst_ports: np.ndarray
    protocols: np.ndarray

    def __post_init__(self) -> None:
        self.start_times = np.asarray(self.start_times, dtype=np.float64)
        self.durations = np.asarray(self.durations, dtype=np.float64)
        self.sizes_packets = np.asarray(self.sizes_packets, dtype=np.int64)
        self.src_ips = np.asarray(self.src_ips, dtype=np.uint32)
        self.dst_ips = np.asarray(self.dst_ips, dtype=np.uint32)
        self.src_ports = np.asarray(self.src_ports, dtype=np.uint16)
        self.dst_ports = np.asarray(self.dst_ports, dtype=np.uint16)
        self.protocols = np.asarray(self.protocols, dtype=np.uint8)
        n = self.start_times.size
        for name in ("durations", "sizes_packets", "src_ips", "dst_ips", "src_ports", "dst_ports", "protocols"):
            if getattr(self, name).size != n:
                raise ValueError(f"{name} must have one entry per flow")
        for name in ("start_times", "durations"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        if np.any(self.start_times < 0):
            raise ValueError("start times must be non-negative")
        if np.any(self.durations < 0):
            raise ValueError("durations must be non-negative")
        if n and np.any(self.sizes_packets < 1):
            raise ValueError("flow sizes must be at least 1 packet")

    # ------------------------------------------------------------------
    @property
    def num_flows(self) -> int:
        """Number of flows in the trace."""
        return int(self.start_times.size)

    @property
    def total_packets(self) -> int:
        """Total number of packets the trace expands to."""
        return int(self.sizes_packets.sum())

    @property
    def duration(self) -> float:
        """Time span covered by the trace (last flow end minus first start)."""
        if self.num_flows == 0:
            return 0.0
        return float((self.start_times + self.durations).max() - self.start_times.min())

    @property
    def mean_flow_size(self) -> float:
        """Mean flow size in packets."""
        if self.num_flows == 0:
            return 0.0
        return float(self.sizes_packets.mean())

    @property
    def flow_arrival_rate(self) -> float:
        """Average number of flow arrivals per second."""
        span = self.duration
        if span <= 0:
            return 0.0
        return self.num_flows / span

    # ------------------------------------------------------------------
    def group_ids(self, key_policy: FlowKeyPolicy) -> np.ndarray:
        """Map every flow to an integer group id under a flow definition.

        Delegates to :meth:`FlowKeyPolicy.group_ids
        <repro.flows.keys.FlowKeyPolicy.group_ids>`: with the 5-tuple
        policy each trace flow is its own group; with a
        destination-prefix policy flows sharing the prefix share a group.
        """
        return key_policy.group_ids(self)

    def select(self, mask: np.ndarray) -> "FlowLevelTrace":
        """Return a sub-trace containing only the flows where ``mask`` is True."""
        mask_arr = np.asarray(mask, dtype=bool)
        if mask_arr.shape != self.start_times.shape:
            raise ValueError("mask must have one entry per flow")
        return FlowLevelTrace(
            start_times=self.start_times[mask_arr],
            durations=self.durations[mask_arr],
            sizes_packets=self.sizes_packets[mask_arr],
            src_ips=self.src_ips[mask_arr],
            dst_ips=self.dst_ips[mask_arr],
            src_ports=self.src_ports[mask_arr],
            dst_ports=self.dst_ports[mask_arr],
            protocols=self.protocols[mask_arr],
        )

    def time_window(self, start: float, end: float) -> "FlowLevelTrace":
        """Flows that start within ``[start, end)``."""
        if end <= start:
            raise ValueError("end must be greater than start")
        mask = (self.start_times >= start) & (self.start_times < end)
        return self.select(mask)

    def __repr__(self) -> str:
        return (
            f"FlowLevelTrace(num_flows={self.num_flows}, "
            f"total_packets={self.total_packets}, duration={self.duration:.1f}s)"
        )


__all__ = ["FlowLevelTrace"]
