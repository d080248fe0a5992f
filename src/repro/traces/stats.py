"""Summary statistics of flow-level traces.

Used by examples and experiment reports to state the characteristics of
the synthetic traces (flow arrival rate, mean flow size, flows per
measurement interval, tail heaviness) in the same terms the paper uses
when describing the Sprint and Abilene traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..flows.keys import FlowKeyPolicy
from ..flows.packets import DEFAULT_PACKET_SIZE_BYTES
from .flow_trace import FlowLevelTrace


@dataclass(frozen=True)
class TraceSummary:
    """Headline statistics of a flow-level trace under one flow definition."""

    flow_definition: str
    num_flows: int
    duration: float
    flow_arrival_rate: float
    mean_flow_size_packets: float
    mean_flow_size_bytes: float
    mean_flow_duration: float
    p99_flow_size_packets: float
    max_flow_size_packets: int
    hill_tail_index: float
    mean_flows_per_interval: dict[float, float]


def _hill_tail_index(sizes: np.ndarray, tail_fraction: float = 0.05) -> float:
    """Hill estimator of the flow size tail index."""
    if sizes.size < 10:
        return float("nan")
    ordered = np.sort(sizes.astype(float))[::-1]
    k = max(2, int(np.ceil(tail_fraction * ordered.size)))
    top = ordered[:k]
    threshold = top[-1]
    if threshold <= 0:
        return float("nan")
    logs = np.log(top / threshold)
    mean_log = logs[:-1].mean()
    if mean_log <= 0:
        return float("inf")
    return float(1.0 / mean_log)


def aggregate_sizes(trace: FlowLevelTrace, key_policy: FlowKeyPolicy) -> np.ndarray:
    """Flow sizes (in packets) after aggregating the trace under a flow definition."""
    groups = trace.group_ids(key_policy)
    _, inverse = np.unique(groups, return_inverse=True)
    sums = np.zeros(inverse.max() + 1, dtype=np.int64)
    np.add.at(sums, inverse, trace.sizes_packets)
    return sums


def summarize_trace(
    trace: FlowLevelTrace,
    key_policy: FlowKeyPolicy,
    intervals: tuple[float, ...] = (60.0, 300.0),
) -> TraceSummary:
    """Compute the headline statistics of a trace under a flow definition.

    ``mean_flow_size_bytes`` counts every packet at the paper's 500
    bytes (:data:`~repro.flows.packets.DEFAULT_PACKET_SIZE_BYTES`).
    """
    groups = trace.group_ids(key_policy)
    unique_groups = np.unique(groups)
    sizes = aggregate_sizes(trace, key_policy)

    per_interval: dict[float, float] = {}
    for interval in intervals:
        if interval <= 0:
            raise ValueError("measurement intervals must be positive")
        counts = []
        start = 0.0
        while start < trace.duration:
            window = trace.time_window(start, start + interval)
            counts.append(np.unique(window.group_ids(key_policy)).size)
            start += interval
        per_interval[interval] = float(np.mean(counts)) if counts else 0.0

    return TraceSummary(
        flow_definition=key_policy.name,
        num_flows=int(unique_groups.size),
        duration=trace.duration,
        flow_arrival_rate=float(unique_groups.size / trace.duration) if trace.duration else 0.0,
        mean_flow_size_packets=float(sizes.mean()),
        mean_flow_size_bytes=float(sizes.mean() * DEFAULT_PACKET_SIZE_BYTES),
        mean_flow_duration=float(trace.durations.mean()) if trace.num_flows else 0.0,
        p99_flow_size_packets=float(np.percentile(sizes, 99)),
        max_flow_size_packets=int(sizes.max()),
        hill_tail_index=_hill_tail_index(sizes),
        mean_flows_per_interval=per_interval,
    )


__all__ = ["TraceSummary", "summarize_trace", "aggregate_sizes"]
