"""Object-view flow keys: what the per-packet reference monitor classifies by.

The library knows a flow only by the group id its
:class:`~repro.flows.keys.FlowKeyPolicy` gives the flow's record
(``policy.group_ids(trace)``).  The reference monitor of
:mod:`oracles.objectpath` classifies each packet by a hashable key
object instead: its :class:`FiveTuple`, or the integer destination
prefix (:func:`key_of`), ordered by :func:`flow_key_order`.

:func:`keys_by_code` joins the two views and fails unless they split
the flows alike, and :func:`sorted_by_five_tuple` reorders a trace's
records so that the group-id order is the key order, so eviction and
ranking ties have to agree as well.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.flows.keys import (
    PROTO_TCP,
    DestinationPrefixKeyPolicy,
    FiveTupleKeyPolicy,
    FlowKeyPolicy,
    int_to_ip,
    ip_to_int,
)
from repro.traces.flow_trace import FlowLevelTrace

_MAX_IPV4 = 0xFFFFFFFF
_MAX_PORT = 0xFFFF


def prefix_of(address: int, prefix_length: int = 24) -> int:
    """Return the network prefix of an address as an integer.

    >>> int_to_ip(prefix_of(ip_to_int("192.168.17.33"), 24))
    '192.168.17.0'
    """
    if not 0 <= prefix_length <= 32:
        raise ValueError(f"prefix_length must be in [0, 32], got {prefix_length}")
    if not 0 <= address <= _MAX_IPV4:
        raise ValueError(f"address out of IPv4 range: {address}")
    if prefix_length == 0:
        return 0
    mask = (_MAX_IPV4 << (32 - prefix_length)) & _MAX_IPV4
    return address & mask


@dataclass(frozen=True, slots=True)
class FiveTuple:
    """The classic 5-tuple flow identifier.

    Addresses are unsigned 32-bit integers (see
    :func:`~repro.flows.keys.ip_to_int`); ports are 16-bit integers;
    ``protocol`` is the IP protocol number.
    """

    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    protocol: int = PROTO_TCP

    def __post_init__(self) -> None:
        for name, value, maximum in (
            ("src_ip", self.src_ip, _MAX_IPV4),
            ("dst_ip", self.dst_ip, _MAX_IPV4),
            ("src_port", self.src_port, _MAX_PORT),
            ("dst_port", self.dst_port, _MAX_PORT),
            ("protocol", self.protocol, 255),
        ):
            if not 0 <= value <= maximum:
                raise ValueError(f"{name} out of range: {value}")

    @classmethod
    def from_strings(
        cls,
        src_ip: str,
        dst_ip: str,
        src_port: int,
        dst_port: int,
        protocol: int = PROTO_TCP,
    ) -> "FiveTuple":
        """Build a 5-tuple from dotted-quad addresses."""
        return cls(ip_to_int(src_ip), ip_to_int(dst_ip), src_port, dst_port, protocol)

    def destination_prefix(self, prefix_length: int = 24) -> int:
        """The destination prefix this flow aggregates into."""
        return prefix_of(self.dst_ip, prefix_length)

    def reversed(self) -> "FiveTuple":
        """The 5-tuple of the reverse direction (useful for bidirectional flows)."""
        return FiveTuple(
            src_ip=self.dst_ip,
            dst_ip=self.src_ip,
            src_port=self.dst_port,
            dst_port=self.src_port,
            protocol=self.protocol,
        )

    def __str__(self) -> str:
        return (
            f"{int_to_ip(self.src_ip)}:{self.src_port} -> "
            f"{int_to_ip(self.dst_ip)}:{self.dst_port} proto={self.protocol}"
        )


def flow_key_order(key: object) -> tuple[object, ...] | int | str:
    """Total order over flow keys, the oracle's final ranking/eviction tie-break.

    :class:`FiveTuple` keys order by their field tuple, integer keys
    (prefixes) by value; any other key falls back to its ``repr``.

    >>> flow_key_order(7)
    7
    >>> flow_key_order(FiveTuple(1, 2, 3, 4, 6))
    (1, 2, 3, 4, 6)
    """
    if isinstance(key, FiveTuple):
        return (key.src_ip, key.dst_ip, key.src_port, key.dst_port, key.protocol)
    if isinstance(key, (int, np.integer)):
        return int(key)
    return repr(key)


def key_of(policy: FlowKeyPolicy, five_tuple: FiveTuple) -> object:
    """The flow key of a packet carrying ``five_tuple`` under a built-in policy."""
    if isinstance(policy, FiveTupleKeyPolicy):
        return five_tuple
    if isinstance(policy, DestinationPrefixKeyPolicy):
        return prefix_of(five_tuple.dst_ip, policy.prefix_length)
    raise TypeError(f"no object view of {policy!r}")


def five_tuple_of(trace: FlowLevelTrace, flow_index: int) -> FiveTuple:
    """The 5-tuple of one flow record of ``trace``."""
    return FiveTuple(
        src_ip=int(trace.src_ips[flow_index]),
        dst_ip=int(trace.dst_ips[flow_index]),
        src_port=int(trace.src_ports[flow_index]),
        dst_port=int(trace.dst_ports[flow_index]),
        protocol=int(trace.protocols[flow_index]),
    )


def five_tuples_of(trace: FlowLevelTrace) -> list[FiveTuple]:
    """The 5-tuple of every flow record of ``trace``, in record order."""
    return [five_tuple_of(trace, index) for index in range(trace.num_flows)]


def trace_of(five_tuples: Sequence[FiveTuple]) -> FlowLevelTrace:
    """A flow-level trace with one single-packet record per 5-tuple, in order."""
    count = len(five_tuples)
    return FlowLevelTrace(
        start_times=np.zeros(count),
        durations=np.zeros(count),
        sizes_packets=np.ones(count, dtype=np.int64),
        src_ips=[ft.src_ip for ft in five_tuples],
        dst_ips=[ft.dst_ip for ft in five_tuples],
        src_ports=[ft.src_port for ft in five_tuples],
        dst_ports=[ft.dst_port for ft in five_tuples],
        protocols=[ft.protocol for ft in five_tuples],
    )


def sorted_by_five_tuple(trace: FlowLevelTrace) -> FlowLevelTrace:
    """``trace`` with its records in :func:`flow_key_order` of their 5-tuples.

    The 5-tuple policy's group ids (record indices) then order like the
    oracle's :class:`FiveTuple` keys.
    """
    order = np.lexsort(
        (trace.protocols, trace.dst_ports, trace.src_ports, trace.dst_ips, trace.src_ips)
    )
    return FlowLevelTrace(
        start_times=trace.start_times[order],
        durations=trace.durations[order],
        sizes_packets=trace.sizes_packets[order],
        src_ips=trace.src_ips[order],
        dst_ips=trace.dst_ips[order],
        src_ports=trace.src_ports[order],
        dst_ports=trace.dst_ports[order],
        protocols=trace.protocols[order],
    )


def keys_by_code(policy: FlowKeyPolicy, trace: FlowLevelTrace) -> dict[int, object]:
    """The flow key of every group id ``policy.group_ids(trace)`` gives.

    Raises :class:`AssertionError` unless group ids and keys split the
    records alike (one key per id, one id per key) and ids order like
    the keys (:func:`flow_key_order`), the conditions under which the
    engine and the reference monitor must agree bit for bit.
    """
    keys: dict[int, object] = {}
    codes: dict[object, int] = {}
    for index, code in enumerate(policy.group_ids(trace).tolist()):
        key = key_of(policy, five_tuple_of(trace, index))
        assert keys.setdefault(code, key) == key, f"group {code} holds two keys"
        assert codes.setdefault(key, code) == code, f"key {key} has two group ids"
    ordered = sorted(keys)
    assert [flow_key_order(keys[code]) for code in ordered] == sorted(
        flow_key_order(key) for key in keys.values()
    ), "group ids do not order like the flow keys"
    return keys
