"""Flow definitions: which flow records of a trace form one flow.

The paper studies two flow definitions (Section 6):

* the usual **5-tuple** (protocol, source/destination IP address,
  source/destination port);
* the **/24 destination prefix**, which aggregates all packets sent
  towards the same /24 subnet.

A definition is a :class:`FlowKeyPolicy`, and its one method,
:meth:`~FlowKeyPolicy.group_ids`, maps every flow record of a
:class:`~repro.traces.flow_trace.FlowLevelTrace` to a non-negative
``int64`` *group id*: records with equal ids are one flow.  Group ids
are the only flow identity the accounting engine
(:mod:`repro.flows.accounting`) sees, and their numeric order is the
final ranking and eviction tie-break.  IPv4 addresses are carried as
unsigned 32-bit integers, with helpers to convert from and to
dotted-quad notation.
"""

from __future__ import annotations

import abc
import operator
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from ..traces.flow_trace import FlowLevelTrace

#: Protocol numbers for the transports that dominate backbone traffic.
PROTO_TCP = 6
PROTO_UDP = 17
PROTO_ICMP = 1

_MAX_IPV4 = 0xFFFFFFFF


def ip_to_int(address: str) -> int:
    """Convert a dotted-quad IPv4 address to an unsigned 32-bit integer.

    >>> ip_to_int("10.0.0.1")
    167772161
    """
    parts = address.split(".")
    if len(parts) != 4:
        raise ValueError(f"invalid IPv4 address {address!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"invalid IPv4 address {address!r}")
        value = (value << 8) | octet
    return value


def int_to_ip(value: int) -> str:
    """Convert an unsigned 32-bit integer to dotted-quad notation.

    >>> int_to_ip(167772161)
    '10.0.0.1'
    """
    if not 0 <= value <= _MAX_IPV4:
        raise ValueError(f"value out of IPv4 range: {value}")
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


class FlowKeyPolicy(abc.ABC):
    """A flow definition: maps the flow records of a trace to flow groups."""

    #: Human-readable name used in reports and experiment tables.
    name: str = "abstract"

    @abc.abstractmethod
    def group_ids(self, trace: FlowLevelTrace) -> np.ndarray:
        """The flow group of every flow record of ``trace``.

        Returns a 1-D ``int64`` array with one non-negative id per flow
        record; records with equal ids form one flow.  The ids' numeric
        order breaks ranking and eviction ties.
        """

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class FiveTupleKeyPolicy(FlowKeyPolicy):
    """Each flow record is its own flow (the paper's 5-tuple definition).

    The group id of a record is its index in the trace.  The synthetic
    traces give every record its own 5-tuple, so this is the 5-tuple
    definition; records that share a 5-tuple stay separate flows.
    """

    name = "5-tuple"

    def group_ids(self, trace: FlowLevelTrace) -> np.ndarray:
        return np.arange(trace.num_flows, dtype=np.int64)


class DestinationPrefixKeyPolicy(FlowKeyPolicy):
    """Flows are aggregated by destination prefix (the paper's /24 definition).

    The group id is the destination address shifted down to its
    ``prefix_length`` significant bits, so ids order like the prefixes.
    ``prefix_length`` is an integer in ``[0, 32]``: a fraction (``24.5``)
    raises :class:`TypeError` instead of being rounded down to /24.
    """

    def __init__(self, prefix_length: int = 24) -> None:
        try:
            length = operator.index(prefix_length)
        except TypeError:
            raise TypeError(
                f"prefix_length must be an integer, got {prefix_length!r}"
            ) from None
        if not 0 <= length <= 32:
            raise ValueError(f"prefix_length must be in [0, 32], got {prefix_length}")
        self.prefix_length = length
        self.name = f"/{self.prefix_length} destination prefix"

    def group_ids(self, trace: FlowLevelTrace) -> np.ndarray:
        shift = 32 - self.prefix_length
        if shift == 32:
            # A 32-bit shift of a uint32 is undefined: /0 is one group.
            return np.zeros(trace.num_flows, dtype=np.int64)
        return (trace.dst_ips >> np.uint32(shift)).astype(np.int64)

    def __repr__(self) -> str:
        return f"DestinationPrefixKeyPolicy(prefix_length={self.prefix_length})"


__all__ = [
    "FlowKeyPolicy",
    "FiveTupleKeyPolicy",
    "DestinationPrefixKeyPolicy",
    "ip_to_int",
    "int_to_ip",
    "PROTO_TCP",
    "PROTO_UDP",
    "PROTO_ICMP",
]
