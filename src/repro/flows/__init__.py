"""Flow abstraction substrate: flow definitions, packets, flow accounting.

A flow definition (:class:`FlowKeyPolicy`) maps the flow records of a
trace to non-negative ``int64`` group ids, and the monitor path accounts
:class:`PacketBatch` chunks by those ids through the
:class:`FlowAccountingEngine`.
"""

from .accounting import (
    BinAccount,
    FlowAccountingEngine,
    aggregate_codes,
    bin_segments,
)
from .groupby import HashAccumulator
from .keys import (
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    DestinationPrefixKeyPolicy,
    FiveTupleKeyPolicy,
    FlowKeyPolicy,
    int_to_ip,
    ip_to_int,
)
from .packets import DEFAULT_PACKET_SIZE_BYTES, PacketBatch

__all__ = [
    "FlowKeyPolicy",
    "FiveTupleKeyPolicy",
    "DestinationPrefixKeyPolicy",
    "ip_to_int",
    "int_to_ip",
    "PROTO_TCP",
    "PROTO_UDP",
    "PROTO_ICMP",
    "PacketBatch",
    "DEFAULT_PACKET_SIZE_BYTES",
    "BinAccount",
    "FlowAccountingEngine",
    "HashAccumulator",
    "aggregate_codes",
    "bin_segments",
]
