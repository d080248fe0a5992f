"""Flow abstraction substrate: keys, packets, flow accounting.

The monitor path accounts :class:`PacketBatch` chunks through the
:class:`FlowAccountingEngine`, with flow keys carried as integer codes
(:class:`FlowKeyEncoder`).
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
    DestinationPrefixKeyEncoder,
    DestinationPrefixKeyPolicy,
    FiveTuple,
    FiveTupleKeyEncoder,
    FiveTupleKeyPolicy,
    FlowKeyEncoder,
    FlowKeyPolicy,
    ObjectKeyEncoder,
    flow_key_order,
    int_to_ip,
    ip_to_int,
    prefix_of,
)
from .packets import DEFAULT_PACKET_SIZE_BYTES, PacketBatch

__all__ = [
    "FiveTuple",
    "FlowKeyPolicy",
    "FiveTupleKeyPolicy",
    "DestinationPrefixKeyPolicy",
    "FlowKeyEncoder",
    "FiveTupleKeyEncoder",
    "DestinationPrefixKeyEncoder",
    "ObjectKeyEncoder",
    "flow_key_order",
    "ip_to_int",
    "int_to_ip",
    "prefix_of",
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
