"""File round-trips for traces: flow-level CSV and packet-level CSV/NPZ.

Flow-level traces are small enough (one row per flow) to be exchanged as
plain CSV, which makes it easy to feed real exported NetFlow-style
records into the simulation, or to archive the synthetic traces used for
a given experiment run.  Flow-trace columns:
``start_time,duration,packets,src_ip,dst_ip,src_port,dst_port,protocol``
with addresses in dotted-quad notation.

Packet-level batches (:class:`~repro.flows.packets.PacketBatch`) round
trip too — as CSV (``timestamp,flow_id``, human-inspectable) or as
compressed NPZ (columnar, the format to prefer at scale).  The matching
streaming sources are :class:`~repro.traces.source.CSVPacketSource` and
:class:`~repro.traces.source.NPZPacketSource`.  Empty batches round
trip as a header-only CSV / zero-length NPZ arrays.  Packet files from
when packets carried a size column (a ``timestamp,flow_id,size_bytes``
CSV, an NPZ holding ``sizes_bytes``) still load, and the size column
is ignored.

Both CSV readers raise :class:`ValueError` naming the file and line of
a row whose field count differs from its header's.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

from ..flows.keys import int_to_ip, ip_to_int
from ..flows.packets import PacketBatch
from .flow_trace import FlowLevelTrace

_HEADER = [
    "start_time",
    "duration",
    "packets",
    "src_ip",
    "dst_ip",
    "src_port",
    "dst_port",
    "protocol",
]


def write_flow_trace_csv(trace: FlowLevelTrace, path: str | Path) -> None:
    """Write a flow-level trace to a CSV file."""
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_HEADER)
        for i in range(trace.num_flows):
            writer.writerow(
                [
                    f"{trace.start_times[i]:.6f}",
                    f"{trace.durations[i]:.6f}",
                    int(trace.sizes_packets[i]),
                    int_to_ip(int(trace.src_ips[i])),
                    int_to_ip(int(trace.dst_ips[i])),
                    int(trace.src_ports[i]),
                    int(trace.dst_ports[i]),
                    int(trace.protocols[i]),
                ]
            )


def _read_rows(path: Path, headers: tuple[list[str], ...], kind: str) -> list[list[str]]:
    """The non-blank rows of a CSV file whose header is one of ``headers``.

    Raises :class:`ValueError` for any other header, and for a row
    whose field count differs from the header's, naming the file and
    the row's line.
    """
    with path.open("r", newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or header not in headers:
            raise ValueError(f"unexpected {kind} header in {path}: {header}")
        rows: list[list[str]] = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"{path}, line {reader.line_num}: expected {len(header)} "
                    f"fields ({','.join(header)}), got {len(row)}"
                )
            rows.append(row)
    return rows


def read_flow_trace_csv(path: str | Path) -> FlowLevelTrace:
    """Read a flow-level trace from a CSV file written by :func:`write_flow_trace_csv`."""
    path = Path(path)
    rows = _read_rows(path, (_HEADER,), "CSV")
    if not rows:
        raise ValueError(f"trace file {path} contains no flows")

    num_flows = len(rows)
    start_times = np.empty(num_flows)
    durations = np.empty(num_flows)
    sizes = np.empty(num_flows, dtype=np.int64)
    src_ips = np.empty(num_flows, dtype=np.uint32)
    dst_ips = np.empty(num_flows, dtype=np.uint32)
    src_ports = np.empty(num_flows, dtype=np.uint16)
    dst_ports = np.empty(num_flows, dtype=np.uint16)
    protocols = np.empty(num_flows, dtype=np.uint8)
    for i, row in enumerate(rows):
        start_times[i] = float(row[0])
        durations[i] = float(row[1])
        sizes[i] = int(row[2])
        src_ips[i] = ip_to_int(row[3])
        dst_ips[i] = ip_to_int(row[4])
        src_ports[i] = int(row[5])
        dst_ports[i] = int(row[6])
        protocols[i] = int(row[7])
    return FlowLevelTrace(
        start_times=start_times,
        durations=durations,
        sizes_packets=sizes,
        src_ips=src_ips,
        dst_ips=dst_ips,
        src_ports=src_ports,
        dst_ports=dst_ports,
        protocols=protocols,
    )


_PACKET_HEADER = ["timestamp", "flow_id"]

#: The packet CSV header from when packets carried a size column; the
#: reader still accepts it and ignores the third field.
_SIZED_PACKET_HEADER = [*_PACKET_HEADER, "size_bytes"]


def write_packet_batch_csv(batch: PacketBatch, path: str | Path) -> None:
    """Write a packet batch to a CSV file (one row per packet).

    An empty batch writes just the header row, and
    :func:`read_packet_batch_csv` reads it back as an empty batch.
    """
    path = Path(path)
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(_PACKET_HEADER)
        for ts, flow_id in zip(batch.timestamps, batch.flow_ids):
            writer.writerow([repr(float(ts)), int(flow_id)])


def read_packet_batch_csv(path: str | Path) -> PacketBatch:
    """Read a packet batch from a CSV written by :func:`write_packet_batch_csv`.

    A ``timestamp,flow_id,size_bytes`` file (the format before packets
    dropped their size column) loads too; its sizes are ignored.
    """
    path = Path(path)
    rows = _read_rows(path, (_PACKET_HEADER, _SIZED_PACKET_HEADER), "packet CSV")
    timestamps = np.array([float(row[0]) for row in rows], dtype=np.float64)
    flow_ids = np.array([int(row[1]) for row in rows], dtype=np.int64)
    return PacketBatch(timestamps, flow_ids)


def write_packet_batch_npz(batch: PacketBatch, path: str | Path, compressed: bool = True) -> None:
    """Write a packet batch as an NPZ (columnar) file.

    ``compressed=False`` stores the columns raw inside the archive
    (larger on disk, but read back without decompressing).
    """
    save = np.savez_compressed if compressed else np.savez
    save(Path(path), timestamps=batch.timestamps, flow_ids=batch.flow_ids)


def read_packet_batch_npz(path: str | Path, mmap: bool = False) -> PacketBatch:
    """Read a packet batch from an NPZ written by :func:`write_packet_batch_npz`.

    ``mmap=True`` opens the archive with ``mmap_mode="r"``; NumPy reads
    the members of an NPZ archive into memory whatever the mode, so
    either way the columns are in-memory arrays.  Any other array in
    the archive (a ``sizes_bytes`` column, in files written before
    packets dropped it) is not read.
    """
    if mmap:
        data = np.load(Path(path), mmap_mode="r")
        missing = {"timestamps", "flow_ids"} - set(data.files)
        if missing:
            raise ValueError(f"packet NPZ {path} is missing arrays: {sorted(missing)}")
        return PacketBatch(data["timestamps"], data["flow_ids"])
    with np.load(Path(path)) as data:
        missing = {"timestamps", "flow_ids"} - set(data.files)
        if missing:
            raise ValueError(f"packet NPZ {path} is missing arrays: {sorted(missing)}")
        return PacketBatch(data["timestamps"], data["flow_ids"])


__all__ = [
    "write_flow_trace_csv",
    "read_flow_trace_csv",
    "write_packet_batch_csv",
    "read_packet_batch_csv",
    "write_packet_batch_npz",
    "read_packet_batch_npz",
]
