"""Reading and writing classic libpcap capture files.

The public IoT SENTINEL dataset is distributed as pcap files captured with
tcpdump; this module implements the classic pcap container format (magic
``0xa1b2c3d4``, little or big endian, micro- or nanosecond timestamps) so
that real captures can be ingested by the fingerprinting pipeline and so
that the traffic simulator can emit captures that external tools can open.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Union

import numpy as np

from repro.exceptions import PcapFormatError
from repro.net.packet import Packet

if TYPE_CHECKING:
    from repro.net.batch import FrameRow

GLOBAL_HEADER_LEN = 24
RECORD_HEADER_LEN = 16

#: Bytes :class:`PcapReader` reads at a time; records are cut out of the
#: block in memory.
READ_BLOCK = 1 << 16

MAGIC_MICROSECONDS = 0xA1B2C3D4
MAGIC_NANOSECONDS = 0xA1B23C4D

LINKTYPE_ETHERNET = 1


@dataclass(slots=True)
class CapturedPacket:
    """A raw captured frame together with its capture timestamp.

    ``row`` is the frame's parsed row (:data:`repro.net.batch.FrameRow`)
    when whoever read the frame already parsed it
    (:func:`repro.net.batch.parsed_frames`), else ``None``; it takes no
    part in comparisons.  It describes ``timestamp``, ``data`` and
    ``original_length`` as they were parsed: a copy that changes any of
    them (``dataclasses.replace``) must pass ``row=None``.
    """

    timestamp: float
    data: bytes
    original_length: int = 0
    row: Optional[FrameRow] = field(default=None, compare=False, repr=False)

    def dissect(self) -> Packet:
        """Dissect the raw frame into a :class:`~repro.net.packet.Packet`."""
        return Packet.dissect(self.data, self.timestamp, self.original_length)


@dataclass(frozen=True, slots=True)
class RecordBlock:
    """The whole records of one read block.

    Record ``i``'s frame is ``data[starts[i]:stops[i]]``, captured at
    ``timestamps[i]`` and ``original_lengths[i]`` bytes long on the wire.
    """

    data: bytes
    starts: np.ndarray
    stops: np.ndarray
    timestamps: list[float]
    original_lengths: np.ndarray

    def frames(self) -> list[bytes]:
        """Each record's frame bytes, in record order."""
        data = self.data
        return [data[start:stop] for start, stop in zip(self.starts.tolist(), self.stops.tolist())]


def byte_windows(data: bytes, width: int) -> np.ndarray:
    """Every ``width``-byte run of ``data`` as a read-only view: row ``i``
    is ``data[i:i + width]``, so indexing rows gathers many headers at once.

    >>> byte_windows(b"abcd", 2)[[0, 2]].tobytes()
    b'abcd'
    """
    return np.ndarray((len(data) - width + 1, width), np.uint8, data, 0, (1, 1))


class PcapReader:
    """Iterates over the packets of a classic pcap file."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._endianness = "<"
        self._nanoseconds = False
        self.link_type = LINKTYPE_ETHERNET
        self.snaplen = 65535

    def __iter__(self) -> Iterator[CapturedPacket]:
        """The file's records as raw frames, read a block at a time (:meth:`blocks`)."""
        for block in self.blocks():
            yield from map(
                CapturedPacket, block.timestamps, block.frames(), block.original_lengths.tolist()
            )

    def blocks(self) -> Iterator[RecordBlock]:
        """The file's records, one :class:`RecordBlock` per read.

        The file is read :data:`READ_BLOCK` bytes at a time.  One walk over
        the record headers finds where each whole record of the read
        starts, and one gather decodes all their headers.  A record that
        runs past the read's end carries over into the next read, and one
        longer than a block is read whole; a file that ends inside a
        record raises once every whole record before it has been yielded.
        """
        with open(self.path, "rb") as handle:
            header = handle.read(GLOBAL_HEADER_LEN)
            self._parse_global_header(header)
            captured_length = struct.Struct(self._endianness + "8xI").unpack_from
            fields = np.dtype(self._endianness + "u4")
            divisor = 1e9 if self._nanoseconds else 1e6
            read = handle.read
            rest = b""
            wanted = RECORD_HEADER_LEN
            while True:
                chunk = read(max(READ_BLOCK, wanted - len(rest)))
                if not chunk:
                    if not rest:
                        return
                    if len(rest) < RECORD_HEADER_LEN:
                        raise PcapFormatError("truncated pcap record header")
                    raise PcapFormatError("truncated pcap record body")
                block = rest + chunk if rest else chunk
                end = len(block)
                offsets: list[int] = []
                append = offsets.append
                offset = 0
                last = end - RECORD_HEADER_LEN
                while offset <= last:
                    append(offset)
                    offset += RECORD_HEADER_LEN + captured_length(block, offset)[0]
                if offset > end:  # the last record runs past the read
                    wanted = offset - offsets.pop()
                    offset -= wanted
                else:
                    wanted = RECORD_HEADER_LEN
                rest = block[offset:]
                if not offsets:
                    continue
                at = np.fromiter(offsets, np.int64, len(offsets))
                heads = byte_windows(block, RECORD_HEADER_LEN)[at].view(fields)
                starts = at + RECORD_HEADER_LEN
                yield RecordBlock(
                    block,
                    starts,
                    starts + heads[:, 2],
                    (heads[:, 0] + heads[:, 1] / divisor).tolist(),
                    heads[:, 3].astype(np.int64),
                )

    def _parse_global_header(self, header: bytes) -> None:
        if len(header) < GLOBAL_HEADER_LEN:
            raise PcapFormatError("pcap file too short for global header")
        (magic,) = struct.unpack("<I", header[:4])
        if magic in (MAGIC_MICROSECONDS, MAGIC_NANOSECONDS):
            self._endianness = "<"
        else:
            (magic,) = struct.unpack(">I", header[:4])
            if magic not in (MAGIC_MICROSECONDS, MAGIC_NANOSECONDS):
                raise PcapFormatError("not a classic pcap file (bad magic number)")
            self._endianness = ">"
        self._nanoseconds = magic == MAGIC_NANOSECONDS
        _major, _minor, _tz, _sigfigs, snaplen, link_type = struct.unpack(
            self._endianness + "HHiIII", header[4:GLOBAL_HEADER_LEN]
        )
        self.snaplen = snaplen
        self.link_type = link_type
        if link_type != LINKTYPE_ETHERNET:
            raise PcapFormatError(f"unsupported link type: {link_type} (only Ethernet is supported)")

    def packets(self) -> Iterator[Packet]:
        """Iterate over dissected packets."""
        for captured in self:
            yield captured.dissect()


class PcapWriter:
    """Writes packets to a classic pcap file (microsecond timestamps)."""

    def __init__(self, path: Union[str, Path], snaplen: int = 65535):
        self.path = Path(path)
        self.snaplen = snaplen
        self._handle = None

    def __enter__(self) -> "PcapWriter":
        self.open()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def open(self) -> None:
        self._handle = open(self.path, "wb")
        header = struct.pack(
            "<IHHiIII",
            MAGIC_MICROSECONDS,
            2,
            4,
            0,
            0,
            self.snaplen,
            LINKTYPE_ETHERNET,
        )
        self._handle.write(header)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def write(self, packet: Union[Packet, CapturedPacket, bytes], timestamp: float = 0.0) -> None:
        """Append one packet to the capture file."""
        if self._handle is None:
            raise PcapFormatError("PcapWriter is not open")
        if isinstance(packet, Packet):
            data = packet.to_bytes()
            timestamp = packet.timestamp or timestamp
            original = packet.wire_length or len(data)
        elif isinstance(packet, CapturedPacket):
            data = packet.data
            timestamp = packet.timestamp
            original = packet.original_length or len(data)
        else:
            data = packet
            original = len(data)
        seconds = int(timestamp)
        microseconds = int(round((timestamp - seconds) * 1e6))
        if microseconds >= 1_000_000:
            # The fraction rounded up to a whole second: carry it, since the
            # subsecond field must stay below 10**6.
            seconds += 1
            microseconds -= 1_000_000
        captured = data[: self.snaplen]
        record = struct.pack("<IIII", seconds, microseconds, len(captured), original)
        self._handle.write(record + captured)


def read_pcap(path: Union[str, Path]) -> list[Packet]:
    """Read and dissect every packet in a pcap file."""
    return list(PcapReader(path).packets())


def write_pcap(path: Union[str, Path], packets: Iterable[Packet]) -> int:
    """Write packets to a pcap file, returning the number of packets written."""
    count = 0
    with PcapWriter(path) as writer:
        for packet in packets:
            writer.write(packet)
            count += 1
    return count
