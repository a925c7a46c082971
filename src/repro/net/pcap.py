"""Reading and writing classic libpcap capture files.

The public IoT SENTINEL dataset is distributed as pcap files captured with
tcpdump; this module implements the classic pcap container format (magic
``0xa1b2c3d4``, little or big endian, micro- or nanosecond timestamps) so
that real captures can be ingested by the fingerprinting pipeline and so
that the traffic simulator can emit captures that external tools can open.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Union

from repro.exceptions import PcapFormatError
from repro.net.packet import Packet

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
    """A raw captured frame together with its capture timestamp."""

    timestamp: float
    data: bytes
    original_length: int = 0

    def dissect(self) -> Packet:
        """Dissect the raw frame into a :class:`~repro.net.packet.Packet`."""
        return Packet.dissect(self.data, self.timestamp, self.original_length)


class PcapReader:
    """Iterates over the packets of a classic pcap file."""

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._endianness = "<"
        self._nanoseconds = False
        self.link_type = LINKTYPE_ETHERNET
        self.snaplen = 65535

    def __iter__(self) -> Iterator[CapturedPacket]:
        """The file's records, read in blocks of :data:`READ_BLOCK` bytes.

        Records are cut out of the current block with
        ``struct.unpack_from``; a record that runs past the block's end
        carries over into the next read, and one longer than a block is
        read whole.
        """
        with open(self.path, "rb") as handle:
            header = handle.read(GLOBAL_HEADER_LEN)
            self._parse_global_header(header)
            unpack_from = struct.Struct(self._endianness + "IIII").unpack_from
            divisor = 1e9 if self._nanoseconds else 1e6
            read = handle.read
            block = b""
            end = offset = 0
            while True:
                if end - offset < RECORD_HEADER_LEN:
                    block = block[offset:] + read(max(READ_BLOCK, RECORD_HEADER_LEN))
                    end, offset = len(block), 0
                    if not end:
                        break
                    if end < RECORD_HEADER_LEN:
                        raise PcapFormatError("truncated pcap record header")
                seconds, subseconds, captured_len, original_len = unpack_from(block, offset)
                start = offset + RECORD_HEADER_LEN
                offset = start + captured_len
                if offset > end:
                    block = block[start:] + read(max(READ_BLOCK, offset - end))
                    end, start, offset = len(block), 0, captured_len
                    if offset > end:
                        raise PcapFormatError("truncated pcap record body")
                yield CapturedPacket(
                    seconds + subseconds / divisor, block[start:offset], original_len
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
        elif isinstance(packet, CapturedPacket):
            data = packet.data
            timestamp = packet.timestamp
        else:
            data = packet
        seconds = int(timestamp)
        microseconds = int(round((timestamp - seconds) * 1e6))
        if microseconds >= 1_000_000:
            # The fraction rounded up to a whole second: carry it, since the
            # subsecond field must stay below 10**6.
            seconds += 1
            microseconds -= 1_000_000
        captured = data[: self.snaplen]
        record = struct.pack("<IIII", seconds, microseconds, len(captured), len(data))
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
