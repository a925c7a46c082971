"""TCP segment header (RFC 793)."""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.exceptions import PacketDecodeError

MIN_HEADER_LEN = 20

FLAG_FIN = 0x01
FLAG_SYN = 0x02
FLAG_RST = 0x04
FLAG_PSH = 0x08
FLAG_ACK = 0x10

_HEADER = struct.Struct("!HHIIBBHHH")


@dataclass(slots=True)
class TCPSegment:
    """A TCP segment (header fields + payload).

    Source/destination ports feed the port-class features; the payload
    presence feeds the raw-data feature and lets the dissector sniff
    HTTP requests and TLS ClientHello records for the application-layer
    features.
    """

    src_port: int
    dst_port: int
    seq: int = 0
    ack: int = 0
    flags: int = FLAG_SYN
    window: int = 65535
    payload: bytes = b""

    @property
    def is_syn(self) -> bool:
        return bool(self.flags & FLAG_SYN) and not self.flags & FLAG_ACK

    @property
    def is_syn_ack(self) -> bool:
        return bool(self.flags & FLAG_SYN) and bool(self.flags & FLAG_ACK)

    @property
    def has_payload(self) -> bool:
        return len(self.payload) > 0

    def to_bytes(self) -> bytes:
        header = _HEADER.pack(
            self.src_port,
            self.dst_port,
            self.seq,
            self.ack,
            (MIN_HEADER_LEN // 4) << 4,
            self.flags,
            self.window,
            0,  # checksum requires pseudo-header; not validated by the dissector
            0,
        )
        return header + self.payload

    @classmethod
    def from_bytes(cls, raw: bytes) -> tuple["TCPSegment", bytes]:
        if len(raw) < MIN_HEADER_LEN:
            raise PacketDecodeError(f"TCP segment too short: {len(raw)} bytes")
        src_port, dst_port, seq, ack, offset_reserved, flags, window, _csum, _urg = (
            _HEADER.unpack_from(raw)
        )
        data_offset = (offset_reserved >> 4) * 4
        if data_offset < MIN_HEADER_LEN or data_offset > len(raw):
            raise PacketDecodeError(f"invalid TCP data offset: {data_offset}")
        segment = cls(
            src_port=src_port,
            dst_port=dst_port,
            seq=seq,
            ack=ack,
            flags=flags,
            window=window,
            payload=raw[data_offset:],
        )
        return segment, segment.payload
