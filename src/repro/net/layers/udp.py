"""UDP datagram header (RFC 768)."""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.exceptions import PacketDecodeError

HEADER_LEN = 8

_HEADER = struct.Struct("!HHHH")


@dataclass(slots=True)
class UDPDatagram:
    """A UDP datagram (header fields + payload).

    DHCP, DNS, mDNS, SSDP and NTP -- five of the eight application-layer
    protocol features of Table I -- all ride on UDP, so this is the most
    frequently traversed transport layer in setup-phase traffic.
    """

    src_port: int
    dst_port: int
    payload: bytes = b""

    @property
    def has_payload(self) -> bool:
        return len(self.payload) > 0

    def to_bytes(self) -> bytes:
        return (
            _HEADER.pack(self.src_port, self.dst_port, HEADER_LEN + len(self.payload), 0)
            + self.payload
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> tuple["UDPDatagram", bytes]:
        if len(raw) < HEADER_LEN:
            raise PacketDecodeError(f"UDP datagram too short: {len(raw)} bytes")
        src_port, dst_port, length, _csum = _HEADER.unpack_from(raw)
        if length < HEADER_LEN:
            raise PacketDecodeError(f"invalid UDP length: {length}")
        payload = raw[HEADER_LEN : max(HEADER_LEN, min(len(raw), length))]
        datagram = cls(src_port=src_port, dst_port=dst_port, payload=payload)
        return datagram, payload
