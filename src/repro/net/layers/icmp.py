"""ICMP (v4) message."""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.exceptions import PacketDecodeError
from repro.net.layers.ipv4 import checksum

HEADER_LEN = 8

TYPE_ECHO_REPLY = 0
TYPE_DEST_UNREACHABLE = 3
TYPE_ECHO_REQUEST = 8

_HEADER = struct.Struct("!BBHHH")


@dataclass(slots=True)
class ICMPMessage:
    """An ICMPv4 message (echo request/reply, destination unreachable, ...)."""

    icmp_type: int
    code: int = 0
    identifier: int = 0
    sequence: int = 0
    payload: bytes = b""

    @property
    def is_echo_request(self) -> bool:
        return self.icmp_type == TYPE_ECHO_REQUEST

    @property
    def is_echo_reply(self) -> bool:
        return self.icmp_type == TYPE_ECHO_REPLY

    def to_bytes(self) -> bytes:
        """Serialise with a valid ICMP checksum."""
        header = _HEADER.pack(self.icmp_type, self.code, 0, self.identifier, self.sequence)
        raw = header + self.payload
        csum = checksum(raw)
        return raw[:2] + struct.pack("!H", csum) + raw[4:]

    @classmethod
    def from_bytes(cls, raw: bytes) -> tuple["ICMPMessage", bytes]:
        if len(raw) < HEADER_LEN:
            raise PacketDecodeError(f"ICMP message too short: {len(raw)} bytes")
        icmp_type, code, _csum, identifier, sequence = _HEADER.unpack_from(raw)
        return (
            cls(
                icmp_type=icmp_type,
                code=code,
                identifier=identifier,
                sequence=sequence,
                payload=raw[HEADER_LEN:],
            ),
            b"",
        )
