"""NTP (SNTP) message, RFC 5905 client mode."""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.exceptions import PacketDecodeError

HEADER_LEN = 48
PORT_NTP = 123

MODE_CLIENT = 3
MODE_SERVER = 4

_TRANSMIT_TIMESTAMP = struct.Struct("!Q")


@dataclass(slots=True)
class NTPMessage:
    """An NTP packet.

    Many IoT devices synchronise their clock as one of the first actions
    after obtaining an address (certificates and TLS need a sane clock),
    which makes the NTP feature a strong mid-sequence signal in Table I.
    """

    mode: int = MODE_CLIENT
    version: int = 4
    stratum: int = 0
    transmit_timestamp: int = 0

    @property
    def is_client_request(self) -> bool:
        return self.mode == MODE_CLIENT

    def to_bytes(self) -> bytes:
        first = (0 << 6) | (self.version << 3) | self.mode
        header = struct.pack("!BBBb", first, self.stratum, 0, -20)
        body = b"\x00" * 36 + _TRANSMIT_TIMESTAMP.pack(self.transmit_timestamp)
        return header + body

    @classmethod
    def from_bytes(cls, raw: bytes) -> tuple["NTPMessage", bytes]:
        if len(raw) < HEADER_LEN:
            raise PacketDecodeError(f"NTP message too short: {len(raw)} bytes")
        first = raw[0]
        version = (first >> 3) & 0x07
        mode = first & 0x07
        stratum = raw[1]
        (transmit_timestamp,) = _TRANSMIT_TIMESTAMP.unpack_from(raw, 40)
        return (
            cls(mode=mode, version=version, stratum=stratum, transmit_timestamp=transmit_timestamp),
            raw[HEADER_LEN:],
        )
