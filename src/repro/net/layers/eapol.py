"""EAPoL (802.1X / EAP over LAN) frame, used during WPA2 key handshakes."""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.exceptions import PacketDecodeError

HEADER_LEN = 4

TYPE_EAP_PACKET = 0
TYPE_START = 1
TYPE_LOGOFF = 2
TYPE_KEY = 3

_HEADER = struct.Struct("!BBH")


@dataclass(slots=True)
class EAPOLFrame:
    """An EAPoL frame header.

    The WPA2 4-way handshake a WiFi device performs right after association
    consists of EAPoL-Key frames; they are typically the first packets a
    newly-introduced device sends and the paper lists EAPoL among the
    network-layer protocol features.
    """

    packet_type: int
    version: int = 2
    body: bytes = b""

    @property
    def is_key(self) -> bool:
        return self.packet_type == TYPE_KEY

    @property
    def is_start(self) -> bool:
        return self.packet_type == TYPE_START

    def to_bytes(self) -> bytes:
        return _HEADER.pack(self.version, self.packet_type, len(self.body)) + self.body

    @classmethod
    def from_bytes(cls, raw: bytes) -> tuple["EAPOLFrame", bytes]:
        if len(raw) < HEADER_LEN:
            raise PacketDecodeError(f"EAPoL frame too short: {len(raw)} bytes")
        version, packet_type, length = _HEADER.unpack_from(raw)
        body = raw[HEADER_LEN : HEADER_LEN + length]
        return cls(packet_type=packet_type, version=version, body=body), raw[HEADER_LEN + length :]
