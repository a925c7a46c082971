"""Ethernet II / IEEE 802.3 frame header."""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.exceptions import PacketDecodeError
from repro.net.addresses import MACAddress


class ETHERTYPE:
    """Well-known EtherType values used by the dissector."""

    IPV4 = 0x0800
    ARP = 0x0806
    IPV6 = 0x86DD
    EAPOL = 0x888E
    VLAN = 0x8100


# EtherType values below this threshold are 802.3 length fields; the payload
# then starts with an LLC header instead of a network-layer protocol.
_MAX_8023_LENGTH = 0x05DC

HEADER_LEN = 14

_HEADER = struct.Struct("!6s6sH")


@dataclass(slots=True)
class EthernetFrame:
    """An Ethernet frame header (Ethernet II or 802.3).

    Attributes:
        dst: destination MAC address.
        src: source MAC address.
        ethertype: EtherType for Ethernet II frames, or the 802.3 payload
            length for LLC frames.
    """

    dst: MACAddress
    src: MACAddress
    ethertype: int

    @property
    def is_llc(self) -> bool:
        """True when the frame is an IEEE 802.3 frame carrying an LLC header."""
        return self.ethertype <= _MAX_8023_LENGTH

    def to_bytes(self) -> bytes:
        """Serialise the 14-byte Ethernet header."""
        return _HEADER.pack(self.dst.to_bytes(), self.src.to_bytes(), self.ethertype)

    @classmethod
    def from_bytes(cls, raw: bytes) -> tuple["EthernetFrame", bytes]:
        """Parse an Ethernet header, returning the header and remaining payload."""
        if len(raw) < HEADER_LEN:
            raise PacketDecodeError(f"Ethernet frame too short: {len(raw)} bytes")
        dst, src, ethertype = _HEADER.unpack_from(raw)
        frame = cls(MACAddress.from_bytes(dst), MACAddress.from_bytes(src), ethertype)
        return frame, raw[HEADER_LEN:]
