"""ARP packet (RFC 826) for IPv4 over Ethernet."""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.exceptions import PacketDecodeError
from repro.net.addresses import MACAddress, ipv4_from_bytes, ipv4_to_bytes

HEADER_LEN = 28

OP_REQUEST = 1
OP_REPLY = 2

_HEADER = struct.Struct("!HHBBH6s4s6s4s")


@dataclass(slots=True)
class ARPPacket:
    """An ARP request or reply for IPv4 over Ethernet.

    ARP probes and gratuitous ARP announcements are among the very first
    packets most IoT devices emit after joining a network, so the ARP
    indicator is one of the strongest early-position features.
    """

    operation: int
    sender_mac: MACAddress
    sender_ip: str
    target_mac: MACAddress
    target_ip: str

    @property
    def is_request(self) -> bool:
        return self.operation == OP_REQUEST

    @property
    def is_reply(self) -> bool:
        return self.operation == OP_REPLY

    @property
    def is_gratuitous(self) -> bool:
        """True for gratuitous ARP (sender announces its own address)."""
        return self.sender_ip == self.target_ip

    def to_bytes(self) -> bytes:
        """Serialise the 28-byte ARP payload (Ethernet/IPv4 flavour)."""
        return _HEADER.pack(
            1,
            0x0800,
            6,
            4,
            self.operation,
            self.sender_mac.to_bytes(),
            ipv4_to_bytes(self.sender_ip),
            self.target_mac.to_bytes(),
            ipv4_to_bytes(self.target_ip),
        )

    @classmethod
    def from_bytes(cls, raw: bytes) -> tuple["ARPPacket", bytes]:
        """Parse an ARP packet, returning it and any trailing bytes (padding)."""
        if len(raw) < HEADER_LEN:
            raise PacketDecodeError(f"ARP packet too short: {len(raw)} bytes")
        (
            _hw_type,
            _proto_type,
            hw_len,
            proto_len,
            operation,
            sender_mac,
            sender_ip,
            target_mac,
            target_ip,
        ) = _HEADER.unpack_from(raw)
        if hw_len != 6 or proto_len != 4:
            raise PacketDecodeError(
                f"unsupported ARP address lengths: hw={hw_len} proto={proto_len}"
            )
        packet = cls(
            operation=operation,
            sender_mac=MACAddress.from_bytes(sender_mac),
            sender_ip=ipv4_from_bytes(sender_ip),
            target_mac=MACAddress.from_bytes(target_mac),
            target_ip=ipv4_from_bytes(target_ip),
        )
        return packet, raw[HEADER_LEN:]
