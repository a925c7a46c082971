"""Flow identification: the 5-tuple key used by the enforcement layer."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.net.packet import Packet


@dataclass(frozen=True, order=True, slots=True)
class FlowKey:
    """A (src IP, dst IP, protocol, src port, dst port) flow identifier.

    The Security Gateway classifies traffic into flows when applying
    enforcement rules; two packets belong to the same flow when their keys
    are equal, and ``reversed_key`` identifies the return direction.
    """

    src_ip: str
    dst_ip: str
    protocol: str
    src_port: int = 0
    dst_port: int = 0

    @classmethod
    def from_packet(cls, packet: Packet) -> Optional["FlowKey"]:
        """Derive the flow key of a packet, or None for non-IP traffic."""
        if not packet.has_ip:
            return None
        if packet.tcp is not None:
            protocol = "tcp"
        elif packet.udp is not None:
            protocol = "udp"
        elif packet.icmp is not None:
            protocol = "icmp"
        elif packet.icmpv6 is not None:
            protocol = "icmpv6"
        else:
            protocol = "ip"
        return cls(
            src_ip=packet.src_ip or "",
            dst_ip=packet.dst_ip or "",
            protocol=protocol,
            src_port=packet.src_port or 0,
            dst_port=packet.dst_port or 0,
        )

    @property
    def reversed_key(self) -> "FlowKey":
        """The key of the opposite direction of this flow."""
        return FlowKey(
            src_ip=self.dst_ip,
            dst_ip=self.src_ip,
            protocol=self.protocol,
            src_port=self.dst_port,
            dst_port=self.src_port,
        )

    def __str__(self) -> str:
        return f"{self.protocol}:{self.src_ip}:{self.src_port}->{self.dst_ip}:{self.dst_port}"
