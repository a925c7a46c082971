"""ICMPv6 message (RFC 4443), including NDP and MLD types."""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro.exceptions import PacketDecodeError

HEADER_LEN = 4

TYPE_MLD_REPORT = 131
TYPE_MLDV2_REPORT = 143
TYPE_ROUTER_SOLICITATION = 133
TYPE_NEIGHBOR_SOLICITATION = 135
TYPE_NEIGHBOR_ADVERTISEMENT = 136
TYPE_ECHO_REQUEST = 128
TYPE_ECHO_REPLY = 129

_HEADER = struct.Struct("!BBH")


@dataclass(slots=True)
class ICMPv6Message:
    """An ICMPv6 message.

    IPv6-capable IoT devices emit router solicitations, neighbour
    solicitations (duplicate address detection) and MLD reports as part of
    their join sequence, which the ICMPv6 feature of Table I captures.
    """

    icmp_type: int
    code: int = 0
    body: bytes = b""

    @property
    def is_neighbor_discovery(self) -> bool:
        return self.icmp_type in (
            TYPE_ROUTER_SOLICITATION,
            TYPE_NEIGHBOR_SOLICITATION,
            TYPE_NEIGHBOR_ADVERTISEMENT,
        )

    @property
    def is_mld(self) -> bool:
        return self.icmp_type in (TYPE_MLD_REPORT, TYPE_MLDV2_REPORT)

    def to_bytes(self) -> bytes:
        # The real ICMPv6 checksum requires an IPv6 pseudo-header; the
        # dissector never validates it, so zero is written here.
        return _HEADER.pack(self.icmp_type, self.code, 0) + self.body

    @classmethod
    def from_bytes(cls, raw: bytes) -> tuple["ICMPv6Message", bytes]:
        if len(raw) < HEADER_LEN:
            raise PacketDecodeError(f"ICMPv6 message too short: {len(raw)} bytes")
        icmp_type, code, _csum = _HEADER.unpack_from(raw)
        return cls(icmp_type=icmp_type, code=code, body=raw[HEADER_LEN:]), b""
