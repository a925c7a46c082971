"""IPv6 header (RFC 8200) with hop-by-hop option parsing."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.exceptions import PacketDecodeError
from repro.net.addresses import ipv6_from_bytes, ipv6_to_bytes

HEADER_LEN = 40

NEXT_HEADER_HOP_BY_HOP = 0
NEXT_HEADER_TCP = 6
NEXT_HEADER_UDP = 17
NEXT_HEADER_ICMPV6 = 58

HBH_OPTION_PAD1 = 0
HBH_OPTION_PADN = 1
HBH_OPTION_ROUTER_ALERT = 5

_HEADER = struct.Struct("!IHBB16s16s")


@dataclass(slots=True)
class IPv6Header:
    """An IPv6 header, optionally followed by a hop-by-hop options header.

    MLD reports (used during multicast joins of mDNS/SSDP capable devices)
    carry a hop-by-hop Router Alert option; those surface in the IP-option
    features of Table I exactly as their IPv4 counterparts do.
    """

    src: str
    dst: str
    next_header: int
    hop_limit: int = 64
    traffic_class: int = 0
    flow_label: int = 0
    payload_length: int = 0
    hop_by_hop_options: list[int] = field(default_factory=list)

    @property
    def has_router_alert_option(self) -> bool:
        return HBH_OPTION_ROUTER_ALERT in self.hop_by_hop_options

    @property
    def has_padding_option(self) -> bool:
        return any(o in (HBH_OPTION_PAD1, HBH_OPTION_PADN) for o in self.hop_by_hop_options)

    def _hbh_bytes(self, inner_next_header: int) -> bytes:
        """Build a minimal hop-by-hop extension header carrying the options."""
        body = b""
        for option in self.hop_by_hop_options:
            if option == HBH_OPTION_PAD1:
                body += bytes([HBH_OPTION_PAD1])
            elif option == HBH_OPTION_ROUTER_ALERT:
                body += bytes([HBH_OPTION_ROUTER_ALERT, 2, 0, 0])
            else:
                body += bytes([option, 0])
        # The extension header is a multiple of 8 bytes including the
        # 2-byte (next header, length) prefix.
        total = 2 + len(body)
        pad = (8 - total % 8) % 8
        body += bytes([HBH_OPTION_PADN, pad - 2] + [0] * (pad - 2)) if pad >= 2 else b"\x00" * pad
        ext_len = (2 + len(body)) // 8 - 1
        return bytes([inner_next_header, ext_len]) + body

    def to_bytes(self, payload: bytes = b"") -> bytes:
        """Serialise the header (plus hop-by-hop extension if any) and payload."""
        if self.hop_by_hop_options:
            ext = self._hbh_bytes(self.next_header)
            first_next_header = NEXT_HEADER_HOP_BY_HOP
            payload = ext + payload
        else:
            first_next_header = self.next_header
        payload_length = self.payload_length or len(payload)
        vtf = (6 << 28) | (self.traffic_class << 20) | self.flow_label
        header = _HEADER.pack(
            vtf,
            payload_length,
            first_next_header,
            self.hop_limit,
            ipv6_to_bytes(self.src),
            ipv6_to_bytes(self.dst),
        )
        return header + payload

    @classmethod
    def from_bytes(cls, raw: bytes) -> tuple["IPv6Header", bytes]:
        """Parse an IPv6 header (and hop-by-hop header), returning payload."""
        if len(raw) < HEADER_LEN:
            raise PacketDecodeError(f"IPv6 header too short: {len(raw)} bytes")
        vtf, payload_length, next_header, hop_limit, src_raw, dst_raw = _HEADER.unpack_from(raw)
        version = vtf >> 28
        if version != 6:
            raise PacketDecodeError(f"not an IPv6 packet (version={version})")
        src = ipv6_from_bytes(src_raw)
        dst = ipv6_from_bytes(dst_raw)
        payload = raw[HEADER_LEN:]
        hbh_options: list[int] = []
        if next_header == NEXT_HEADER_HOP_BY_HOP:
            if len(payload) < 8:
                raise PacketDecodeError("truncated IPv6 hop-by-hop header")
            inner_next = payload[0]
            ext_len = (payload[1] + 1) * 8
            if len(payload) < ext_len:
                raise PacketDecodeError("truncated IPv6 hop-by-hop header body")
            hbh_options = _parse_hbh_options(payload[2:ext_len])
            next_header = inner_next
            payload = payload[ext_len:]
        header = cls(
            src=src,
            dst=dst,
            next_header=next_header,
            hop_limit=hop_limit,
            traffic_class=(vtf >> 20) & 0xFF,
            flow_label=vtf & 0xFFFFF,
            payload_length=payload_length,
            hop_by_hop_options=hbh_options,
        )
        return header, payload


def _parse_hbh_options(raw: bytes) -> list[int]:
    options: list[int] = []
    offset = 0
    while offset < len(raw):
        kind = raw[offset]
        options.append(kind)
        if kind == HBH_OPTION_PAD1:
            offset += 1
            continue
        if offset + 1 >= len(raw):
            break
        offset += 2 + raw[offset + 1]
    return options
