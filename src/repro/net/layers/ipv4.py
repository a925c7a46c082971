"""IPv4 header (RFC 791), including the options the feature set cares about."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from socket import inet_ntoa

from repro.exceptions import PacketBuildError, PacketDecodeError
from repro.net.addresses import ipv4_to_bytes

MIN_HEADER_LEN = 20

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

OPTION_END = 0
OPTION_NOP = 1
OPTION_ROUTER_ALERT = 148  # copied=1, class=0, number=20

_HEADER = struct.Struct("!BBHHHBBH4s4s")


@dataclass(slots=True)
class IPOption:
    """A single IPv4 header option (type / optional data)."""

    kind: int
    data: bytes = b""

    @property
    def is_padding(self) -> bool:
        """True for End-of-Options-List and No-Operation padding options."""
        return self.kind in (OPTION_END, OPTION_NOP)

    @property
    def is_router_alert(self) -> bool:
        """True for the Router Alert option (RFC 2113), used e.g. by IGMP."""
        return self.kind == OPTION_ROUTER_ALERT

    def to_bytes(self) -> bytes:
        if self.kind in (OPTION_END, OPTION_NOP):
            return bytes([self.kind])
        length = 2 + len(self.data)
        if length > 255:
            raise PacketBuildError(f"IP option too long: {length} bytes")
        return bytes([self.kind, length]) + self.data


def _parse_options(raw: bytes) -> list[IPOption]:
    options: list[IPOption] = []
    offset = 0
    while offset < len(raw):
        kind = raw[offset]
        if kind == OPTION_END:
            options.append(IPOption(kind=OPTION_END))
            break
        if kind == OPTION_NOP:
            options.append(IPOption(kind=OPTION_NOP))
            offset += 1
            continue
        if offset + 1 >= len(raw):
            raise PacketDecodeError("truncated IPv4 option")
        length = raw[offset + 1]
        if length < 2 or offset + length > len(raw):
            raise PacketDecodeError(f"invalid IPv4 option length: {length}")
        options.append(IPOption(kind=kind, data=raw[offset + 2 : offset + length]))
        offset += length
    return options


def checksum(data: bytes) -> int:
    """Compute the 16-bit one's-complement Internet checksum of ``data``."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) + data[i + 1]
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


@dataclass(slots=True)
class IPv4Header:
    """An IPv4 header with options.

    The ``options`` list feeds the two IP-option features of Table I
    (padding and router alert).
    """

    src: str
    dst: str
    protocol: int
    ttl: int = 64
    identification: int = 0
    dscp: int = 0
    flags: int = 2  # Don't Fragment by default
    fragment_offset: int = 0
    total_length: int = 0
    options: list[IPOption] = field(default_factory=list)

    @property
    def has_padding_option(self) -> bool:
        return any(opt.is_padding for opt in self.options)

    @property
    def has_router_alert_option(self) -> bool:
        return any(opt.is_router_alert for opt in self.options)

    def _options_bytes(self) -> bytes:
        raw = b"".join(opt.to_bytes() for opt in self.options)
        if len(raw) % 4:
            raw += b"\x00" * (4 - len(raw) % 4)
        if len(raw) > 40:
            raise PacketBuildError(f"IPv4 options too long: {len(raw)} bytes")
        return raw

    def to_bytes(self, payload: bytes = b"") -> bytes:
        """Serialise the header (with a valid checksum) followed by ``payload``."""
        options_raw = self._options_bytes()
        ihl = (MIN_HEADER_LEN + len(options_raw)) // 4
        total_length = self.total_length or (ihl * 4 + len(payload))
        header = _HEADER.pack(
            (4 << 4) | ihl,
            self.dscp << 2,
            total_length,
            self.identification,
            (self.flags << 13) | self.fragment_offset,
            self.ttl,
            self.protocol,
            0,
            ipv4_to_bytes(self.src),
            ipv4_to_bytes(self.dst),
        )
        header += options_raw
        csum = checksum(header)
        header = header[:10] + struct.pack("!H", csum) + header[12:]
        return header + payload

    @classmethod
    def from_bytes(cls, raw: bytes) -> tuple["IPv4Header", bytes]:
        """Parse an IPv4 header, returning the header and the layer-4 payload."""
        if len(raw) < MIN_HEADER_LEN:
            raise PacketDecodeError(f"IPv4 header too short: {len(raw)} bytes")
        version_ihl = raw[0]
        version = version_ihl >> 4
        if version != 4:
            raise PacketDecodeError(f"not an IPv4 packet (version={version})")
        ihl = (version_ihl & 0x0F) * 4
        if ihl < MIN_HEADER_LEN or len(raw) < ihl:
            raise PacketDecodeError(f"invalid IPv4 IHL: {ihl}")
        (
            _,
            tos,
            total_length,
            identification,
            flags_fragment,
            ttl,
            protocol,
            _checksum,
            src_raw,
            dst_raw,
        ) = _HEADER.unpack_from(raw)
        options = _parse_options(raw[MIN_HEADER_LEN:ihl]) if ihl > MIN_HEADER_LEN else []
        # Positional, in field order: src, dst, protocol, ttl,
        # identification, dscp, flags, fragment_offset, total_length, options.
        header = cls(
            inet_ntoa(src_raw),  # the Struct fixes both addresses at 4 bytes
            inet_ntoa(dst_raw),
            protocol,
            ttl,
            identification,
            tos >> 2,
            flags_fragment >> 13,
            flags_fragment & 0x1FFF,
            total_length,
            options,
        )
        payload_end = min(len(raw), total_length) if total_length >= ihl else len(raw)
        return header, raw[ihl:payload_end]
