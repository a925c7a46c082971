"""DHCP / BOOTP message (RFC 2131 / RFC 951)."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.exceptions import PacketDecodeError
from repro.net.addresses import MACAddress, ipv4_from_bytes, ipv4_to_bytes

FIXED_LEN = 236
MAGIC_COOKIE = b"\x63\x82\x53\x63"

OP_REQUEST = 1
OP_REPLY = 2

OPTION_MESSAGE_TYPE = 53
OPTION_REQUESTED_IP = 50
OPTION_PARAMETER_LIST = 55
OPTION_HOSTNAME = 12
OPTION_VENDOR_CLASS = 60
OPTION_END = 255
OPTION_PAD = 0

MSG_DISCOVER = 1
MSG_OFFER = 2
MSG_REQUEST = 3
MSG_ACK = 5
MSG_INFORM = 8

CLIENT_PORT = 68
SERVER_PORT = 67

_FIXED = struct.Struct("!BBBBIHH4s4s4s4s16s64s128s")


@dataclass(slots=True)
class DHCPOption:
    """A single DHCP option (code / raw value)."""

    code: int
    data: bytes = b""

    def to_bytes(self) -> bytes:
        return bytes([self.code, len(self.data)]) + self.data


@dataclass(slots=True)
class DHCPMessage:
    """A DHCP message; without options and magic cookie it is plain BOOTP.

    Table I distinguishes DHCP from BOOTP: a datagram on ports 67/68 that
    carries the DHCP magic cookie counts for both features, while one
    without the cookie counts only as BOOTP.  ``is_dhcp`` exposes that
    distinction.
    """

    op: int
    client_mac: MACAddress
    transaction_id: int = 0
    client_ip: str = "0.0.0.0"
    your_ip: str = "0.0.0.0"
    server_ip: str = "0.0.0.0"
    gateway_ip: str = "0.0.0.0"
    options: list[DHCPOption] = field(default_factory=list)
    is_dhcp: bool = True

    @property
    def message_type(self) -> int | None:
        """The DHCP message type (DISCOVER, REQUEST, ...), if present."""
        for option in self.options:
            if option.code == OPTION_MESSAGE_TYPE and option.data:
                return option.data[0]
        return None

    @property
    def hostname(self) -> str | None:
        """The client-supplied hostname option, if present."""
        for option in self.options:
            if option.code == OPTION_HOSTNAME:
                return option.data.decode("ascii", errors="replace")
        return None

    def to_bytes(self) -> bytes:
        chaddr = self.client_mac.to_bytes() + b"\x00" * 10
        fixed = _FIXED.pack(
            self.op,
            1,  # htype: Ethernet
            6,  # hlen
            0,  # hops
            self.transaction_id,
            0,  # secs
            0x8000,  # flags: broadcast
            ipv4_to_bytes(self.client_ip),
            ipv4_to_bytes(self.your_ip),
            ipv4_to_bytes(self.server_ip),
            ipv4_to_bytes(self.gateway_ip),
            chaddr,
            b"",  # sname
            b"",  # file
        )
        if not self.is_dhcp:
            return fixed
        raw_options = b"".join(option.to_bytes() for option in self.options)
        return fixed + MAGIC_COOKIE + raw_options + bytes([OPTION_END])

    @classmethod
    def from_bytes(cls, raw: bytes) -> tuple["DHCPMessage", bytes]:
        if len(raw) < FIXED_LEN:
            raise PacketDecodeError(f"BOOTP message too short: {len(raw)} bytes")
        (
            op,
            _htype,
            hlen,
            _hops,
            transaction_id,
            _secs,
            _flags,
            ciaddr,
            yiaddr,
            siaddr,
            giaddr,
            chaddr,
            _sname,
            _file,
        ) = _FIXED.unpack_from(raw)
        if hlen != 6:
            raise PacketDecodeError(f"unsupported BOOTP hardware address length: {hlen}")
        rest = raw[FIXED_LEN:]
        is_dhcp = rest.startswith(MAGIC_COOKIE)
        options: list[DHCPOption] = []
        if is_dhcp:
            options = _parse_options(rest[len(MAGIC_COOKIE) :])
        message = cls(
            op=op,
            client_mac=MACAddress.from_bytes(chaddr[:6]),
            transaction_id=transaction_id,
            client_ip=ipv4_from_bytes(ciaddr),
            your_ip=ipv4_from_bytes(yiaddr),
            server_ip=ipv4_from_bytes(siaddr),
            gateway_ip=ipv4_from_bytes(giaddr),
            options=options,
            is_dhcp=is_dhcp,
        )
        return message, b""


def _parse_options(raw: bytes) -> list[DHCPOption]:
    options: list[DHCPOption] = []
    offset = 0
    while offset < len(raw):
        code = raw[offset]
        if code == OPTION_END:
            break
        if code == OPTION_PAD:
            offset += 1
            continue
        if offset + 1 >= len(raw):
            raise PacketDecodeError("truncated DHCP option")
        length = raw[offset + 1]
        data = raw[offset + 2 : offset + 2 + length]
        if len(data) < length:
            raise PacketDecodeError("truncated DHCP option value")
        options.append(DHCPOption(code=code, data=data))
        offset += 2 + length
    return options


def discover(client_mac: MACAddress, transaction_id: int = 0, hostname: str | None = None) -> DHCPMessage:
    """Build a typical DHCPDISCOVER message for ``client_mac``."""
    options = [DHCPOption(OPTION_MESSAGE_TYPE, bytes([MSG_DISCOVER]))]
    if hostname is not None:
        options.append(DHCPOption(OPTION_HOSTNAME, hostname.encode("ascii")))
    options.append(DHCPOption(OPTION_PARAMETER_LIST, bytes([1, 3, 6, 15])))
    return DHCPMessage(op=OP_REQUEST, client_mac=client_mac, transaction_id=transaction_id, options=options)


def request(
    client_mac: MACAddress,
    requested_ip: str,
    transaction_id: int = 0,
    hostname: str | None = None,
) -> DHCPMessage:
    """Build a typical DHCPREQUEST message asking for ``requested_ip``."""
    options = [
        DHCPOption(OPTION_MESSAGE_TYPE, bytes([MSG_REQUEST])),
        DHCPOption(OPTION_REQUESTED_IP, ipv4_to_bytes(requested_ip)),
    ]
    if hostname is not None:
        options.append(DHCPOption(OPTION_HOSTNAME, hostname.encode("ascii")))
    return DHCPMessage(op=OP_REQUEST, client_mac=client_mac, transaction_id=transaction_id, options=options)
